package goflay_test

import (
	"strings"
	"sync"
	"testing"

	goflay "repro"
	"repro/internal/progs"
)

func TestPipelineEndToEnd(t *testing.T) {
	p := progs.Fig3()
	pipe, err := goflay.Open(p.Name, p.Source)
	if err != nil {
		t.Fatal(err)
	}
	if tables := pipe.Tables(); len(tables) != 1 || tables[0] != "Ingress.eth_table" {
		t.Fatalf("tables = %v", tables)
	}
	// Empty config: the table vanishes from the specialized program.
	if strings.Contains(pipe.SpecializedSource(), "eth_table") {
		t.Fatal("empty table should be specialized away")
	}
	d := pipe.Apply(&goflay.Update{
		Kind:  goflay.InsertEntry,
		Table: "Ingress.eth_table",
		Entry: &goflay.TableEntry{
			Matches: []goflay.FieldMatch{{
				Kind:  goflay.MatchTernary,
				Value: goflay.NewBV(48, 0x2),
				Mask:  goflay.NewBV2(48, 0, 0xFFFFFFFFFFFF),
			}},
			Action: "set",
			Params: []goflay.BV{goflay.NewBV(16, 0x900)},
		},
	})
	if d.Kind != goflay.Recompile {
		t.Fatalf("decision = %v", d)
	}
	if pipe.Entries("Ingress.eth_table") != 1 {
		t.Fatal("entry not installed")
	}
	rep, err := pipe.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stages < 1 || !rep.Feasible {
		t.Fatalf("compile report: %s", rep)
	}
	full, err := pipe.CompileOriginal()
	if err != nil {
		t.Fatal(err)
	}
	if full.Tables < rep.Tables {
		t.Fatalf("original should have at least as many tables: %d vs %d", full.Tables, rep.Tables)
	}
	stats := pipe.Statistics()
	if stats.Updates != 1 || stats.Recompilations != 1 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := goflay.Open("bad", "control C {"); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := goflay.Open("bad", `
struct metadata { flub x; }
control C(inout metadata meta, inout standard_metadata_t std) { apply { } }
`); err == nil {
		t.Fatal("expected type error")
	}
}

func TestApplyAllAndRejection(t *testing.T) {
	p := progs.Fig5()
	pipe, err := goflay.Open(p.Name, p.Source)
	if err != nil {
		t.Fatal(err)
	}
	good := progs.Fig5Entry()
	bad := &goflay.Update{Kind: goflay.InsertEntry, Table: "Ingress.ghost"}
	ds := pipe.ApplyAll([]*goflay.Update{good, bad})
	if ds[0].Kind == goflay.Rejected || ds[1].Kind != goflay.Rejected {
		t.Fatalf("decisions: %v, %v", ds[0], ds[1])
	}
	if !strings.Contains(pipe.OriginalSource(), "port_table") {
		t.Fatal("original source must keep the table")
	}
}

// TestPipelineConcurrentUse drives one Pipeline from several
// goroutines at once — an updater streaming batches while monitors
// read statistics and render the specialized program — the deployment
// shape the RWMutex-guarded engine exists for. Run under -race.
func TestPipelineConcurrentUse(t *testing.T) {
	p := progs.Fig3()
	pipe, err := goflay.Open(p.Name, p.Source)
	if err != nil {
		t.Fatal(err)
	}
	entry := func(i int) *goflay.Update {
		return &goflay.Update{
			Kind:  goflay.InsertEntry,
			Table: "Ingress.eth_table",
			Entry: &goflay.TableEntry{
				Matches: []goflay.FieldMatch{{
					Kind:  goflay.MatchTernary,
					Value: goflay.NewBV(48, uint64(0x100+i)),
					Mask:  goflay.NewBV2(48, 0, 0xFFFFFFFFFFFF),
				}},
				Action: "set",
				Params: []goflay.BV{goflay.NewBV(16, uint64(i))},
			},
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := pipe.Statistics()
				if st.Forwarded+st.Recompilations+st.Rejected != st.Updates {
					t.Errorf("torn stats read: %+v", st)
					return
				}
				pipe.SpecializedSource()
			}
		}()
	}
	const batches, perBatch = 10, 8
	for b := 0; b < batches; b++ {
		var batch []*goflay.Update
		for i := 0; i < perBatch; i++ {
			batch = append(batch, entry(b*perBatch+i))
		}
		for _, d := range pipe.ApplyBatch(batch) {
			if d.Kind == goflay.Rejected {
				t.Errorf("unexpected rejection: %s", d)
			}
		}
	}
	close(stop)
	wg.Wait()
	st := pipe.Statistics()
	if st.Updates != batches*perBatch || st.Batches != batches {
		t.Fatalf("stats after concurrent run: %+v", st)
	}
}

func TestDeviceProfile(t *testing.T) {
	dev := goflay.Device()
	if dev.Stages != 20 || dev.PHVBits == 0 {
		t.Fatalf("unexpected device profile %+v", dev)
	}
}

// Spine suite: what the engine relies on once a precise table's ite
// chain is kept between compiles (controlplane chain.go) and match-kind
// narrowing is answered from counts instead of a scan. The pointer
// equality of spine and from-scratch build is controlplane's own test
// (TestChainMatchesFreshBuild); here are the engine-side consequences:
// counted work per write, arena sweeps at the worst moments, and the
// read-lock differential check beside a writer.
package core_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/sym"
)

// widened returns an entry that covers e from a higher priority: the
// same values under wider masks — a ternary mask cleared, a prefix cut,
// an optional omitted, each with probability one half — so installing
// it eclipses e and deleting it frees e again.
func widened(r *rand.Rand, e *controlplane.TableEntry) *controlplane.TableEntry {
	w := &controlplane.TableEntry{
		Priority: e.Priority + 1000,
		Matches:  slices.Clone(e.Matches),
		Action:   e.Action,
		Params:   e.Params,
	}
	for i := range w.Matches {
		m := &w.Matches[i]
		if r.Intn(2) == 0 {
			continue
		}
		switch m.Kind {
		case controlplane.MatchTernary:
			m.Mask = sym.BV{W: m.Mask.W}
		case controlplane.MatchLPM:
			m.PrefixLen /= 2
		case controlplane.MatchOptional:
			m.Wildcard = true
		}
	}
	return w
}

// TestIdealMatchKindsMatchScan holds the counted answer to the scan it
// replaced, on every table of the catalog, after every write of a
// random sequence of inserts, covering inserts (which eclipse), modifies
// and deletes (which free what a cover eclipsed).
func TestIdealMatchKindsMatchScan(t *testing.T) {
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			s := loadEngine(t, p)
			defer s.Close()
			gen := fuzz.New(s.An, 11)
			r := rand.New(rand.NewSource(11))
			for _, table := range s.An.TableOrder {
				var live []*controlplane.TableEntry
				for step := 0; step < 48; step++ {
					u := &controlplane.Update{Kind: controlplane.InsertEntry, Table: table}
					switch roll := r.Intn(10); {
					case roll < 3 && len(live) > 0:
						u.Entry = widened(r, live[r.Intn(len(live))])
					case roll < 5 && len(live) > 0:
						u.Kind = controlplane.ModifyEntry
						u.Entry = live[r.Intn(len(live))]
					case roll < 8 && len(live) > 0:
						u.Kind = controlplane.DeleteEntry
						i := r.Intn(len(live))
						u.Entry = live[i]
						live = slices.Delete(live, i, i+1)
					default:
						e, err := gen.Entry(table)
						if err != nil {
							t.Fatal(err)
						}
						u.Entry = e
					}
					d := s.Apply(u)
					if d.Kind == core.Rejected {
						if u.Kind != controlplane.InsertEntry {
							t.Fatalf("%s step %d: %s rejected: %v", table, step, u, d.Err)
						}
						continue // the same cover drawn twice
					}
					if u.Kind == controlplane.InsertEntry {
						live = append(live, u.Entry)
					}
					if got, want := core.IdealMatchKinds(s, table), core.ScanMatchKinds(s, table); !slices.Equal(got, want) {
						active, eclipsed := s.Cfg.ActiveEntries(table)
						t.Fatalf("%s step %d after %s (%d active, %d eclipsed): counted kinds %v, scan %v",
							table, step, u, len(active), eclipsed, got, want)
					}
				}
			}
		})
	}
}

// aclProbe is an ACL entry outside MiddleblockACLEntry's value ranges,
// at the given priority.
func aclProbe(kind controlplane.UpdateKind, priority int) *controlplane.Update {
	u := progs.MiddleblockACLEntry(1 << 20)
	u.Kind = kind
	u.Entry.Priority = priority
	return u
}

// TestHeadWriteRebuildsOneLink counts the work of one precise ACL write
// at 150 and at 4500 installed entries (priorities 10+i): an insert
// above every installed entry rebuilds one link and deleting it none,
// and both intern the same number of nodes at either size; an insert
// below every installed entry rebuilds all of them.
func TestHeadWriteRebuildsOneLink(t *testing.T) {
	const aclTable = "Ingress.acl_pre_ingress"
	var headNodes []int
	for _, n := range []int{150, 4500} {
		reg := obs.NewRegistry()
		opts := preciseOpts()
		opts.Metrics = reg
		s, err := progs.Middleblock().LoadWith(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		load := make([]*controlplane.Update, n)
		for i := range load {
			load[i] = progs.MiddleblockACLEntry(i)
		}
		install(t, s, load)
		rebuilt, links := reg.Counter("cp.chain_links_rebuilt"), reg.Gauge("cp.chain_links")
		if got := links.Value(); got != int64(n) {
			t.Fatalf("%d entries: cp.chain_links = %d", n, got)
		}
		apply := func(u *controlplane.Update) (linksRebuilt int64, nodes int) {
			t.Helper()
			r0, n0 := rebuilt.Value(), s.An.Builder.NumNodes()
			if d := s.Apply(u); d.Kind != core.Forward {
				t.Fatalf("%d entries: %s: %s %v", n, u, d.Kind, d.Err)
			}
			return rebuilt.Value() - r0, s.An.Builder.NumNodes() - n0
		}

		r, nodes := apply(aclProbe(controlplane.InsertEntry, 10+n))
		if r != 1 {
			t.Fatalf("%d entries: head insert rebuilt %d links, want 1", n, r)
		}
		headNodes = append(headNodes, nodes)
		if got := links.Value(); got != int64(n+1) {
			t.Fatalf("%d entries: cp.chain_links = %d after a head insert", n, got)
		}
		if r, nodes = apply(aclProbe(controlplane.DeleteEntry, 10+n)); r != 0 || nodes != 0 {
			t.Fatalf("%d entries: head delete rebuilt %d links and interned %d nodes, want 0 and 0", n, r, nodes)
		}
		if r, _ = apply(aclProbe(controlplane.InsertEntry, 1)); r != int64(n+1) {
			t.Fatalf("%d entries: tail insert rebuilt %d links, want all %d", n, r, n+1)
		}
	}
	if headNodes[0] != headNodes[1] || headNodes[0] == 0 {
		t.Fatalf("a head insert interned %d nodes at 150 entries and %d at 4500, want the same", headNodes[0], headNodes[1])
	}
}

// TestSpineSurvivesForcedSweeps replays one update stream, with every
// table degraded and promoted along the way, through two engines: one
// left to sweep its arena when the trigger says so, one swept after
// every single call — batches that leave several writes between two
// compiles of a table, degrades (which drop a spine), differential
// checks (which build a private one) and promotions (which build it
// anew). Sweeps must not be observable: same decisions, same end state,
// every residue pointer the swept engine kept still the one a fresh
// substitution yields, and every expression its spines hold an arena
// root by name.
func TestSpineSurvivesForcedSweeps(t *testing.T) {
	for _, name := range []string{"middleblock", "scion", "nat44"} {
		p, err := progs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			open := func() *core.Specializer {
				s, err := p.LoadWith(preciseOpts())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Close)
				return s
			}
			calm, swept := open(), open()
			stream, err := fuzz.New(calm.An, 5).Stream(240)
			if err != nil {
				t.Fatal(err)
			}
			both := func(step int, call func(s *core.Specializer) error) {
				t.Helper()
				for _, s := range []*core.Specializer{calm, swept} {
					if err := call(s); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				core.ForceArenaSweep(swept)
			}
			tables := calm.An.TableOrder
			for i := 0; i < len(stream); {
				// One to four updates per call: a batch leaves several
				// writes between two compiles of a table.
				n := min(1+i%4, len(stream)-i)
				batch := stream[i : i+n]
				var got [2][]*core.Decision
				for k, s := range []*core.Specializer{calm, swept} {
					got[k] = s.ApplyBatch(batch)
				}
				core.ForceArenaSweep(swept)
				for j := range batch {
					if got[0][j].Kind != got[1][j].Kind {
						t.Fatalf("update %d (%s): %s without sweeps, %s with", i+j, batch[j], got[0][j].Kind, got[1][j].Kind)
					}
				}
				i += n
				switch table := tables[i%len(tables)]; i % 7 {
				case 0:
					both(i, func(s *core.Specializer) error { return s.Degrade(table) })
				case 3:
					both(i, func(s *core.Specializer) error {
						if _, unsound, err := s.DifferentialCheck(); err != nil || unsound != 0 {
							t.Fatalf("step %d: differential check: %d unsound, %v", i, unsound, err)
						}
						_, err := s.PromoteAll()
						return err
					})
				}
			}
			both(len(stream), func(s *core.Specializer) error {
				_, err := s.PromoteAll()
				return err
			})
			sameEndState(t, calm, swept)
			if err := core.CheckAgainstPerPointSubst(swept); err != nil {
				t.Fatal(err)
			}
			if err := core.CheckSpinesRooted(swept); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDifferentialCheckBesideWriter runs the read-lock differential
// check from several goroutines while a writer keeps inserting into and
// deleting from the degraded table and a precise one. The check compiles
// the degraded table precisely on every call and must do so without
// writing any state the other readers or the configuration share — the
// race detector is the judge (make race runs this at -count=3).
func TestDifferentialCheckBesideWriter(t *testing.T) {
	p := progs.Middleblock()
	s, err := p.LoadWith(preciseOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const aclTable = "Ingress.acl_pre_ingress"
	for i := 0; i < 40; i++ {
		s.Apply(progs.MiddleblockACLEntry(i))
	}
	if err := s.Degrade(aclTable); err != nil {
		t.Fatal(err)
	}
	other, err := fuzz.New(s.An, 3).Updates("Ingress.ipv4_table", 64)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, unsound, err := s.DifferentialCheck(); err != nil || unsound != 0 {
					t.Errorf("differential check beside a writer: %d unsound, %v", unsound, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 64; i++ {
		for _, u := range []*controlplane.Update{progs.MiddleblockACLEntry(40 + i), other[i]} {
			if d := s.Apply(u); d.Kind == core.Rejected {
				t.Errorf("%s rejected: %v", u, d.Err)
			}
		}
		if i%8 == 7 {
			del := *progs.MiddleblockACLEntry(40 + i)
			del.Kind = controlplane.DeleteEntry
			s.Apply(&del)
		}
	}
	close(stop)
	readers.Wait()
	if unsound, err := s.PromoteAll(); err != nil || unsound != 0 {
		t.Fatalf("PromoteAll: %d unsound, %v", unsound, err)
	}
}

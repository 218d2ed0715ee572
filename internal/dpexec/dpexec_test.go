package dpexec_test

import (
	"math/rand"
	"testing"

	"repro/internal/bmv2"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/dpexec"
	"repro/internal/p4/ast"
	"repro/internal/p4/parser"
	"repro/internal/p4/typecheck"
	"repro/internal/progs"
	"repro/internal/sym"
)

func build(t *testing.T, src string) (*ast.Program, *typecheck.Info) {
	t.Helper()
	prog, err := parser.Parse("test", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := typecheck.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, info
}

// diff runs the same packets through the compiled image and the
// reference interpreter and requires identical observable results.
func diff(t *testing.T, prog *ast.Program, info *typecheck.Info, cfg *controlplane.Config, packets int, gen func() ([]byte, uint16)) {
	t.Helper()
	img, err := dpexec.Compile(prog, info, cfg)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, ast.Print(prog))
	}
	in := bmv2.New(prog, info, cfg)
	m := dpexec.NewMachine()
	for i := 0; i < packets; i++ {
		data, port := gen()
		want, err1 := in.Run(bmv2.Packet{Data: data, IngressPort: port})
		got, err2 := m.Run(img, data, port)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("packet %x: error divergence: bmv2=%v dpexec=%v", data, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !got.Equal(dpexec.Result{Dropped: want.Dropped, EgressPort: want.EgressPort, McastGrp: want.McastGrp, Emitted: want.Emitted}) {
			t.Fatalf("packet %x port %d:\nbmv2:   %+v\ndpexec: %+v\nprogram:\n%s",
				data, port, want, got, ast.Print(prog))
		}
	}
}

// TestDifferentialCatalog is the core equivalence property: for every
// catalog program under its representative configuration, the compiled
// image is packet-for-packet identical to the reference interpreter —
// on the original program and on the current specialized program.
func TestDifferentialCatalog(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, p := range progs.Catalog() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			s, err := p.Load()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := p.ApplyRepresentative(s); err != nil {
				t.Fatal(err)
			}
			gen := func() ([]byte, uint16) {
				data := make([]byte, r.Intn(96))
				r.Read(data)
				return data, uint16(r.Intn(1024))
			}
			diff(t, s.Prog, s.Info, s.Cfg, 150, gen)

			spec := s.SpecializedProgram()
			specInfo, err := typecheck.Check(spec)
			if err != nil {
				t.Fatalf("specialized program fails typecheck: %v", err)
			}
			diff(t, spec, specInfo, s.Cfg, 150, gen)
		})
	}
}

// TestDifferentialRouterChurn drives random LPM churn and checks
// equivalence at every step, exercising the incremental rebuild path
// against a from-scratch reference.
func TestDifferentialRouterChurn(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s, err := core.NewFromSource("router", routerSrc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gen := func() ([]byte, uint16) {
		data := ipv4Packet(uint64(r.Int63())&0xFFFFFFFFFFFF, byte(r.Intn(256)), r.Uint32())
		if r.Intn(4) == 0 {
			data[12], data[13] = byte(r.Intn(256)), byte(r.Intn(256))
		}
		if r.Intn(6) == 0 {
			data = data[:r.Intn(len(data))]
		}
		return data, uint16(r.Intn(512))
	}
	img, err := dpexec.Compile(s.Prog, s.Info, s.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 30; step++ {
		var u *controlplane.Update
		if r.Intn(4) == 0 {
			u = &controlplane.Update{
				Kind: controlplane.SetDefault, Table: "Ingress.route",
				Default: controlplane.ActionCall{Name: []string{"drop", "NoAction"}[r.Intn(2)]},
			}
		} else {
			action, params := "fwd", []sym.BV{sym.NewBV(9, uint64(r.Intn(512)))}
			if r.Intn(4) == 0 {
				action, params = "drop", nil
			}
			u = &controlplane.Update{
				Kind: controlplane.InsertEntry, Table: "Ingress.route",
				Entry: &controlplane.TableEntry{
					Matches: []controlplane.FieldMatch{{
						Kind:      controlplane.MatchLPM,
						Value:     sym.NewBV(32, uint64(r.Uint32())),
						PrefixLen: r.Intn(33),
					}},
					Action: action, Params: params,
				},
			}
		}
		if d := s.Apply(u); d.Kind == core.Rejected {
			continue
		}
		// Incremental image must stay equivalent...
		ni, err := img.WithTarget(s.Cfg, u.Target())
		if err != nil {
			t.Fatalf("step %d: rebuild: %v", step, err)
		}
		img = ni
		// ...and hash-identical to a from-scratch compile.
		full, err := dpexec.Compile(s.Prog, s.Info, s.Cfg)
		if err != nil {
			t.Fatalf("step %d: compile: %v", step, err)
		}
		if img.Hash() != full.Hash() {
			t.Fatalf("step %d: incremental hash %x != full hash %x", step, img.Hash(), full.Hash())
		}
		in := bmv2.New(s.Prog, s.Info, s.Cfg)
		m := dpexec.NewMachine()
		for i := 0; i < 25; i++ {
			data, port := gen()
			want, err1 := in.Run(bmv2.Packet{Data: data, IngressPort: port})
			got, err2 := m.Run(img, data, port)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("step %d packet %x: error divergence: %v vs %v", step, data, err1, err2)
			}
			if err1 == nil && !got.Equal(dpexec.Result{Dropped: want.Dropped, EgressPort: want.EgressPort, McastGrp: want.McastGrp, Emitted: want.Emitted}) {
				t.Fatalf("step %d packet %x:\nbmv2:   %+v\ndpexec: %+v", step, data, want, got)
			}
		}
	}
}

// TestTableRebuildCompilesOnlyNewEntries walks a ternary table through
// every way an entry can enter or leave the active list — insert,
// modify, delete, eclipsed by a wildcard row, freed again when it goes —
// and counts the action blocks each rebuild compiles: one per entry new
// to the list, none for what the predecessor already held. Every step
// must also hash like a from-scratch compile.
func TestTableRebuildCompilesOnlyNewEntries(t *testing.T) {
	s, err := progs.Fig3().Load()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const table = "Ingress.eth_table"
	entry := func(prio int, key, mask uint64, action string, params ...sym.BV) *controlplane.TableEntry {
		return &controlplane.TableEntry{
			Priority: prio,
			Matches: []controlplane.FieldMatch{{
				Kind: controlplane.MatchTernary, Value: sym.NewBV(48, key), Mask: sym.NewBV(48, mask),
			}},
			Action: action, Params: params,
		}
	}
	const exact = 0xFFFFFFFFFFFF
	img, err := dpexec.Compile(s.Prog, s.Info, s.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		name  string
		kind  controlplane.UpdateKind
		entry *controlplane.TableEntry
		want  int
	}{
		{"insert a", controlplane.InsertEntry, entry(1, 1, exact, "drop"), 1},
		{"insert c", controlplane.InsertEntry, entry(1, 3, exact, "drop"), 1},
		{"insert b ahead of both", controlplane.InsertEntry, entry(2, 2, exact, "drop"), 1},
		{"modify c", controlplane.ModifyEntry, entry(1, 3, exact, "set", sym.NewBV(16, 0x800)), 1},
		{"modify c again", controlplane.ModifyEntry, entry(1, 3, exact, "noop"), 1},
		{"delete a", controlplane.DeleteEntry, entry(1, 1, exact, "drop"), 0},
		{"wildcard row eclipses b and c", controlplane.InsertEntry, entry(9, 0, 0, "drop"), 1},
		{"insert under the wildcard row", controlplane.InsertEntry, entry(1, 4, exact, "drop"), 0},
		{"wildcard row goes: b, c and d are back", controlplane.DeleteEntry, entry(9, 0, 0, "drop"), 3},
	} {
		u := &controlplane.Update{Kind: step.kind, Table: table, Entry: step.entry}
		if d := s.Apply(u); d.Kind == core.Rejected {
			t.Fatalf("%s: rejected: %v", step.name, d.Err)
		}
		if img, err = img.WithTarget(s.Cfg, table); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if got := img.BlocksCompiled(); got != step.want {
			t.Errorf("%s: compiled %d entry blocks, want %d", step.name, got, step.want)
		}
		full, err := dpexec.Compile(s.Prog, s.Info, s.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		if img.Hash() != full.Hash() {
			t.Fatalf("%s: incremental hash %x != full hash %x", step.name, img.Hash(), full.Hash())
		}
	}
	again, err := img.WithTarget(s.Cfg, table)
	if err != nil {
		t.Fatal(err)
	}
	if again.BlocksCompiled() != 0 || again.Hash() != img.Hash() {
		t.Fatalf("rebuilding an unchanged table compiled %d blocks (hash %x, was %x)",
			again.BlocksCompiled(), again.Hash(), img.Hash())
	}
}

// TestHashParityCatalog: for each catalog program, chaining WithTarget
// over the representative updates hashes identically to one full
// compile of the final configuration.
func TestHashParityCatalog(t *testing.T) {
	for _, p := range progs.Catalog() {
		p := p
		if p.Representative == nil {
			continue
		}
		t.Run(p.Name, func(t *testing.T) {
			s, err := p.Load()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			img, err := dpexec.Compile(s.Prog, s.Info, s.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range p.Representative() {
				if d := s.Apply(u); d.Kind == core.Rejected {
					t.Fatalf("representative update rejected: %v", d.Err)
				}
				if img, err = img.WithTarget(s.Cfg, u.Target()); err != nil {
					t.Fatal(err)
				}
			}
			full, err := dpexec.Compile(s.Prog, s.Info, s.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			if img.Hash() != full.Hash() {
				t.Fatalf("incremental %x != full %x", img.Hash(), full.Hash())
			}
		})
	}
}

// TestZeroAllocRun: steady-state packet execution must not allocate.
func TestZeroAllocRun(t *testing.T) {
	prog, info := build(t, routerSrc)
	s, err := core.NewFromSource("router", routerSrc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		d := s.Apply(&controlplane.Update{
			Kind: controlplane.InsertEntry, Table: "Ingress.route",
			Entry: &controlplane.TableEntry{
				Matches: []controlplane.FieldMatch{{
					Kind: controlplane.MatchLPM, Value: sym.NewBV(32, uint64(0x0a000000+i<<16)), PrefixLen: 16,
				}},
				Action: "fwd", Params: []sym.BV{sym.NewBV(9, uint64(i+1))},
			},
		})
		if d.Kind == core.Rejected {
			t.Fatal(d.Err)
		}
	}
	img, err := dpexec.Compile(prog, info, s.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := dpexec.NewMachine()
	pkt := ipv4Packet(0xAABBCCDDEEFF, 64, 0x0a030201)
	if _, err := m.Run(img, pkt, 3); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.Run(img, pkt, 3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Run allocates %v times per packet, want 0", allocs)
	}
}

// TestRegisterSemantics: register state persists across packets within
// one image and resets when the machine attaches to a new image.
func TestRegisterSemantics(t *testing.T) {
	src := `
header h_t { bit<8> v; }
struct headers { h_t h; }
struct metadata { }
parser P(packet_in pkt, out headers hdr, inout metadata meta, inout standard_metadata_t std) {
    state start { pkt.extract(hdr.h); transition accept; }
}
control C(inout headers hdr, inout metadata meta, inout standard_metadata_t std) {
    register<bit<9>>(4) seen;
    apply {
        bit<9> prev;
        seen.read(prev, 32w0);
        std.egress_port = prev;
        seen.write(32w0, prev + 9w1);
    }
}
`
	prog, info := build(t, src)
	img, err := dpexec.Compile(prog, info, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := dpexec.NewMachine()
	for want := 0; want < 3; want++ {
		res, err := m.Run(img, []byte{0xFF}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.EgressPort != uint64(want) {
			t.Fatalf("packet %d: egress %d, want %d", want, res.EgressPort, want)
		}
	}
	// A hot-swap resets register state to the new image's fill.
	m2 := dpexec.NewMachine()
	res, err := m2.Run(img, []byte{0xFF}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.EgressPort != 0 {
		t.Fatalf("fresh machine sees register %d, want 0", res.EgressPort)
	}
}

// TestParserNonTermination: a looping parser must trap at the same
// step budget as the reference interpreter, not hang.
func TestParserNonTermination(t *testing.T) {
	prog, info := build(t, `
header h_t { bit<8> v; }
struct headers { h_t h; }
struct metadata { }
parser P(packet_in pkt, out headers hdr, inout metadata meta, inout standard_metadata_t std) {
    state start { transition spin; }
    state spin { transition spin; }
}
control C(inout headers hdr, inout metadata meta, inout standard_metadata_t std) {
    apply { std.egress_port = 9w1; }
}
`)
	img, err := dpexec.Compile(prog, info, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := dpexec.NewMachine()
	_, derr := m.Run(img, []byte{0xAB}, 0)
	in := bmv2.New(prog, info, nil)
	_, berr := in.Run(bmv2.Packet{Data: []byte{0xAB}})
	if derr == nil || berr == nil {
		t.Fatalf("expected both engines to trap: dpexec=%v bmv2=%v", derr, berr)
	}
}

// routerSrc mirrors the bmv2 test router for cross-checking.
const routerSrc = `
header ethernet_t { bit<48> dst; bit<48> src; bit<16> type; }
header ipv4_t { bit<8> ttl; bit<8> proto; bit<32> src; bit<32> dst; }
struct headers { ethernet_t eth; ipv4_t ipv4; }
struct metadata { }
parser P(packet_in pkt, out headers hdr, inout metadata meta, inout standard_metadata_t std) {
    state start {
        pkt.extract(hdr.eth);
        transition select(hdr.eth.type) {
            16w0x0800: parse_ipv4;
            default: accept;
        }
    }
    state parse_ipv4 {
        pkt.extract(hdr.ipv4);
        transition accept;
    }
}
control Ingress(inout headers hdr, inout metadata meta, inout standard_metadata_t std) {
    action fwd(bit<9> port) {
        std.egress_port = port;
        hdr.ipv4.ttl = hdr.ipv4.ttl - 8w1;
    }
    action drop() { mark_to_drop(std); }
    table route {
        key = { hdr.ipv4.dst: lpm; }
        actions = { fwd; drop; NoAction; }
        default_action = drop;
    }
    apply {
        if (hdr.ipv4.isValid()) {
            route.apply();
        }
    }
}
`

func ipv4Packet(ethDst uint64, ttl byte, dst uint32) []byte {
	var buf []byte
	for i := 5; i >= 0; i-- {
		buf = append(buf, byte(ethDst>>(8*i)))
	}
	buf = append(buf, 0, 0, 0, 0, 0, 0)
	buf = append(buf, 0x08, 0x00)
	buf = append(buf, ttl, 6)
	buf = append(buf, 1, 2, 3, 4)
	buf = append(buf, byte(dst>>24), byte(dst>>16), byte(dst>>8), byte(dst))
	return buf
}

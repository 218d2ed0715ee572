package core

import (
	"strings"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/p4/ast"
	"repro/internal/p4/parser"
	"repro/internal/p4/typecheck"
	"repro/internal/sym"
)

// fig3Src is the paper's Fig. 3 program (left side).
const fig3Src = `
header ethernet_t {
    bit<48> dst;
    bit<48> src;
    bit<16> type;
}
struct headers { ethernet_t eth; }
struct metadata { }
parser MyParser(packet_in pkt, out headers hdr, inout metadata meta, inout standard_metadata_t std) {
    state start {
        pkt.extract(hdr.eth);
        transition accept;
    }
}
control Ingress(inout headers hdr, inout metadata meta, inout standard_metadata_t std) {
    action set(bit<16> type) {
        hdr.eth.type = type;
    }
    action drop() {
        mark_to_drop(std);
    }
    action noop() { }
    table eth_table {
        key = { hdr.eth.dst: ternary; }
        actions = { set; drop; noop; }
        default_action = noop;
        size = 1024;
    }
    apply {
        eth_table.apply();
        std.egress_port = 9w1;
    }
}
`

const tbl = "Ingress.eth_table"

// gateSrc is the smallest program in which a write to one table flips
// a point of another: second is reachable only while gate holds an
// entry, and what it does when reached — its default action drops — is
// something the empty-gate specialization has removed.
const gateSrc = `
header probe_t {
    bit<8> k;
}
struct headers { probe_t h; }
struct metadata { bit<1> flag; }
parser MyParser(packet_in pkt, out headers hdr, inout metadata meta, inout standard_metadata_t std) {
    state start {
        pkt.extract(hdr.h);
        transition accept;
    }
}
control Ingress(inout headers hdr, inout metadata meta, inout standard_metadata_t std) {
    action raise() {
        meta.flag = 1w1;
    }
    action drop() {
        mark_to_drop(std);
    }
    action noop() { }
    table gate {
        key = { hdr.h.k: exact; }
        actions = { raise; noop; }
        default_action = noop;
    }
    table second {
        key = { hdr.h.k: exact; }
        actions = { drop; noop; }
        default_action = drop;
    }
    apply {
        meta.flag = 1w0;
        gate.apply();
        if (meta.flag == 1w1) {
            second.apply();
        }
    }
}
`

func newSpec(t *testing.T, src string, opts Options) *Specializer {
	t.Helper()
	s, err := NewFromSource("test", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ternaryEntry(key, mask uint64, action string, params ...sym.BV) *controlplane.TableEntry {
	return &controlplane.TableEntry{
		Matches: []controlplane.FieldMatch{{
			Kind: controlplane.MatchTernary, Value: sym.NewBV(48, key), Mask: sym.NewBV(48, mask),
		}},
		Action: action,
		Params: params,
	}
}

func insert(e *controlplane.TableEntry) *controlplane.Update {
	return &controlplane.Update{Kind: controlplane.InsertEntry, Table: tbl, Entry: e}
}

func del(e *controlplane.TableEntry) *controlplane.Update {
	return &controlplane.Update{Kind: controlplane.DeleteEntry, Table: tbl, Entry: e}
}

// recheck ensures a specialized program is still a valid program.
func recheck(t *testing.T, prog *ast.Program) {
	t.Helper()
	src := ast.Print(prog)
	p2, err := parser.Parse(prog.Name, src)
	if err != nil {
		t.Fatalf("specialized program does not re-parse: %v\n%s", err, src)
	}
	if _, err := typecheck.Check(p2); err != nil {
		t.Fatalf("specialized program does not typecheck: %v\n%s", err, src)
	}
}

// findTable returns the table decl in the (specialized) program, or nil.
func findTable(prog *ast.Program, control, name string) *ast.Table {
	cd := prog.Control(control)
	if cd == nil {
		return nil
	}
	return cd.Table(name)
}

// TestFig3Evolution replays the paper's Fig. 3 update sequence and
// checks both the Forward/Recompile decisions and the specialized
// implementations A→D.
func TestFig3Evolution(t *testing.T) {
	s := newSpec(t, fig3Src, Options{})

	// (1) Initial configuration: empty table ⇒ implementation A: the
	// table is removed entirely.
	spec := s.SpecializedProgram()
	recheck(t, spec)
	if findTable(spec, "Ingress", "eth_table") != nil {
		t.Fatal("impl A: empty table should be removed")
	}
	if len(spec.Control("Ingress").Apply.Stmts) != 1 {
		t.Fatalf("impl A: apply should only keep the egress assignment:\n%s", ast.Print(spec))
	}

	// (2) Insert entry 1: [key 0x1, mask 0x0] → set(0x800). The 0-mask
	// entry matches everything, so the action can be inlined.
	e1 := ternaryEntry(0x1, 0x0, "set", sym.NewBV(16, 0x800))
	d := s.Apply(insert(e1))
	if d.Kind != Recompile {
		t.Fatalf("step 2 decision = %v", d)
	}
	spec = s.SpecializedProgram()
	recheck(t, spec)
	if findTable(spec, "Ingress", "eth_table") != nil {
		t.Fatal("step 2: table should be inlined away")
	}
	src := ast.Print(spec)
	if !strings.Contains(src, "hdr.eth.type = 16w0x800;") {
		t.Fatalf("step 2: inlined assignment missing:\n%s", src)
	}

	// (3) Replace entry 1 with [key 0x2, mask full] → set(0x900):
	// effectively an exact match; the key's match kind narrows and the
	// unused drop action disappears.
	d = s.Apply(del(e1))
	if d.Kind != Recompile {
		t.Fatalf("step 3 delete decision = %v", d)
	}
	e2 := ternaryEntry(0x2, 0xFFFFFFFFFFFF, "set", sym.NewBV(16, 0x900))
	d = s.Apply(insert(e2))
	if d.Kind != Recompile {
		t.Fatalf("step 3 insert decision = %v", d)
	}
	spec = s.SpecializedProgram()
	recheck(t, spec)
	tb := findTable(spec, "Ingress", "eth_table")
	if tb == nil {
		t.Fatalf("step 3: table should exist:\n%s", ast.Print(spec))
	}
	if tb.Keys[0].Match != ast.MatchExact {
		t.Fatalf("step 3: match kind = %s, want exact", tb.Keys[0].Match)
	}
	if tb.HasAction("drop") {
		t.Fatal("step 3: unused drop action should be removed")
	}
	if !tb.HasAction("set") || !tb.HasAction("noop") {
		t.Fatal("step 3: live actions missing")
	}

	// (4) Insert entry 2: [key 0x5, mask 0x8] → set(0x700): the masked
	// entry forces the table back to a ternary implementation.
	d = s.Apply(insert(ternaryEntry(0x5, 0x8, "set", sym.NewBV(16, 0x700))))
	if d.Kind != Recompile {
		t.Fatalf("step 4 decision = %v", d)
	}
	if d.ImplementationChange == "" {
		t.Fatal("step 4 should report an implementation-assumption change")
	}
	spec = s.SpecializedProgram()
	recheck(t, spec)
	tb = findTable(spec, "Ingress", "eth_table")
	if tb.Keys[0].Match != ast.MatchTernary {
		t.Fatalf("step 4: match kind = %s, want ternary", tb.Keys[0].Match)
	}
	if tb.HasAction("drop") {
		t.Fatal("step 4: drop action should stay removed")
	}

	// (5) Insert entry 3: [key 0x6, mask 0x7] → set(0x200): no change
	// to the implementation — the update is forwarded.
	d = s.Apply(insert(ternaryEntry(0x6, 0x7, "set", sym.NewBV(16, 0x200))))
	if d.Kind != Forward {
		t.Fatalf("step 5 decision = %v (%s)", d.Kind, d)
	}

	stats := s.Statistics()
	if stats.Updates != 5 || stats.Forwarded != 1 || stats.Recompilations != 4 {
		t.Fatalf("stats %+v", stats)
	}
}

// TestFig2Workflow exercises the four workflow states of Fig. 2:
// update → taint → behaviour check → forward or recompile.
func TestFig2Workflow(t *testing.T) {
	s := newSpec(t, fig3Src, Options{})
	// A first entry changes behaviour (empty → configured): recompile.
	d := s.Apply(insert(ternaryEntry(0x10, 0xFFFFFFFFFFFF, "set", sym.NewBV(16, 1))))
	if d.Kind != Recompile || d.AffectedPoints == 0 {
		t.Fatalf("first update: %v", d)
	}
	for _, c := range d.Components {
		if c == tbl {
			goto ok
		}
	}
	t.Fatalf("components %v missing %s", d.Components, tbl)
ok:
	// A second, similar entry does not change the implementation:
	// forward without recompilation.
	d = s.Apply(insert(ternaryEntry(0x11, 0xFFFFFFFFFFFF, "set", sym.NewBV(16, 2))))
	if d.Kind != Forward {
		t.Fatalf("second update should forward, got %s", d)
	}
	// An entry that enables a previously-dead action changes behaviour.
	d = s.Apply(insert(ternaryEntry(0x12, 0xFFFFFFFFFFFF, "drop")))
	if d.Kind != Recompile {
		t.Fatalf("drop-enabling update should recompile, got %s", d)
	}
	// Rejected updates don't change anything.
	d = s.Apply(insert(ternaryEntry(0x12, 0xFFFFFFFFFFFF, "drop")))
	if d.Kind != Rejected {
		t.Fatalf("duplicate insert should be rejected, got %s", d)
	}
}

// TestBurstForwarding: a batch of semantics-preserving updates must all
// forward after the first recompilation (§4.2: 1000 fuzzer entries in
// the SCION IPv4 table do not require recompilation).
func TestBurstForwarding(t *testing.T) {
	s := newSpec(t, fig3Src, Options{})
	// The first entry flips the table from empty to configured, and the
	// second breaks the parameter's constant-ness; every further entry
	// preserves the implementation and must forward.
	for i := 0; i < 50; i++ {
		d := s.Apply(insert(ternaryEntry(uint64(0x100+i), 0xFFFFFFFFFFFF, "set", sym.NewBV(16, uint64(i)))))
		if i < 2 {
			if d.Kind != Recompile {
				t.Fatalf("update %d should recompile, got %s", i, d)
			}
			continue
		}
		if d.Kind != Forward {
			t.Fatalf("update %d should forward, got %s", i, d)
		}
	}
	if got := s.Statistics().Recompilations; got != 2 {
		t.Fatalf("recompilations = %d, want 2", got)
	}
}

const condSrc = `
header ipv4_t { bit<32> src; bit<32> dst; bit<8> ttl; }
header ipv6_t { bit<128> src; bit<128> dst; }
struct headers { ipv4_t ipv4; ipv6_t ipv6; }
struct metadata { bit<8> cls; }
control Ingress(inout headers hdr, inout metadata meta, inout standard_metadata_t std) {
    action set_cls(bit<8> c) { meta.cls = c; }
    action fwd(bit<9> port) { std.egress_port = port; }
    table classify {
        key = { hdr.ipv4.dst: lpm; }
        actions = { set_cls; NoAction; }
        default_action = NoAction;
    }
    table v6_route {
        key = { hdr.ipv6.dst: ternary; }
        actions = { fwd; NoAction; }
        default_action = NoAction;
    }
    apply {
        classify.apply();
        if (meta.cls == 8w1) {
            hdr.ipv4.ttl = hdr.ipv4.ttl - 8w1;
        }
        if (v6_route.apply().hit) {
            std.mcast_grp = 16w1;
        }
    }
}
`

// TestDeadBranchElimination: with no classify entries, meta.cls stays 0
// and the ttl branch is dead; configuring set_cls(1) revives it.
func TestDeadBranchElimination(t *testing.T) {
	s := newSpec(t, condSrc, Options{SkipParser: true})
	spec := s.SpecializedProgram()
	recheck(t, spec)
	src := ast.Print(spec)
	if strings.Contains(src, "hdr.ipv4.ttl =") {
		t.Fatalf("ttl branch should be eliminated with empty classify:\n%s", src)
	}
	// Both tables are empty: both should be gone.
	if findTable(spec, "Ingress", "classify") != nil || findTable(spec, "Ingress", "v6_route") != nil {
		t.Fatalf("empty tables should be removed:\n%s", src)
	}

	// Enable set_cls(1): the branch becomes reachable again.
	d := s.Apply(&controlplane.Update{
		Kind: controlplane.InsertEntry, Table: "Ingress.classify",
		Entry: &controlplane.TableEntry{
			Matches: []controlplane.FieldMatch{{
				Kind: controlplane.MatchLPM, Value: sym.NewBV(32, 0x0a000000), PrefixLen: 8,
			}},
			Action: "set_cls", Params: []sym.BV{sym.NewBV(8, 1)},
		},
	})
	if d.Kind != Recompile {
		t.Fatalf("classify update: %s", d)
	}
	spec = s.SpecializedProgram()
	recheck(t, spec)
	src = ast.Print(spec)
	if !strings.Contains(src, "hdr.ipv4.ttl =") {
		t.Fatalf("ttl branch should be live after set_cls entry:\n%s", src)
	}
	if findTable(spec, "Ingress", "classify") == nil {
		t.Fatal("classify should exist now")
	}
	// v6_route is still empty and its hit-branch dead.
	if findTable(spec, "Ingress", "v6_route") != nil {
		t.Fatalf("v6_route should still be removed:\n%s", src)
	}
	if strings.Contains(src, "std.mcast_grp =") {
		t.Fatalf("v6 hit branch should still be dead:\n%s", src)
	}
}

// TestHitConditionKeepsTable: when both branches of an apply().hit are
// live, the table must survive specialization.
func TestHitConditionKeepsTable(t *testing.T) {
	s := newSpec(t, condSrc, Options{SkipParser: true})
	d := s.Apply(&controlplane.Update{
		Kind: controlplane.InsertEntry, Table: "Ingress.v6_route",
		Entry: &controlplane.TableEntry{
			Matches: []controlplane.FieldMatch{{
				Kind: controlplane.MatchTernary, Value: sym.NewBV2(128, 0x20010db8, 0),
				Mask: sym.NewBV2(128, ^uint64(0), 0),
			}},
			Action: "fwd", Params: []sym.BV{sym.NewBV(9, 3)},
		},
	})
	if d.Kind != Recompile {
		t.Fatalf("v6 update: %s", d)
	}
	spec := s.SpecializedProgram()
	recheck(t, spec)
	if findTable(spec, "Ingress", "v6_route") == nil {
		t.Fatalf("v6_route must be kept for its hit condition:\n%s", ast.Print(spec))
	}
	if !strings.Contains(ast.Print(spec), "std.mcast_grp =") {
		t.Fatal("hit branch should be live")
	}
}

// TestValueSetSpecialization: an unconfigured PVS prunes the parser
// branch; configuring it restores the branch (§3 parser
// specializations).
func TestValueSetSpecialization(t *testing.T) {
	src := `
header ethernet_t { bit<48> dst; bit<48> src; bit<16> type; }
header mpls_t { bit<20> label; bit<12> rest; }
struct headers { ethernet_t eth; mpls_t mpls; }
struct metadata { }
parser P(packet_in pkt, out headers hdr, inout metadata meta, inout standard_metadata_t std) {
    value_set<bit<16>>(4) mpls_types;
    state start {
        pkt.extract(hdr.eth);
        transition select(hdr.eth.type) {
            mpls_types: parse_mpls;
            default: accept;
        }
    }
    state parse_mpls {
        pkt.extract(hdr.mpls);
        transition accept;
    }
}
control C(inout headers hdr, inout metadata meta, inout standard_metadata_t std) {
    apply {
        if (hdr.mpls.isValid()) {
            std.egress_port = 9w7;
        }
        if (hdr.eth.isValid()) {
            std.mcast_grp = 16w2;
        }
    }
}
`
	s := newSpec(t, src, Options{})
	spec := s.SpecializedProgram()
	recheck(t, spec)
	printed := ast.Print(spec)
	// The mpls select case must be pruned and the mpls branch dead.
	if strings.Contains(printed, "parse_mpls;") || strings.Contains(printed, "9w7") {
		t.Fatalf("unconfigured PVS should prune the mpls path:\n%s", printed)
	}

	d := s.Apply(&controlplane.Update{
		Kind: controlplane.SetValueSet, ValueSet: "P.mpls_types",
		Members: []controlplane.ValueSetMember{{Value: sym.NewBV(16, 0x8847)}},
	})
	if d.Kind != Recompile {
		t.Fatalf("PVS update: %s", d)
	}
	printed = ast.Print(s.SpecializedProgram())
	if !strings.Contains(printed, "parse_mpls") {
		t.Fatalf("configured PVS should restore the branch:\n%s", printed)
	}
}

// TestParserTailPruning: an extracted header never accessed downstream
// is reclassified as payload.
func TestParserTailPruning(t *testing.T) {
	src := `
header ethernet_t { bit<48> dst; bit<48> src; bit<16> type; }
header trailer_t { bit<32> crc; }
struct headers { ethernet_t eth; trailer_t trailer; }
struct metadata { }
parser P(packet_in pkt, out headers hdr, inout metadata meta, inout standard_metadata_t std) {
    state start {
        pkt.extract(hdr.eth);
        pkt.extract(hdr.trailer);
        transition accept;
    }
}
control C(inout headers hdr, inout metadata meta, inout standard_metadata_t std) {
    apply {
        std.egress_port = hdr.eth.dst[8:0];
    }
}
`
	s := newSpec(t, src, Options{})
	printed := ast.Print(s.SpecializedProgram())
	if strings.Contains(printed, "extract(hdr.trailer)") {
		t.Fatalf("unused trailer extract should be pruned:\n%s", printed)
	}
	if !strings.Contains(printed, "extract(hdr.eth)") {
		t.Fatalf("used eth extract must stay:\n%s", printed)
	}
}

// TestRegisterFillSpecialization: a uniform register fill turns reads
// into constants and resolves branches.
func TestRegisterFillSpecialization(t *testing.T) {
	src := `
struct metadata { bit<32> v; }
control C(inout metadata meta, inout standard_metadata_t std) {
    register<bit<32>>(8) mode;
    apply {
        mode.read(meta.v, 0);
        if (meta.v == 32w1) {
            std.egress_port = 9w5;
        }
    }
}
`
	s := newSpec(t, src, Options{})
	// Unfilled register: the branch may go either way — kept.
	printed := ast.Print(s.SpecializedProgram())
	if !strings.Contains(printed, "9w0x5") {
		t.Fatalf("branch should be live with unconstrained register:\n%s", printed)
	}
	d := s.Apply(&controlplane.Update{
		Kind: controlplane.FillRegister, Register: "C.mode", Fill: sym.NewBV(32, 0),
	})
	if d.Kind != Recompile {
		t.Fatalf("fill decision: %s", d)
	}
	printed = ast.Print(s.SpecializedProgram())
	if strings.Contains(printed, "9w0x5") {
		t.Fatalf("branch should be dead with zero-filled register:\n%s", printed)
	}
}

// TestOverapproximationRevertsVerdicts reproduces §4.1: past the
// threshold the table's selector reverts to the general model, so a
// previously-const table becomes varies — and further updates are fast
// forwards.
func TestOverapproximationRevertsVerdicts(t *testing.T) {
	s := newSpec(t, fig3Src, Options{OverapproxThreshold: 5})
	for i := 0; i < 5; i++ {
		s.Apply(insert(ternaryEntry(uint64(i), 0xFFFFFFFFFFFF, "set", sym.NewBV(16, uint64(i)))))
	}
	// The 6th entry crosses the threshold: verdicts revert to the
	// general model (drop becomes possible again → recompile once).
	d := s.Apply(insert(ternaryEntry(6, 0xFFFFFFFFFFFF, "set", sym.NewBV(16, 6))))
	if d.Kind != Recompile {
		t.Fatalf("threshold crossing: %s", d)
	}
	// Past the threshold, more entries change nothing.
	d = s.Apply(insert(ternaryEntry(7, 0xFFFFFFFFFFFF, "set", sym.NewBV(16, 7))))
	if d.Kind != Forward {
		t.Fatalf("post-threshold update: %s", d)
	}
	if d.Elapsed <= 0 {
		t.Fatal("decision must be timed")
	}
}

// TestConstantPropagationIntoAssignment reproduces Fig. 5's line-12
// specialization: with the table empty, the ternary RHS folds to the
// constant 0xAAAAAAAAAAAA.
func TestConstantPropagationIntoAssignment(t *testing.T) {
	src := `
header ethernet_t { bit<48> dst; bit<48> src; bit<16> type; }
struct headers { ethernet_t eth; }
struct metadata { }
parser MyParser(packet_in pkt, out headers h, inout metadata meta, inout standard_metadata_t std) {
    state start { pkt.extract(h.eth); transition accept; }
}
control Ingress(inout headers h, inout metadata meta, inout standard_metadata_t std) {
    bit<9> egress_port;
    action set(bit<9> port_var) { egress_port = port_var; }
    action noop() { }
    table port_table {
        key = { h.eth.dst: exact; }
        actions = { set; noop; }
        default_action = noop;
    }
    apply {
        egress_port = 0;
        port_table.apply();
        h.eth.dst = egress_port == 0 ? 48w0xAAAAAAAAAAAA : 48w0xBBBBBBBBBBBB;
        std.egress_port = egress_port;
    }
}
`
	s := newSpec(t, src, Options{})
	printed := ast.Print(s.SpecializedProgram())
	if !strings.Contains(printed, "h.eth.dst = 48w0xaaaaaaaaaaaa;") {
		t.Fatalf("constant propagation missed:\n%s", printed)
	}
	if strings.Contains(printed, "port_table") {
		t.Fatalf("empty port_table should be removed:\n%s", printed)
	}
}

package typecheck

import (
	"strings"
	"testing"

	"repro/internal/p4/ast"
	"repro/internal/p4/parser"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse("test", src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

const goodSrc = `
typedef bit<48> mac_addr_t;
const bit<16> TYPE_IPV4 = 16w0x0800;
header ethernet_t {
    mac_addr_t dst;
    mac_addr_t src;
    bit<16> type;
}
header ipv4_t {
    bit<8> ttl;
    bit<8> proto;
    bit<16> csum;
    bit<32> src;
    bit<32> dst;
}
struct headers {
    ethernet_t eth;
    ipv4_t ipv4;
}
struct metadata {
    bit<9> nexthop;
}
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
    register<bit<32>>(64) flow_bytes;
    bit<32> tmp;
    action set_nexthop(bit<9> port) {
        meta.nexthop = port;
        std.egress_port = port;
    }
    action drop() {
        mark_to_drop(std);
    }
    table ipv4_lpm {
        key = { hdr.ipv4.dst: lpm; }
        actions = { set_nexthop; drop; NoAction; }
        default_action = NoAction;
        size = 1024;
    }
    apply {
        if (hdr.ipv4.isValid()) {
            if (ipv4_lpm.apply().hit) {
                hdr.ipv4.ttl = hdr.ipv4.ttl - 1;
            }
            flow_bytes.read(tmp, 0);
            tmp = tmp + std.packet_length;
            flow_bytes.write(0, tmp);
            hdr.ipv4.csum = checksum16(hdr.ipv4.src, hdr.ipv4.dst, 16w0 ++ hdr.ipv4.ttl ++ hdr.ipv4.proto);
        } else {
            drop();
        }
    }
}
`

func TestCheckGoodProgram(t *testing.T) {
	prog := mustParse(t, goodSrc)
	// Direct action calls from apply are not supported in our subset:
	// replace drop() call with mark_to_drop? The goodSrc uses drop();
	// adjust expectations accordingly.
	info, err := Check(prog)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if info.HeaderBits["ethernet_t"] != 112 {
		t.Fatalf("ethernet bits = %d", info.HeaderBits["ethernet_t"])
	}
	if v, ok := info.Consts["TYPE_IPV4"]; !ok || v.Lo != 0x800 || v.Width != 16 {
		t.Fatalf("const TYPE_IPV4 = %+v", v)
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct{ name, src, wantSub string }{
		{"unknown type", `
struct metadata { flub x; }
control C(inout metadata meta, inout standard_metadata_t std) { apply { } }`, "unknown type"},
		{"unknown field", `
struct metadata { bit<8> a; }
control C(inout metadata meta, inout standard_metadata_t std) {
  apply { meta.b = 8w1; }
}`, "no field b"},
		{"width mismatch", `
struct metadata { bit<8> a; bit<16> b; }
control C(inout metadata meta, inout standard_metadata_t std) {
  apply { meta.a = meta.b; }
}`, "width mismatch"},
		{"unknown action", `
struct metadata { bit<8> a; }
control C(inout metadata meta, inout standard_metadata_t std) {
  table t { key = { meta.a: exact; } actions = { ghost; } }
  apply { t.apply(); }
}`, "unknown action"},
		{"default not listed", `
struct metadata { bit<8> a; }
control C(inout metadata meta, inout standard_metadata_t std) {
  action x() { }
  action y() { }
  table t { key = { meta.a: exact; } actions = { x; } default_action = y; }
  apply { t.apply(); }
}`, "not in the actions list"},
		{"bad transition", `
struct metadata { bit<8> a; }
parser P(packet_in pkt, inout metadata meta) {
  state start { transition nowhere; }
}`, "unknown state"},
		{"bool condition", `
struct metadata { bit<8> a; }
control C(inout metadata meta, inout standard_metadata_t std) {
  apply { if (meta.a) { meta.a = 8w1; } }
}`, "must be bool"},
		{"unsized literal", `
struct metadata { bit<8> a; bit<16> b; }
control C(inout metadata meta, inout standard_metadata_t std) {
  apply { if (1 == 2) { meta.a = 8w1; } }
}`, "cannot infer width"},
		{"literal too wide", `
struct metadata { bit<8> a; }
control C(inout metadata meta, inout standard_metadata_t std) {
  apply { meta.a = 8w256; }
}`, "does not fit"},
		{"slice out of range", `
struct metadata { bit<8> a; }
control C(inout metadata meta, inout standard_metadata_t std) {
  apply { meta.a = meta.a[8:1]; }
}`, "out of range"},
		{"unknown method", `
struct metadata { bit<8> a; }
control C(inout metadata meta, inout standard_metadata_t std) {
  apply { if (meta.isValid()) { meta.a = 8w1; } }
}`, "unknown method"},
		{"apply in action", `
struct metadata { bit<8> a; }
control C(inout metadata meta, inout standard_metadata_t std) {
  action x() { }
  table t { key = { meta.a: exact; } actions = { x; } }
  action y() { t.apply(); }
  apply { }
}`, ""},
		{"duplicate state", `
struct metadata { }
parser P(packet_in pkt, inout metadata meta) {
  state start { transition accept; }
  state start { transition accept; }
}`, "duplicate state"},
		{"no start state", `
struct metadata { }
parser P(packet_in pkt, inout metadata meta) {
  state begin { transition accept; }
}`, "no start state"},
		{"value set unknown", `
struct metadata { bit<16> a; }
parser P(packet_in pkt, inout metadata meta) {
  state start {
    transition select(meta.a) {
      ghost_set: accept;
      default: accept;
    }
  }
}`, "unknown value_set"},
		{"assign to table", `
struct metadata { bit<8> a; }
control C(inout metadata meta, inout standard_metadata_t std) {
  action x() { }
  table t { key = { meta.a: exact; } actions = { x; } }
  apply { t = 8w1; }
}`, ""},
		{"redeclaration", `
struct metadata { bit<8> a; }
control C(inout metadata meta, inout standard_metadata_t std) {
  apply {
    bit<8> v;
    bit<8> v;
  }
}`, "redeclaration"},
	}
	for _, c := range cases {
		prog := mustParse(t, c.src)
		_, err := Check(prog)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if c.wantSub != "" && !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
}

func TestStandardMetadataInjected(t *testing.T) {
	prog := mustParse(t, `
struct metadata { }
control C(inout metadata meta, inout standard_metadata_t std) {
  apply { std.egress_port = 9w3; }
}`)
	if _, err := Check(prog); err != nil {
		t.Fatalf("standard metadata not injected: %v", err)
	}
	if prog.Struct("standard_metadata_t") == nil {
		t.Fatal("struct not present after check")
	}
}

func TestFieldPath(t *testing.T) {
	prog := mustParse(t, `
header h_t { bit<8> x; }
struct headers { h_t h; }
struct metadata { }
control C(inout headers hdr, inout metadata meta, inout standard_metadata_t std) {
  apply { hdr.h.x = 8w1; }
}`)
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
	asg := prog.Controls[0].Apply.Stmts[0].(*ast.AssignStmt)
	path, ok := FieldPath(asg.LHS)
	if !ok || path != "hdr.h.x" {
		t.Fatalf("FieldPath = %q, %v", path, ok)
	}
	if _, ok := FieldPath(asg.RHS); ok {
		t.Fatal("literal should not have a field path")
	}
}

func TestUnsizedLiteralAdoption(t *testing.T) {
	prog := mustParse(t, `
struct metadata { bit<12> a; }
control C(inout metadata meta, inout standard_metadata_t std) {
  apply {
    meta.a = 7;
    if (meta.a == 0) { meta.a = meta.a + 1; }
    meta.a = meta.a == 3 ? 5 : meta.a;
  }
}`)
	info, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	asg := prog.Controls[0].Apply.Stmts[0].(*ast.AssignStmt)
	if tt := info.TypeOf(asg.RHS); tt.Kind != KBits || tt.Width != 12 {
		t.Fatalf("literal adopted %v", tt)
	}
}

// TestDeriveOverlaysCreatedNodes: a derived Info answers the created
// nodes from its own table and every shared node from the original's,
// resolves the original's type names, and leaves the original as it was.
func TestDeriveOverlaysCreatedNodes(t *testing.T) {
	prog := mustParse(t, goodSrc)
	in, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	var shared ast.Expr
	for e := range in.Types {
		if _, ok := e.(*ast.Member); ok {
			shared = e
			break
		}
	}
	rewrite := &ast.Program{Name: prog.Name + ".rewrite", Typedefs: prog.Typedefs, Consts: prog.Consts, Headers: prog.Headers, Structs: prog.Structs}
	lit := &ast.IntLit{Width: 12, Lo: 5}
	d := in.Derive(rewrite, map[ast.Expr]T{lit: {Kind: KBits, Width: 12}})
	if d.Prog != rewrite || in.Prog != prog {
		t.Fatal("Derive did not give the rewrite its own Prog, or changed the original's")
	}
	if got := d.TypeOf(lit); got != (T{Kind: KBits, Width: 12}) {
		t.Fatalf("created literal: %s, want bit<12>", got)
	}
	if got := in.TypeOf(lit); got.Kind != KInvalid {
		t.Fatalf("the original types a node it never saw as %s", got)
	}
	if got, want := d.TypeOf(shared), in.TypeOf(shared); got != want || got.Kind == KInvalid {
		t.Fatalf("shared node %s: derived %s, original %s", ast.ExprString(shared), got, want)
	}
	if got := d.Resolve(ast.Type{Kind: ast.TypeNamed, Name: "mac_addr_t"}); got != (T{Kind: KBits, Width: 48}) {
		t.Fatalf("derived Info resolves mac_addr_t as %s", got)
	}
}

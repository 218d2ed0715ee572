// Tests for the portable expression encoding (encode.go) — the form
// snapshots carry witness variables in, so it must rebuild the same
// structure in another builder and reject junk without panicking.
package sym_test

import (
	"testing"

	"repro/internal/sym"
)

// menagerie builds one named expression per structural feature the
// encoding carries: every op, const values near width boundaries, both
// variable classes, shared subtrees, and nesting.
func menagerie(b *sym.Builder) []struct {
	name string
	expr *sym.Expr
} {
	v3 := b.Data("v0", 3)
	v5 := b.Data("v1", 5)
	c48 := b.Ctrl("tbl.key", 48)
	wide := b.Data("wide", 128)
	return []struct {
		name string
		expr *sym.Expr
	}{
		{"const-zero-w1", b.Const(sym.BV{W: 1})},
		{"const-ones-w64", b.Const(sym.AllOnes(64))},
		{"const-ones-w128", b.Const(sym.AllOnes(128))},
		{"var-data-w3", v3},
		{"var-ctrl-w48", c48},
		{"not", b.Not(v3)},
		{"and", b.And(v3, b.ConstUint(3, 5))},
		{"or", b.Or(v5, b.ConstUint(5, 9))},
		{"xor", b.Xor(v3, b.ConstUint(3, 6))},
		{"add", b.Add(v5, b.ConstUint(5, 1))},
		{"sub", b.Sub(v5, b.ConstUint(5, 1))},
		{"shl", b.Shl(v5, b.ConstUint(5, 2))},
		{"lshr", b.Lshr(v5, b.ConstUint(5, 2))},
		{"concat", b.Concat(v3, v5)},
		{"extract", b.Extract(c48, 15, 0)},
		{"eq", b.Eq(v3, b.ConstUint(3, 2))},
		{"ult", b.Ult(v5, b.ConstUint(5, 30))},
		{"ite", b.Ite(b.Eq(v3, b.ConstUint(3, 2)), v5, b.ConstUint(5, 7))},
		{"shared-subtree", b.And(b.Not(v3), b.Not(v3))},
		{"nested", b.Eq(b.Extract(b.Concat(v3, v5), 6, 2), b.ConstUint(5, 3))},
		{"wide-extract", b.Extract(wide, 127, 64)},
	}
}

// TestEncodeDecodeFixpoint: decoding an encoded expression set into a
// fresh builder reproduces the same printed forms and widths, root for
// root — the property snapshots rely on to rebuild witness tables in
// another process.
func TestEncodeDecodeFixpoint(t *testing.T) {
	b := sym.NewBuilder()
	named := menagerie(b)
	roots := make([]*sym.Expr, len(named))
	for i, m := range named {
		roots[i] = m.expr
	}
	data, err := sym.EncodeExprs(roots)
	if err != nil {
		t.Fatal(err)
	}
	b2 := sym.NewBuilder()
	got, err := sym.DecodeExprs(b2, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(roots) {
		t.Fatalf("decoded %d roots, want %d", len(got), len(roots))
	}
	for i := range roots {
		if roots[i].String() != got[i].String() {
			t.Errorf("%s: printed form changed across encode/decode:\n  %s\nvs\n  %s",
				named[i].name, roots[i], got[i])
		}
		if roots[i].Width != got[i].Width {
			t.Errorf("%s: width changed across encode/decode: %d vs %d",
				named[i].name, roots[i].Width, got[i].Width)
		}
	}
	// Re-encoding the decoded roots must produce identical bytes: the
	// encoder is deterministic given structure, not builder history.
	data2, err := sym.EncodeExprs(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("encode ∘ decode ∘ encode is not a fixpoint")
	}
}

// TestDecodeExprsRejectsJunk: the decoder consumes snapshot bytes, so
// malformed input must error — never panic, never build an invalid
// node.
func TestDecodeExprsRejectsJunk(t *testing.T) {
	b := sym.NewBuilder()
	valid, err := sym.EncodeExprs([]*sym.Expr{b.And(b.Data("x", 4), b.ConstUint(4, 5))})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"truncated":      valid[:len(valid)/2],
		"one-byte":       {0x07},
		"garbage":        {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		"trailing-bytes": append(append([]byte{}, valid...), 0x01, 0x02),
	}
	for name, data := range cases {
		if _, err := sym.DecodeExprs(sym.NewBuilder(), data); err == nil {
			t.Errorf("%s: decode succeeded on malformed input", name)
		}
	}
	// Mutating single bytes must either error or still decode to valid
	// nodes (some mutations hit payload bits and stay well-formed) —
	// the invariant is no panic and no invalid widths.
	for off := range valid {
		mut := append([]byte{}, valid...)
		mut[off] ^= 0x1
		roots, err := sym.DecodeExprs(sym.NewBuilder(), mut)
		if err != nil {
			continue
		}
		for _, r := range roots {
			if r.Width == 0 || r.Width > 128 {
				t.Fatalf("byte %d mutation decoded an invalid width %d", off, r.Width)
			}
		}
	}
}

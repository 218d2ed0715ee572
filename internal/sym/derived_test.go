package sym

import (
	"math/rand"
	"strings"
	"testing"
)

// TestDerivedComparisons: Ne/Ule/Ugt/Uge/Implies agree with their
// definitions on random concrete values.
func TestDerivedComparisons(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	b := NewBuilder()
	x := b.Data("x", 16)
	y := b.Data("y", 16)
	for trial := 0; trial < 500; trial++ {
		xv := NewBV(16, uint64(r.Intn(1<<16)))
		yv := NewBV(16, uint64(r.Intn(1<<16)))
		env := Env{x: xv, y: yv}
		cases := []struct {
			name string
			e    *Expr
			want bool
		}{
			{"ne", b.Ne(x, y), xv != yv},
			{"ule", b.Ule(x, y), !yv.Ult(xv)},
			{"ugt", b.Ugt(x, y), yv.Ult(xv)},
			{"uge", b.Uge(x, y), !xv.Ult(yv)},
			{"implies", b.Implies(b.Eq(x, y), b.Ule(x, y)), true},
		}
		for _, c := range cases {
			got := MustEval(c.e, env)
			if got.IsTrue() != c.want {
				t.Fatalf("%s(%s, %s) = %v, want %v", c.name, xv, yv, got.IsTrue(), c.want)
			}
		}
	}
}

func TestEvalErrors(t *testing.T) {
	b := NewBuilder()
	x := b.Data("x", 8)
	if _, err := Eval(b.Add(x, b.ConstUint(8, 1)), nil); err == nil {
		t.Fatal("unassigned variable must error")
	}
	if _, err := Eval(x, Env{x: NewBV(16, 1)}); err == nil {
		t.Fatal("width-mismatched assignment must error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustEval should panic on error")
		}
	}()
	MustEval(x, nil)
}

func TestBuilderNodeAccounting(t *testing.T) {
	b := NewBuilder()
	n0 := b.NumNodes()
	x := b.Data("x", 8)
	_ = b.Add(x, x)
	n1 := b.NumNodes()
	_ = b.Add(x, x) // same node, no growth
	if b.NumNodes() != n1 || n1 != n0+2 {
		t.Fatalf("node accounting: %d -> %d -> %d", n0, n1, b.NumNodes())
	}
	if x.ID() >= b.Add(x, b.ConstUint(8, 1)).ID() {
		t.Fatal("ids must increase with creation order")
	}
}

// TestPrintDepthCap: very deep expressions print with an ellipsis
// instead of recursing unboundedly.
func TestPrintDepthCap(t *testing.T) {
	b := NewBuilder()
	e := b.Data("x", 8)
	one := b.ConstUint(8, 1)
	for i := 0; i < 100; i++ {
		e = b.Add(b.Xor(e, one), one)
	}
	s := e.String()
	if !strings.Contains(s, "…") {
		t.Fatalf("deep print should truncate, got %d bytes", len(s))
	}
	if len(s) > 1<<16 {
		t.Fatalf("print too large: %d bytes", len(s))
	}
}

func TestCheckWitnessHint(t *testing.T) {
	b := NewBuilder()
	s := NewSolver()
	x := b.Data("x", 8)
	e := b.Eq(x, b.ConstUint(8, 0x34))
	v, w := s.CheckWitness(e, nil)
	if v != Sat || w == nil {
		t.Fatalf("first query: %v", v)
	}
	// The returned witness must satisfy the formula and be reusable.
	if out := MustEval(e, w); !out.IsTrue() {
		t.Fatal("witness does not satisfy the formula")
	}
	v2, w2 := s.CheckWitness(e, w)
	if v2 != Sat {
		t.Fatalf("hinted query: %v", v2)
	}
	if len(w2) == 0 {
		t.Fatal("hinted query should return the hint")
	}
	// A stale hint (missing variables) is ignored gracefully.
	y := b.Data("y", 8)
	e2 := b.And(e, b.Eq(y, b.ConstUint(8, 7)))
	if v3, _ := s.CheckWitness(e2, w); v3 != Sat {
		t.Fatalf("query with stale hint: %v", v3)
	}
	// Past the exhaustive bound not even a satisfying hint is consulted:
	// Sat and Unknown are the same verdict to the engine, so the
	// evaluation would buy nothing.
	z := b.Data("z", 64)
	k := b.ConstUint(64, 0x1234)
	if v4, w4 := s.CheckWitness(b.Eq(z, k), Env{z: k.Val}); v4 != Unknown || w4 != nil {
		t.Fatalf("wide query with a satisfying hint: %v %v, want Unknown", v4, w4)
	}
}

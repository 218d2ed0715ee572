package sym

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
)

func TestSolverBasics(t *testing.T) {
	b := NewBuilder()
	s := NewSolver()
	x := b.Data("x", 8)
	y := b.Data("y", 8)

	cases := []struct {
		e    *Expr
		want Verdict
		name string
	}{
		{b.True(), Sat, "true"},
		{b.False(), Unsat, "false"},
		{b.Eq(x, b.ConstUint(8, 5)), Sat, "x==5"},
		{b.And(b.Eq(x, b.ConstUint(8, 5)), b.Eq(x, b.ConstUint(8, 6))), Unsat, "x==5 && x==6"},
		{b.And(b.Eq(x, b.ConstUint(8, 5)), b.Eq(y, b.ConstUint(8, 6))), Sat, "two vars"},
		{b.Ult(x, b.ConstUint(8, 1)), Sat, "x<1 (x=0)"},
		{b.Ne(x, x), Unsat, "x!=x"},
		{b.Or(b.Eq(x, y), b.Ne(x, y)), Sat, "tautology"},
		{b.And(b.Ult(x, b.ConstUint(8, 3)), b.Ugt(x, b.ConstUint(8, 200))), Unsat, "empty interval"},
	}
	for _, c := range cases {
		if got := s.Check(c.e); got != c.want {
			t.Errorf("%s: Check = %v, want %v (expr %s)", c.name, got, c.want, c.e)
		}
	}
}

// TestSolverNeverContradictsBruteForce: on small widths the solver's
// definite answers must agree with exhaustive enumeration.
func TestSolverNeverContradictsBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		raw := genRaw(r, 1, 3)
		b := NewBuilder()
		e := raw.build(b)
		vars := AllVars(e)
		total := 0
		for _, v := range vars {
			total += int(v.Width)
		}
		if total > 14 {
			continue // keep brute force cheap
		}
		s := NewSolver()
		got := s.Check(e)

		// Brute force.
		env := make(Env, len(vars))
		sat := false
		var rec func(i int)
		rec = func(i int) {
			if sat {
				return
			}
			if i == len(vars) {
				if out, err := Eval(e, env); err == nil && out.IsTrue() {
					sat = true
				}
				return
			}
			v := vars[i]
			for x := uint64(0); x < 1<<v.Width; x++ {
				env[v] = NewBV(v.Width, x)
				rec(i + 1)
			}
		}
		rec(0)

		switch got {
		case Sat:
			if !sat {
				t.Fatalf("trial %d: solver says Sat but formula is Unsat: %s", trial, e)
			}
		case Unsat:
			if sat {
				t.Fatalf("trial %d: solver says Unsat but formula is Sat: %s", trial, e)
			}
		}
	}
}

func TestSolverWideWidthsSatWitness(t *testing.T) {
	b := NewBuilder()
	s := NewSolver()
	// Inside the bound an equality is Sat with the witness enumeration
	// arrives at.
	port := b.Data("tcp.dport", 16)
	eq := b.Eq(port, b.ConstUint(16, 443))
	if v, w := s.CheckWitness(eq, nil); v != Sat || w[port].Uint64() != 443 {
		t.Fatalf("16-bit equality: %v with witness %v, want Sat at 443", v, w)
	}
	// Past the bound nothing is decided: a single 128-bit equality is
	// obviously satisfiable, but no search over it could ever end in a
	// proof, so the solver answers Unknown (the engine's Live) — and
	// ConstValue not-Known (the engine's Varies) — without evaluating.
	ip := b.Data("ipv6.dst", 128)
	target := b.Const(NewBV2(128, 0x20010db8, 0x1))
	if v, w := s.CheckWitness(b.Eq(ip, target), nil); v != Unknown || w != nil {
		t.Fatalf("wide equality: %v with witness %v, want Unknown and none", v, w)
	}
	if res := s.ConstValue(b.Ite(b.Eq(ip, target), b.ConstUint(8, 1), b.ConstUint(8, 2))); res.Known {
		t.Fatalf("wide constancy query decided: %+v", res)
	}
	// Contradiction at wide width must not be reported Sat: the
	// simplifier folds it, and a literal is answered before the width
	// rule.
	contra := b.And(b.Eq(ip, target), b.Ne(ip, target))
	if contra != b.False() {
		t.Fatalf("simplifier should fold the contradiction, got %s", contra)
	}
	if got := s.Check(contra); got != Unsat {
		t.Fatalf("literal false: %v", got)
	}
}

// TestWideRule pins the width rule itself: distinct variables are
// summed, a repeated variable counts once, 16 bits is inside the bound
// and 17 is past it.
func TestWideRule(t *testing.T) {
	b := NewBuilder()
	s := NewSolver()
	a8, b8, c1 := b.Data("a", 8), b.Data("b", 8), b.Data("c", 1)
	k := b.ConstUint(8, 3)
	cases := []struct {
		name string
		e    *Expr
		wide bool
	}{
		{"literal", b.True(), false},
		{"one 8-bit variable", b.Eq(a8, k), false},
		{"exactly 16 bits", b.And(b.Eq(a8, k), b.Eq(b8, k)), false},
		{"17 bits", b.And(b.And(b.Eq(a8, k), b.Eq(b8, k)), c1), true},
		{"one variable mentioned nine times", func() *Expr {
			e := b.False()
			for i := uint64(0); i < 9; i++ {
				e = b.Or(e, b.Eq(b.Add(a8, b.ConstUint(8, i)), k))
			}
			return e
		}(), false},
		{"a 17-bit variable alone", b.Eq(b.Data("w", 17), b.ConstUint(17, 1)), true},
	}
	for _, c := range cases {
		if got := s.Wide(c.e); got != c.wide {
			t.Errorf("%s: Wide = %v, want %v (%s)", c.name, got, c.wide, c.e)
		}
	}
}

// TestWideWalkStopsEarly: on an entry-match chain — ite(key==k1, a1,
// ite(key==k2, a2, ...)) — the walk meets the wide key in the first
// condition, so its cost does not depend on the chain's length, and a
// wide query evaluates nothing.
func TestWideWalkStopsEarly(t *testing.T) {
	visits := func(entries int) (nodes, evals int64) {
		b := NewBuilder()
		reg := obs.NewRegistry()
		s := NewSolver()
		s.Metrics = NewSolverMetrics(reg)
		key := b.Data("ipv4.dst", 32)
		chain := b.ConstUint(8, 0)
		for i := 0; i < entries; i++ {
			chain = b.Ite(b.Eq(key, b.ConstUint(32, uint64(0x0a000000+i))), b.ConstUint(8, uint64(1+i%3)), chain)
		}
		if res := s.ConstValue(chain); res.Known {
			t.Fatalf("%d entries: wide chain decided: %+v", entries, res)
		}
		if v, _ := s.CheckWitness(b.Eq(chain, b.ConstUint(8, 1)), nil); v != Unknown {
			t.Fatalf("%d entries: wide chain checked %v", entries, v)
		}
		snap := reg.Snapshot()
		return snap.Counters["sym.solver.width_nodes"], snap.Counters["sym.solver.evals"]
	}
	small, evalsSmall := visits(10)
	large, evalsLarge := visits(1000)
	if small != large || small > 16 {
		t.Fatalf("width walk visited %d nodes on 10 entries and %d on 1000; want the same handful", small, large)
	}
	if evalsSmall != 0 || evalsLarge != 0 {
		t.Fatalf("wide queries evaluated the residue %d and %d times", evalsSmall, evalsLarge)
	}
}

func TestConstValue(t *testing.T) {
	b := NewBuilder()
	s := NewSolver()
	x := b.Data("x", 8)

	if res := s.ConstValue(b.ConstUint(8, 9)); !res.Known || !res.IsConst || res.Val.Uint64() != 9 {
		t.Fatalf("literal: %+v", res)
	}
	if res := s.ConstValue(x); !res.Known || res.IsConst {
		t.Fatalf("bare variable should be refuted as constant: %+v", res)
	}
	if res := s.ConstValue(b.Add(x, b.ConstUint(8, 1))); !res.Known || res.IsConst {
		t.Fatalf("x+1 should be refuted: %+v", res)
	}
	// An algebraically-constant expression the smart constructors do not
	// reduce: (x >> 4) < 16 holds for every 8-bit x, so the ite always
	// yields 7. Only the exhaustive pass can certify this.
	alwaysTrue := b.Ult(b.Lshr(x, b.ConstUint(8, 4)), b.ConstUint(8, 16))
	if alwaysTrue.IsConst() {
		t.Fatal("test premise broken: simplifier folded the guard")
	}
	e := b.Ite(alwaysTrue, b.ConstUint(4, 7), b.ConstUint(4, 8))
	res := s.ConstValue(e)
	if !res.Known || !res.IsConst || res.Val.Uint64() != 7 {
		t.Fatalf("exhaustive certification failed: %+v (expr %s)", res, e)
	}
}

func TestVerdictString(t *testing.T) {
	if Unsat.String() != "unsat" || Sat.String() != "sat" || Unknown.String() != "unknown" {
		t.Fatal("verdict strings wrong")
	}
}

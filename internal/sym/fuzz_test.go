// Native fuzz targets for the symbolic layer. FuzzSolver
// differential-tests the decision procedure against brute-force
// evaluation: a stack machine synthesizes an expression over two small
// free variables from the fuzzer's byte program, and every solver
// answer (Sat witness, Unsat proof, constant-ness verdict) is checked
// against exhaustive enumeration of the 256-assignment domain.
// FuzzSolverOracle runs the same generator over variables that straddle
// the exhaustive bound and holds the solver to the probing solver it
// replaced, as the engine reads the two.
package sym_test

import (
	"math/rand"
	"testing"

	"repro/internal/sym"
)

// fuzzVarWidths keeps the brute-force domain at 2^8 assignments: small
// enough to enumerate per input, large enough that the solver's
// exhaustive path, probing and witness reuse all exercise.
var fuzzVarWidths = []uint16{3, 5}

// synthExpr runs the byte program on a tiny stack machine over the
// builder, producing an arbitrary (simplified) expression. Every
// operand is width-coerced, so no program can trip the builder's width
// panics; the stack never underflows because it starts non-empty and
// pops push back their result.
func synthExpr(b *sym.Builder, vars []*sym.Expr, program []byte) *sym.Expr {
	stack := []*sym.Expr{vars[0]}
	pop := func() *sym.Expr {
		e := stack[len(stack)-1]
		if len(stack) > 1 {
			stack = stack[:len(stack)-1]
		}
		return e
	}
	push := func(e *sym.Expr) { stack = append(stack, e) }
	// fit coerces x to width w by truncation or zero-extension.
	fit := func(x *sym.Expr, w uint16) *sym.Expr {
		if x.Width == w {
			return x
		}
		if x.Width > w {
			return b.Extract(x, w-1, 0)
		}
		return b.ZeroExtend(x, w)
	}
	bool1 := func(x *sym.Expr) *sym.Expr {
		return b.Ne(x, b.Const(sym.BV{W: x.Width}))
	}
	for i := 0; i < len(program) && len(stack) < 64; i++ {
		op := program[i]
		arg := byte(0)
		if i+1 < len(program) {
			arg = program[i+1]
		}
		switch op % 16 {
		case 0:
			push(vars[int(arg)%len(vars)])
			i++
		case 1:
			w := uint16(arg%8) + 1
			push(b.ConstUint(w, uint64(arg)&((1<<w)-1)))
			i++
		case 2:
			push(b.Not(pop()))
		case 3:
			x := pop()
			push(b.And(x, fit(pop(), x.Width)))
		case 4:
			x := pop()
			push(b.Or(x, fit(pop(), x.Width)))
		case 5:
			x := pop()
			push(b.Xor(x, fit(pop(), x.Width)))
		case 6:
			x := pop()
			push(b.Add(x, fit(pop(), x.Width)))
		case 7:
			x := pop()
			push(b.Sub(x, fit(pop(), x.Width)))
		case 8:
			x := pop()
			push(b.Shl(x, fit(pop(), x.Width)))
		case 9:
			x := pop()
			push(b.Lshr(x, fit(pop(), x.Width)))
		case 10:
			x := pop()
			push(b.Eq(x, fit(pop(), x.Width)))
		case 11:
			x := pop()
			push(b.Ult(x, fit(pop(), x.Width)))
		case 12:
			cond := bool1(pop())
			x := pop()
			push(b.Ite(cond, x, fit(pop(), x.Width)))
		case 13:
			x := pop()
			hi := uint16(arg) % x.Width
			push(b.Extract(x, hi, 0))
			i++
		case 14:
			x := pop()
			if x.Width <= 32 {
				push(b.Concat(x, fit(pop(), x.Width)))
			} else {
				push(x)
			}
		default:
			x := pop()
			if w := x.Width + uint16(arg%8); w <= 64 {
				push(b.ZeroExtend(x, w))
			} else {
				push(x)
			}
			i++
		}
	}
	return pop()
}

// forEachAssignment enumerates every assignment of the fuzz variables.
func forEachAssignment(vars []*sym.Expr, visit func(env sym.Env) bool) {
	env := make(sym.Env, len(vars))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			return visit(env)
		}
		v := vars[i]
		for x := uint64(0); x < 1<<v.Width; x++ {
			env[v] = sym.NewBV(v.Width, x)
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

func FuzzSolver(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 10})            // v0 == v1
	f.Add([]byte{0, 0, 1, 3, 6, 1, 5, 11})   // (v0+3) < 5
	f.Add([]byte{0, 1, 1, 7, 5, 2, 0, 0, 3}) // ~(v1^7) & v0
	f.Add([]byte{0, 0, 0, 0, 10})            // v0 == v0 (tautology)
	f.Add([]byte{0, 0, 1, 1, 8, 0, 0, 11})   // (v0<<1) < v0
	// Shift/concat/slice edge cases: overshift to zero, shift by a
	// symbolic amount, full- and partial-width slices, slice of a
	// concat straddling the seam, and concat self-squaring.
	f.Add([]byte{0, 0, 1, 7, 8, 0, 0, 10})          // (c >> v0-ish shl) == v0: overshift path
	f.Add([]byte{0, 1, 0, 0, 8, 13, 2, 1, 2, 10})   // ((v1 << v0)[2:0]) == 2
	f.Add([]byte{0, 1, 0, 0, 9, 0, 1, 11})          // (v1 >> v0) < v1: lshr by symbolic amount
	f.Add([]byte{0, 0, 0, 1, 14, 13, 5, 1, 5, 10})  // concat(v1,v0)[5:0] == 5: slice across the seam
	f.Add([]byte{0, 1, 0, 1, 14, 13, 4, 0, 1, 10})  // concat(v1,v1)[4:0] == v1: self-concat slice
	f.Add([]byte{0, 0, 13, 0, 2, 14, 1, 3, 10})     // concat(~v0[0:0], c): width-1 slice then concat
	f.Add([]byte{0, 1, 1, 4, 8, 1, 4, 9, 0, 1, 10}) // ((v1<<4)>>4) == v1: shift round trip losing bits
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 96 {
			t.Skip("cap expression size")
		}
		b := sym.NewBuilder()
		names := []string{"v0", "v1"}
		vars := make([]*sym.Expr, len(fuzzVarWidths))
		for i, w := range fuzzVarWidths {
			vars[i] = b.Data(names[i], w)
		}
		e := synthExpr(b, vars, program)

		// Brute-force ground truth over the full 2^8 domain.
		bruteSat := false
		var firstVal sym.BV
		haveVal, allSame, evalOK := false, true, true
		forEachAssignment(vars, func(env sym.Env) bool {
			out, err := sym.Eval(e, env)
			if err != nil {
				evalOK = false
				return false
			}
			if !haveVal {
				firstVal, haveVal = out, true
			} else if out != firstVal {
				allSame = false
			}
			if e.Width == 1 && out.IsTrue() {
				bruteSat = true
			}
			return true
		})
		if !evalOK {
			t.Skip("expression not evaluable")
		}

		solver := sym.NewSolver()

		// Constant-ness must agree with enumeration whenever decided.
		res := solver.ConstValue(e)
		if res.Known && res.IsConst {
			if !allSame {
				t.Fatalf("ConstValue claims constant %s but evaluations differ: %s", res.Val, e)
			}
			if res.Val != firstVal {
				t.Fatalf("ConstValue = %s, enumeration says %s: %s", res.Val, firstVal, e)
			}
		}
		if res.Known && !res.IsConst && allSame {
			t.Fatalf("ConstValue refutes constant-ness but all %d evaluations equal %s: %s",
				1<<8, firstVal, e)
		}

		// Satisfiability of the width-1 projection must agree with
		// enumeration: Sat needs a checkable witness, Unsat a truly
		// empty domain. (The domain is 8 bits total, so the solver's
		// exhaustive path decides it; Unknown would itself be a bug.)
		cond := e
		if cond.Width != 1 {
			cond = b.Ne(e, b.Const(sym.BV{W: e.Width}))
			bruteSat = false
			forEachAssignment(vars, func(env sym.Env) bool {
				if out, err := sym.Eval(cond, env); err == nil && out.IsTrue() {
					bruteSat = true
					return false
				}
				return true
			})
		}
		verdict, witness := solver.CheckWitness(cond, nil)
		switch verdict {
		case sym.Sat:
			if !bruteSat {
				t.Fatalf("solver says Sat, enumeration says Unsat: %s", cond)
			}
			if out, err := sym.Eval(cond, witness); err != nil || !out.IsTrue() {
				t.Fatalf("witness does not satisfy: %v (err %v): %s", witness, err, cond)
			}
		case sym.Unsat:
			if bruteSat {
				t.Fatalf("solver says Unsat, enumeration found a model: %s", cond)
			}
		case sym.Unknown:
			t.Fatalf("solver answered Unknown on an 8-bit domain: %s", cond)
		}

		// Re-querying with the witness as hint must stay stable.
		if verdict == sym.Sat {
			again, _ := solver.CheckWitness(cond, witness)
			if again != sym.Sat {
				t.Fatalf("witness hint flipped verdict to %s: %s", again, cond)
			}
		}
	})
}

// oracleVarWidths puts the generator on both sides of the exhaustive
// bound: {3,5,8} total exactly 16 bits (inside), any subset holding the
// 9-bit variable beside the 8-bit one is past it, and every program
// mentions its variables repeatedly — which must not be counted twice.
var oracleVarWidths = []uint16{3, 5, 8, 9}

// oracleSide says where an expression sits relative to the bound.
type oracleSide int

const (
	sideLiteral oracleSide = iota
	sideInside
	sidePast
)

// checkSolverAgainstOracle holds the solver to the probing solver it
// replaced (oracle_test.go), compared the way the engine reads them:
// Unsat ⇔ Dead and everything else Live; Known && IsConst ⇔ Const(val)
// and everything else Varies. It also pins the width rule against the
// distinct-variable sum computed independently.
func checkSolverAgainstOracle(t *testing.T, program []byte) oracleSide {
	b := sym.NewBuilder()
	vars := make([]*sym.Expr, len(oracleVarWidths))
	for i, w := range oracleVarWidths {
		vars[i] = b.Data(string(rune('a'+i)), w)
	}
	e := synthExpr(b, vars, program)
	cond := e
	if cond.Width != 1 {
		cond = b.Ne(e, b.Const(sym.BV{W: e.Width}))
	}
	solver, oracle := sym.NewSolver(), sym.NewProbingSolver()

	for _, x := range []*sym.Expr{e, cond} {
		bits := 0
		for _, v := range sym.AllVars(x) {
			bits += int(v.Width)
		}
		if got, want := solver.Wide(x), bits > sym.DefaultExhaustiveBits; got != want {
			t.Fatalf("Wide = %v on %d distinct free bits: %s", got, bits, x)
		}
	}

	got, want := solver.ConstValue(e), oracle.ConstValue(e)
	gotConst, wantConst := got.Known && got.IsConst, want.Known && want.IsConst
	if gotConst != wantConst || (gotConst && got.Val != want.Val) {
		t.Fatalf("ConstValue %+v, probing solver %+v: %s", got, want, e)
	}
	if solver.Wide(e) && got.Known {
		t.Fatalf("ConstValue decided a wide expression: %+v: %s", got, e)
	}

	v, w := solver.CheckWitness(cond, nil)
	ov, ow := oracle.CheckWitness(cond, nil)
	if (v == sym.Unsat) != (ov == sym.Unsat) {
		t.Fatalf("CheckWitness %s, probing solver %s: %s", v, ov, cond)
	}
	if v == sym.Sat {
		if out, err := sym.Eval(cond, w); err != nil || !out.IsTrue() {
			t.Fatalf("witness %v does not satisfy (err %v): %s", w, err, cond)
		}
	}
	// The other solver's witness as a hint must not move either verdict
	// across the Dead line.
	hv, _ := solver.CheckWitness(cond, ow)
	ohv, _ := oracle.CheckWitness(cond, w)
	if (hv == sym.Unsat) != (v == sym.Unsat) || (ohv == sym.Unsat) != (ov == sym.Unsat) {
		t.Fatalf("hinted CheckWitness %s / %s, unhinted %s / %s: %s", hv, ohv, v, ov, cond)
	}
	switch {
	case solver.Wide(cond):
		if v != sym.Unknown || hv != sym.Unknown {
			t.Fatalf("CheckWitness decided a wide formula: %s, hinted %s: %s", v, hv, cond)
		}
		return sidePast
	case cond.IsConst():
		return sideLiteral
	default:
		if v == sym.Unknown {
			t.Fatalf("CheckWitness answered Unknown inside the bound: %s", cond)
		}
		return sideInside
	}
}

// oracleSeeds name the shapes the comparison must cover; the native
// fuzzer grows the corpus from them.
var oracleSeeds = [][]byte{
	{0, 0, 0, 1, 10},                            // a == b: 8 bits, inside
	{0, 0, 0, 1, 3, 0, 2, 3, 1, 0, 10},          // (a & b & c) == 0: exactly 16 bits
	{0, 2, 0, 3, 10},                            // c == d: 17 bits, past
	{0, 0, 0, 1, 3, 0, 2, 3, 0, 3, 3, 1, 0, 10}, // all four: 25 bits
	{0, 3, 0, 3, 6, 0, 3, 5, 0, 3, 10},          // d four times: 9 bits, counted once
	{0, 2, 0, 2, 5, 0, 3, 11},                   // (c ^ c) < d: folds to one variable
	{0, 3, 1, 7, 11, 0, 2, 1, 5, 11, 3},         // d < 7 && c < 5: past, easily satisfiable
	{0, 3, 0, 2, 12, 1, 4, 10},                  // ite over a past-the-bound condition
	{0, 0, 1, 3, 6, 1, 5, 11},                   // (a+3) < 5
	{0, 2, 1, 4, 8, 1, 4, 9, 0, 2, 10},          // ((c<<4)>>4) == c: refutable, 8 bits
	{0, 1, 0, 1, 14, 13, 4, 0, 1, 10},           // concat(b,b)[4:0] == b: tautology inside
	{0, 3, 0, 2, 14, 13, 9, 0, 3, 15, 1, 10},    // slice of concat(c,d) across the seam
}

func FuzzSolverOracle(f *testing.F) {
	for _, seed := range oracleSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 96 {
			t.Skip("cap expression size")
		}
		checkSolverAgainstOracle(t, program)
	})
}

// TestSolverMatchesProbingOracle runs the oracle comparison over the
// seeds and a fixed pseudo-random corpus, and insists the corpus really
// lands on both sides of the bound.
func TestSolverMatchesProbingOracle(t *testing.T) {
	var sides [3]int
	for _, seed := range oracleSeeds {
		sides[checkSolverAgainstOracle(t, seed)]++
	}
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		// One to four variables combined by random binary operators,
		// then a random tail: uniform bytes alone push a variable on one
		// op in sixteen and almost never get past the bound.
		var program []byte
		for i, n := 0, 1+r.Intn(4); i < n; i++ {
			program = append(program, 0, byte(r.Intn(len(oracleVarWidths))))
			if i > 0 {
				program = append(program, byte(3+r.Intn(9)))
			}
		}
		tail := make([]byte, r.Intn(40))
		r.Read(tail)
		sides[checkSolverAgainstOracle(t, append(program, tail...))]++
	}
	t.Logf("corpus: %d literal, %d inside the bound, %d past it", sides[sideLiteral], sides[sideInside], sides[sidePast])
	if sides[sideInside] < 50 || sides[sidePast] < 50 {
		t.Fatal("corpus is lopsided")
	}
}

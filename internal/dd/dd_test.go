package dd

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sym"
)

// harness bundles one Store, one Ctx and the sym builder the test
// expressions come from, with the atoms the tests use pre-registered in
// a fixed order (the variable order).
type harness struct {
	b  *sym.Builder
	st *Store
	cx *Ctx
	// vars maps atom name to the hash-consed variable expression.
	vars map[string]*sym.Expr
}

func newHarness(t *testing.T, atoms ...Atom) *harness {
	t.Helper()
	h := &harness{b: sym.NewBuilder(), st: NewStore(), vars: map[string]*sym.Expr{}}
	for _, a := range atoms {
		h.st.Register(a.Name, a.Width)
		h.vars[a.Name] = h.b.Data(a.Name, a.Width)
	}
	h.cx = NewCtx(h.st)
	return h
}

func (h *harness) compile(t *testing.T, e *sym.Expr) *Node {
	t.Helper()
	n, ok := h.cx.Compile(e)
	if !ok {
		t.Fatalf("Compile(%s) bailed out of the diagram fragment", e)
	}
	return n
}

// TestGoldenCanonicalForm pins the canonical text form of a hand-built
// condition: predicate order follows atom registration order (dst
// before port regardless of expression shape), identical branches are
// reduced away, and the shared false terminal prints once.
func TestGoldenCanonicalForm(t *testing.T) {
	h := newHarness(t, Atom{"dst", 8}, Atom{"port", 8})
	dst, port := h.vars["dst"], h.vars["port"]
	// port first in the expression; dst must still root the diagram.
	e := h.b.And(
		h.b.Eq(port, h.b.ConstUint(8, 5)),
		h.b.Eq(dst, h.b.ConstUint(8, 3)),
	)
	got := h.st.Format(h.compile(t, e))
	want := strings.Join([]string{
		"n1: [1w0x1]",
		"n2: [1w0x0]",
		"n3: @port@ == 8w0x5 -> t:n1 f:n2",
		"n4: @dst@ == 8w0x3 -> t:n3 f:n2",
		"root: n4",
		"",
	}, "\n")
	if got != want {
		t.Errorf("canonical form drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestGoldenMultiTerminal pins the MTBDD form constancy queries walk: an
// ite with wide terminals.
func TestGoldenMultiTerminal(t *testing.T) {
	h := newHarness(t, Atom{"sel", 1})
	e := h.b.Ite(h.vars["sel"], h.b.ConstUint(16, 0x900), h.b.ConstUint(16, 0x700))
	got := h.st.Format(h.compile(t, e))
	want := strings.Join([]string{
		"n1: [16w0x900]",
		"n2: [16w0x700]",
		"n3: @sel@ -> t:n1 f:n2",
		"root: n3",
		"",
	}, "\n")
	if got != want {
		t.Errorf("multi-terminal form drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPointerEqualityEquivalentForms checks that structurally different
// but semantically equal conditions land on the same hash-consed node —
// the sharing property the engine's cross-point reuse rides on.
func TestPointerEqualityEquivalentForms(t *testing.T) {
	h := newHarness(t, Atom{"x", 8}, Atom{"a", 1}, Atom{"b", 1})
	x, a, b := h.vars["x"], h.vars["a"], h.vars["b"]
	c3 := h.b.ConstUint(8, 3)

	pairs := []struct {
		name string
		l, r *sym.Expr
	}{
		{"not-eq vs ite", h.b.Not(h.b.Eq(x, c3)), h.b.Ite(h.b.Eq(x, c3), h.b.False(), h.b.True())},
		{"lt-one vs eq-zero", h.b.Ult(x, h.b.ConstUint(8, 1)), h.b.Eq(x, h.b.ConstUint(8, 0))},
		{"de morgan", h.b.Not(h.b.And(a, b)), h.b.Or(h.b.Not(a), h.b.Not(b))},
		{"flipped lt", h.b.Ult(h.b.ConstUint(8, 3), x), h.b.Not(h.b.Ult(x, h.b.ConstUint(8, 4)))},
		{"xor vs ite", h.b.Xor(a, b), h.b.Ite(a, h.b.Not(b), b)},
	}
	for _, p := range pairs {
		ln, rn := h.compile(t, p.l), h.compile(t, p.r)
		if ln != rn {
			t.Errorf("%s: equivalent forms compiled to distinct nodes:\n%s\nvs\n%s",
				p.name, h.st.Format(ln), h.st.Format(rn))
		}
	}
}

// TestCompileIdempotent checks that recompilation is stable: the same
// expression through a fresh Ctx (cold memos) over the same Store
// returns the identical pointer, and the canonical text form does not
// drift between compilations.
func TestCompileIdempotent(t *testing.T) {
	h := newHarness(t, Atom{"x", 4}, Atom{"y", 4})
	x, y := h.vars["x"], h.vars["y"]
	e := h.b.Or(
		h.b.And(h.b.Eq(x, h.b.ConstUint(4, 2)), h.b.Ult(y, h.b.ConstUint(4, 7))),
		h.b.Eq(y, h.b.ConstUint(4, 9)),
	)
	first := h.compile(t, e)
	form := h.st.Format(first)
	for i := 0; i < 3; i++ {
		h.cx = NewCtx(h.st) // cold memo, same store
		again := h.compile(t, e)
		if again != first {
			t.Fatalf("recompile %d returned a different node", i)
		}
		if got := h.st.Format(again); got != form {
			t.Fatalf("canonical form drifted on recompile %d:\n%s\nwas:\n%s", i, got, form)
		}
	}
}

// TestVariableOrderStability checks the two order contracts: Register
// is append-only and idempotent (re-registration keeps the level), and
// SortAtomsByCount derives a deterministic order — descending count,
// ties broken by name.
func TestVariableOrderStability(t *testing.T) {
	st := NewStore()
	if id := st.Register("dst", 32); id != 0 {
		t.Fatalf("first atom level = %d, want 0", id)
	}
	if id := st.Register("port", 9); id != 1 {
		t.Fatalf("second atom level = %d, want 1", id)
	}
	if id := st.Register("dst", 32); id != 0 {
		t.Fatalf("re-registration moved dst to level %d", id)
	}
	atoms := st.Atoms()
	if len(atoms) != 2 || atoms[0].Name != "dst" || atoms[1].Name != "port" {
		t.Fatalf("atom table = %v", atoms)
	}

	counts := map[string]int{"c": 2, "a": 2, "b": 7, "z": 1}
	want := []string{"b", "a", "c", "z"}
	for i := 0; i < 10; i++ {
		got := SortAtomsByCount(counts)
		if len(got) != len(want) {
			t.Fatalf("SortAtomsByCount = %v, want %v", got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("SortAtomsByCount = %v, want %v", got, want)
			}
		}
	}
}

// checkInvariants walks every node reachable from n and verifies the
// two structural canonicity invariants: ordered (predicates strictly
// increase along every path) and reduced (no node with identical
// branches).
func checkInvariants(t *testing.T, n *Node) {
	t.Helper()
	seen := map[*Node]bool{}
	var walk func(n *Node, floor pred, bounded bool)
	walk = func(n *Node, floor pred, bounded bool) {
		if n.IsTerminal() {
			return
		}
		if bounded && !floor.less(n.p) {
			t.Fatalf("order violation: %v not above %v", n.p, floor)
		}
		if n.t == n.f {
			t.Fatalf("unreduced node: identical branches")
		}
		if seen[n] {
			// Shared node: the per-path floor check above already ran for
			// this path; the subtree was validated on first visit.
			return
		}
		seen[n] = true
		walk(n.t, n.p, true)
		walk(n.f, n.p, true)
	}
	walk(n, pred{}, false)
}

// genExpr builds a random expression over the harness variables,
// staying inside the diagram fragment: wide variables appear only in
// predicate position (var ⋈ const), width-1 atoms may appear bare, and
// wide values arise from constants combined under ite/arithmetic.
// Boolean-valued when wantBool.
func genExpr(h *harness, r *rand.Rand, depth int, wantBool bool) *sym.Expr {
	b := h.b
	x, y, s := h.vars["x"], h.vars["y"], h.vars["s"]
	if wantBool {
		if depth == 0 {
			switch r.Intn(6) {
			case 0:
				return s
			case 1:
				return b.Eq(x, b.ConstUint(3, uint64(r.Intn(8))))
			case 2:
				return b.Ult(y, b.ConstUint(3, uint64(r.Intn(8))))
			case 3:
				return b.Ult(b.ConstUint(3, uint64(r.Intn(8))), x)
			case 4:
				// Ternary match: (atom & M) == C, the masked fragment.
				return b.Eq(b.And(x, b.ConstUint(3, uint64(r.Intn(8)))), b.ConstUint(3, uint64(r.Intn(8))))
			default:
				// Guarded-select match: the protocol-dispatch shape the
				// compare pushdown splits into per-branch predicates.
				return b.Eq(b.Ite(s, y, b.ConstUint(3, 0)), b.ConstUint(3, uint64(r.Intn(8))))
			}
		}
		switch r.Intn(6) {
		case 0:
			return b.And(genExpr(h, r, depth-1, true), genExpr(h, r, depth-1, true))
		case 1:
			return b.Or(genExpr(h, r, depth-1, true), genExpr(h, r, depth-1, true))
		case 2:
			return b.Not(genExpr(h, r, depth-1, true))
		case 3:
			return b.Xor(genExpr(h, r, depth-1, true), genExpr(h, r, depth-1, true))
		case 4:
			return b.Ite(genExpr(h, r, depth-1, true), genExpr(h, r, depth-1, true), genExpr(h, r, depth-1, true))
		default:
			return b.Eq(genExpr(h, r, depth-1, false), genExpr(h, r, depth-1, false))
		}
	}
	if depth == 0 {
		return b.ConstUint(3, uint64(r.Intn(8)))
	}
	switch r.Intn(4) {
	case 0:
		return b.Add(genExpr(h, r, depth-1, false), genExpr(h, r, depth-1, false))
	case 1:
		return b.Xor(genExpr(h, r, depth-1, false), genExpr(h, r, depth-1, false))
	case 2:
		return b.Ite(genExpr(h, r, depth-1, true), genExpr(h, r, depth-1, false), genExpr(h, r, depth-1, false))
	default:
		return b.Sub(genExpr(h, r, depth-1, false), genExpr(h, r, depth-1, false))
	}
}

// assignments enumerates every total assignment over x:3, y:3, s:1.
func (h *harness) assignments() []sym.Env {
	var out []sym.Env
	for xv := uint64(0); xv < 8; xv++ {
		for yv := uint64(0); yv < 8; yv++ {
			for sv := uint64(0); sv < 2; sv++ {
				out = append(out, sym.Env{
					h.vars["x"]: sym.NewBV(3, xv),
					h.vars["y"]: sym.NewBV(3, yv),
					h.vars["s"]: sym.NewBV(1, sv),
				})
			}
		}
	}
	return out
}

// getter adapts a sym.Env to EvalNode's atom-indexed lookup.
func (h *harness) getter(env sym.Env) func(int32) (sym.BV, bool) {
	atoms := h.st.Atoms()
	return func(atom int32) (sym.BV, bool) {
		v, ok := env[h.vars[atoms[atom].Name]]
		return v, ok
	}
}

// TestPropertySemantics is the ground-truth property suite: for a fleet
// of random expressions, the compiled diagram must agree with the sym
// evaluator on every total assignment and satisfy the structural
// canonicity invariants. Across the fleet, pointer equality must imply
// semantic equality (one node, one function); the converse holds only
// up to atom correlation (x==3 and x==5 are structurally independent
// predicates), so for semantically equal diagrams on distinct pointers
// the feasibility walks — which do see correlation — must agree.
func TestPropertySemantics(t *testing.T) {
	h := newHarness(t, Atom{"x", 3}, Atom{"y", 3}, Atom{"s", 1})
	r := rand.New(rand.NewSource(0xdd01))
	envs := h.assignments()

	type compiled struct {
		e   *sym.Expr
		n   *Node
		sig string // concatenated values over all assignments
	}
	var fleet []compiled
	for i := 0; i < 120; i++ {
		e := genExpr(h, r, 1+r.Intn(3), i%2 == 0)
		n, ok := h.cx.Compile(e)
		if !ok {
			continue
		}
		checkInvariants(t, n)
		var sig strings.Builder
		for _, env := range envs {
			want, err := sym.Eval(e, env)
			if err != nil {
				t.Fatalf("sym.Eval(%s): %v", e, err)
			}
			got, ok := EvalNode(n, h.getter(env))
			if !ok {
				t.Fatalf("EvalNode hit an unassigned atom on a total assignment (expr %s)", e)
			}
			if got != want {
				t.Fatalf("diagram disagrees with evaluator on %s: got %s want %s", e, got, want)
			}
			sig.WriteString(want.String())
			sig.WriteByte(';')
		}
		fleet = append(fleet, compiled{e: e, n: n, sig: sig.String()})
	}
	if len(fleet) < 60 {
		t.Fatalf("only %d/120 expressions compiled; generator drifted out of the fragment", len(fleet))
	}
	// Pointer equality ⇒ semantic equality (hash-consing is sound).
	byNode := map[*Node]string{}
	for _, c := range fleet {
		if sig, ok := byNode[c.n]; ok && sig != c.sig {
			t.Fatalf("one node carries two semantics — hash-consing broken")
		}
		byNode[c.n] = c.sig
	}
	// Semantically equal diagrams on distinct pointers: the correlation
	// gap. The feasibility-pruned deciders must still agree on them.
	atoms := h.st.Atoms()
	decide := func(n *Node) (sym.BV, ConstOutcome) {
		v, _, _, out := ConstCheck(n, atoms, 1<<16)
		return v, out
	}
	bySig := map[string]compiled{}
	for _, c := range fleet {
		prev, ok := bySig[c.sig]
		bySig[c.sig] = c
		if !ok || prev.n == c.n {
			continue
		}
		av, aout := decide(prev.n)
		bv, bout := decide(c.n)
		if aout != bout || (aout == ConstUniform && av != bv) {
			t.Fatalf("semantically equal diagrams decided differently (%v/%s vs %v/%s):\n%s\nvs\n%s",
				aout, av, bout, bv, h.st.Format(prev.n), h.st.Format(c.n))
		}
	}
}

// TestPropertySatConst cross-checks the feasibility-pruned walks
// against brute force: Sat must agree with exhaustive satisfiability
// (and return a verified witness), ConstCheck with exhaustive constancy
// (and return distinguishing assignments when it reports varies).
func TestPropertySatConst(t *testing.T) {
	h := newHarness(t, Atom{"x", 3}, Atom{"y", 3}, Atom{"s", 1})
	r := rand.New(rand.NewSource(0xdd02))
	envs := h.assignments()
	atoms := h.st.Atoms()
	const budget = 1 << 16

	// total fills a walk's partial witness with zeros for untouched
	// atoms (an untouched atom is unconstrained, so zero realizes it).
	total := func(partial map[int32]sym.BV) func(int32) (sym.BV, bool) {
		return func(atom int32) (sym.BV, bool) {
			if v, ok := partial[atom]; ok {
				return v, true
			}
			return sym.BV{W: atoms[atom].Width}, true
		}
	}

	checked := 0
	for i := 0; i < 150; i++ {
		wantBool := i%3 != 0 // mix in wide diagrams for ConstCheck
		e := genExpr(h, r, 1+r.Intn(3), wantBool)
		n, ok := h.cx.Compile(e)
		if !ok {
			continue
		}
		checked++

		// Brute force over every total assignment.
		var vals []sym.BV
		satisfiable := false
		for _, env := range envs {
			v, err := sym.Eval(e, env)
			if err != nil {
				t.Fatalf("sym.Eval: %v", err)
			}
			vals = append(vals, v)
			if v.W == 1 && v.IsTrue() {
				satisfiable = true
			}
		}
		constant := true
		for _, v := range vals[1:] {
			if v != vals[0] {
				constant = false
				break
			}
		}

		if wantBool {
			witness, out := Sat(n, atoms, budget)
			switch out {
			case SatOver:
				t.Fatalf("Sat blew a %d budget on a %d-node toy diagram", budget, h.st.NumNodes())
			case SatYes:
				if !satisfiable {
					t.Fatalf("Sat said yes on an unsatisfiable condition %s", e)
				}
				if v, ok := EvalNode(n, total(witness)); !ok || !v.IsTrue() {
					t.Fatalf("Sat witness does not satisfy the diagram (expr %s)", e)
				}
			case SatNo:
				if satisfiable {
					t.Fatalf("Sat said no on a satisfiable condition %s", e)
				}
			}
		}

		val, envA, envB, out := ConstCheck(n, atoms, budget)
		switch out {
		case ConstOver:
			t.Fatalf("ConstCheck blew a %d budget on a toy diagram", budget)
		case ConstUniform:
			if !constant {
				t.Fatalf("ConstCheck claimed uniform on a varying diagram %s", e)
			}
			if val != vals[0] {
				t.Fatalf("ConstCheck value %s, brute force %s", val, vals[0])
			}
			if got, ok := EvalNode(n, total(envA)); !ok || got != val {
				t.Fatalf("ConstCheck witness does not realize the constant")
			}
		case ConstVaries:
			if constant {
				t.Fatalf("ConstCheck claimed varies on a constant diagram %s", e)
			}
			a, okA := EvalNode(n, total(envA))
			b, okB := EvalNode(n, total(envB))
			if !okA || !okB || a == b {
				t.Fatalf("ConstCheck distinguishing assignments agree (%s vs %s)", a, b)
			}
		}
	}
	if checked < 80 {
		t.Fatalf("only %d/150 expressions compiled", checked)
	}
}

// TestPredNodeNormalization pins the leaf normalizations that make
// equivalent predicates land on one pointer (white box: drives
// predNode directly).
func TestPredNodeNormalization(t *testing.T) {
	st := NewStore()
	w1 := st.Register("flag", 1)
	w8 := st.Register("x", 8)

	// Width-1 equality folds to the bare boolean test.
	eq1 := st.predNode(w1, 1, PredEq, sym.Bool(true))
	boolT := st.predNode(w1, 1, PredBool, sym.Bool(true))
	if eq1 != boolT {
		t.Error("flag == 1 did not normalize to the boolean test")
	}
	eq0 := st.predNode(w1, 1, PredEq, sym.Bool(false))
	if eq0.IsTerminal() || eq0.t != st.False() || eq0.f != st.True() {
		t.Error("flag == 0 did not normalize to the negated boolean test")
	}
	// x < 0 is unsatisfiable; x < 1 is x == 0.
	if n := st.predNode(w8, 8, PredLt, sym.NewBV(8, 0)); n != st.False() {
		t.Error("x < 0 did not fold to false")
	}
	lt1 := st.predNode(w8, 8, PredLt, sym.NewBV(8, 1))
	eqz := st.predNode(w8, 8, PredEq, sym.NewBV(8, 0))
	if lt1 != eqz {
		t.Error("x < 1 did not normalize to x == 0")
	}
	// A 1-bit atom is always below a bound >= 2 (the bound arrives wider
	// than the atom only on this defensive path).
	if n := st.predNode(w1, 1, PredLt, sym.NewBV(8, 2)); n != st.True() {
		t.Error("1-bit atom < 2 did not fold to true")
	}
}

// TestPathStepsExplainsDescent checks the introspection walk: the
// recorded steps follow the assignment's actual branches and end on the
// terminal EvalNode reaches.
func TestPathStepsExplainsDescent(t *testing.T) {
	h := newHarness(t, Atom{"dst", 8}, Atom{"port", 8})
	dst, port := h.vars["dst"], h.vars["port"]
	e := h.b.And(
		h.b.Eq(dst, h.b.ConstUint(8, 3)),
		h.b.Ult(port, h.b.ConstUint(8, 10)),
	)
	n := h.compile(t, e)
	env := sym.Env{dst: sym.NewBV(8, 3), port: sym.NewBV(8, 4)}
	get := func(atom int32) sym.BV {
		v, _ := h.getter(env)(atom)
		return v
	}
	steps, term := PathSteps(h.st.Atoms(), n, get)
	if !term.IsTrue() {
		t.Fatalf("descent ended on %s, want true", term.Value())
	}
	if len(steps) != 2 {
		t.Fatalf("steps = %v, want 2 predicates", steps)
	}
	if steps[0].Pred != "@dst@ == 8w0x3" || !steps[0].Taken {
		t.Errorf("step 0 = %+v", steps[0])
	}
	if steps[1].Pred != "@port@ < 8w0xa" || !steps[1].Taken {
		t.Errorf("step 1 = %+v", steps[1])
	}
	// Flip one field: the first untaken branch short-circuits to false.
	env[dst] = sym.NewBV(8, 9)
	steps, term = PathSteps(h.st.Atoms(), n, get)
	if !term.IsFalse() || len(steps) != 1 || steps[0].Taken {
		t.Errorf("miss descent: steps=%v term=%v", steps, term.Value())
	}
}

// TestCompileBails pins the fragment boundary: conditions the diagram
// cannot host must report ok=false (and the engine falls back to the
// solver) rather than mis-compiling.
func TestCompileBails(t *testing.T) {
	h := newHarness(t, Atom{"x", 8})
	// An unregistered variable is out of the fragment.
	free := h.b.Data("unregistered", 8)
	if _, ok := h.cx.Compile(h.b.Eq(free, h.b.ConstUint(8, 1))); ok {
		t.Error("compile of an unregistered variable did not bail")
	}
	// A control variable never enters the diagram.
	ctrl := h.b.Ctrl("entry0", 8)
	if _, ok := h.cx.Compile(h.b.Eq(ctrl, h.b.ConstUint(8, 1))); ok {
		t.Error("compile of a control variable did not bail")
	}
	// A width mismatch against the registered atom bails too.
	narrow := h.b.Data("x", 4)
	if _, ok := h.cx.Compile(h.b.Eq(narrow, h.b.ConstUint(4, 1))); ok {
		t.Error("compile of a width-mismatched atom did not bail")
	}
	// After bails, the fragment still works (bails must not poison the
	// memo for good expressions).
	x := h.vars["x"]
	if n, ok := h.cx.Compile(h.b.Eq(x, h.b.ConstUint(8, 1))); !ok || n.IsTerminal() {
		t.Error("fragment compile broken after bails")
	}
	// A budget bail is memoized per pointer: the same context reports it
	// again whatever the next limit, a cold one compiles the expression.
	chain := h.b.False()
	for i := uint64(0); i < 32; i++ {
		chain = h.b.Or(chain, h.b.Eq(x, h.b.ConstUint(8, i)))
	}
	if _, ok := h.cx.CompileBudget(chain, 4); ok {
		t.Fatal("a 32-way disjunction compiled within 4 steps")
	}
	if _, ok := h.cx.CompileBudget(chain, compileLimit); ok {
		t.Error("a memoized budget bail was retried under a larger limit")
	}
	if n, ok := NewCtx(h.st).CompileBudget(chain, compileLimit); !ok || n.IsTerminal() {
		t.Error("a cold context did not compile what another context bailed on")
	}
}

// TestStoreSharedAcrossCtxs checks the cross-worker sharing contract:
// two Ctxs over one Store intern structurally equal conditions to the
// same pointer.
func TestStoreSharedAcrossCtxs(t *testing.T) {
	h := newHarness(t, Atom{"x", 8})
	x := h.vars["x"]
	e := h.b.Or(h.b.Eq(x, h.b.ConstUint(8, 1)), h.b.Eq(x, h.b.ConstUint(8, 2)))
	c1, c2 := NewCtx(h.st), NewCtx(h.st)
	n1, ok1 := c1.Compile(e)
	n2, ok2 := c2.Compile(e)
	if !ok1 || !ok2 || n1 != n2 {
		t.Fatal("two contexts over one store interned distinct nodes")
	}
}

// TestGoldenTernaryMatch pins the canonical form of the ternary-match
// predicate: a masked equality over one atom compiles to a single
// (atom & M) == C node, with the constant normalized inside the mask.
func TestGoldenTernaryMatch(t *testing.T) {
	h := newHarness(t, Atom{"dst", 8})
	dst := h.vars["dst"]
	e := h.b.Eq(h.b.And(dst, h.b.ConstUint(8, 0xf0)), h.b.ConstUint(8, 0x30))
	got := h.st.Format(h.compile(t, e))
	want := strings.Join([]string{
		"n1: [1w0x1]",
		"n2: [1w0x0]",
		"n3: (@dst@ & 8w0xf0) == 8w0x30 -> t:n1 f:n2",
		"root: n3",
		"",
	}, "\n")
	if got != want {
		t.Errorf("ternary-match form drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMaskEqNormalization pins the masked-equality folds: constant
// bits outside the mask are unsatisfiable, a full mask is exact
// equality, a zero mask constrains nothing.
func TestMaskEqNormalization(t *testing.T) {
	h := newHarness(t, Atom{"x", 8})
	x := h.vars["x"]
	mk := func(m, c uint64) *Node {
		return h.compile(t, h.b.Eq(h.b.And(x, h.b.ConstUint(8, m)), h.b.ConstUint(8, c)))
	}
	if n := mk(0xf0, 0x03); n != h.st.False() {
		t.Errorf("constant outside mask did not fold to false:\n%s", h.st.Format(n))
	}
	if mk(0xff, 0x2a) != h.compile(t, h.b.Eq(x, h.b.ConstUint(8, 0x2a))) {
		t.Error("full mask did not normalize to exact equality")
	}
	// Builder-level simplification can fold the zero-mask expression
	// before the diagram sees it; pin the store-level fold directly.
	st := NewStore()
	a := st.Register("x", 8)
	if st.maskNode(a, 8, sym.NewBV(8, 0), sym.NewBV(8, 0)) != st.True() {
		t.Error("zero mask did not fold to true")
	}
}

// TestPointerEqualityMaskForms extends the canonicity proof to the
// masked fragment: equivalent ternary-match and guarded-select
// spellings must intern to the identical node.
func TestPointerEqualityMaskForms(t *testing.T) {
	h := newHarness(t, Atom{"x", 8}, Atom{"s", 1})
	x, s := h.vars["x"], h.vars["s"]
	c := func(v uint64) *sym.Expr { return h.b.ConstUint(8, v) }

	pairs := []struct {
		name string
		l, r *sym.Expr
	}{
		{
			"nested masks fold",
			h.b.Eq(h.b.And(h.b.And(x, c(0xf0)), c(0xcc)), c(0x40)),
			h.b.Eq(h.b.And(x, c(0xc0)), c(0x40)),
		},
		{
			"select pushdown",
			h.b.Eq(h.b.Ite(s, x, c(0)), c(3)),
			h.b.And(s, h.b.Eq(x, c(3))),
		},
		{
			"masked select pushdown",
			h.b.Eq(h.b.And(h.b.Ite(s, x, c(0)), c(0x0f)), c(0x05)),
			h.b.And(s, h.b.Eq(h.b.And(x, c(0x0f)), c(0x05))),
		},
	}
	for _, p := range pairs {
		ln, rn := h.compile(t, p.l), h.compile(t, p.r)
		if ln != rn {
			t.Errorf("%s: equivalent forms compiled to distinct nodes:\n%s\nvs\n%s",
				p.name, h.st.Format(ln), h.st.Format(rn))
		}
	}
}

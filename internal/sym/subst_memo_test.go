package sym

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// memoWorld is a small control plane for the memo tests: targets of two
// placeholders each over a few data variables, and roots that mix
// placeholders of several targets the way path conditions do.
type memoWorld struct {
	b     *Builder
	r     *rand.Rand
	vars  [][]*Expr // placeholders by target
	data  []*Expr
	roots []*Expr
	env   map[*Expr]*Expr
}

func newMemoWorld(seed int64, targets, roots int) *memoWorld {
	w := &memoWorld{b: NewBuilder(), r: rand.New(rand.NewSource(seed)), env: make(map[*Expr]*Expr)}
	b := w.b
	for i := 0; i < 4; i++ {
		w.data = append(w.data, b.Data(fmt.Sprintf("d%d", i), 8))
	}
	for t := 0; t < targets; t++ {
		w.vars = append(w.vars, []*Expr{
			b.CtrlOf(t, fmt.Sprintf("t%d.$action", t), 8),
			b.CtrlOf(t, fmt.Sprintf("t%d.$hit", t), 1),
		})
	}
	for i := 0; i < roots; i++ {
		cond := b.True()
		val := b.ConstUint(8, uint64(i))
		for j := 0; j < 3; j++ {
			tv := w.vars[w.r.Intn(targets)]
			k := b.ConstUint(8, uint64(w.r.Intn(4)))
			cond = b.And(cond, b.Or(tv[1], b.Eq(tv[0], k)))
			val = b.Ite(b.Eq(w.data[w.r.Intn(len(w.data))], k), b.Add(val, tv[0]), val)
		}
		w.roots = append(w.roots, cond, b.Ite(cond, val, w.data[0]))
	}
	for t := range w.vars {
		w.assign(t)
	}
	return w
}

// assign gives target t a new random assignment — a constant, or a
// short ite chain over a data variable, the shape a table compiles to —
// and returns the mask bits that names.
func (w *memoWorld) assign(t int) uint64 {
	b, r := w.b, w.r
	sel := b.ConstUint(8, uint64(r.Intn(4)))
	hit := b.False()
	for n := r.Intn(4); n > 0; n-- {
		c := b.Eq(w.data[r.Intn(len(w.data))], b.ConstUint(8, uint64(r.Intn(6))))
		sel = b.Ite(c, b.ConstUint(8, uint64(r.Intn(4))), sel)
		hit = b.Or(c, hit)
	}
	w.env[w.vars[t][0]], w.env[w.vars[t][1]] = sel, hit
	return w.vars[t][0].CtrlMask()
}

// reach counts the distinct nodes under the roots whose mask meets bits.
func (w *memoWorld) reach(bits uint64) int64 {
	seen := make(map[*Expr]bool)
	var n int64
	var walk func(e *Expr)
	walk = func(e *Expr) {
		if e == nil || seen[e] || e.mask&bits == 0 {
			return
		}
		seen[e] = true
		n++
		walk(e.A)
		walk(e.B)
		walk(e.C)
	}
	for _, e := range w.roots {
		walk(e)
	}
	return n
}

// checkPass substitutes every root through pass and holds each residue
// to a substitution on a scratch of its own.
func (w *memoWorld) checkPass(t *testing.T, label string, pass SubstPass) {
	t.Helper()
	for i, e := range w.roots {
		var fresh SubstScratch
		if got, want := pass.Subst(e), w.b.SubstWith(&fresh, e, w.env); got != want {
			t.Fatalf("%s: root %d: resumed pass yields %s, a fresh scratch %s", label, i, got, want)
		}
	}
}

// TestResumedPassMatchesFreshPass drives a scratch through passes that
// each reassign a few of 150 targets — more than twice the mask's bits,
// so every bit stands for two or three — and holds every residue to a
// fresh substitution; a pass rewrites exactly the nodes the reported
// bits reach.
func TestResumedPassMatchesFreshPass(t *testing.T) {
	w := newMemoWorld(11, 150, 120)
	if a, b := w.vars[3][0].CtrlMask(), w.vars[67][1].CtrlMask(); a != b || a != 1<<3 {
		t.Fatalf("targets 3 and 67 should share bit 3: masks %#x, %#x", a, b)
	}
	if m := w.b.Ctrl("loose", 8).CtrlMask(); m != ^uint64(0) {
		t.Fatalf("a placeholder of no known target has mask %#x, want every bit", m)
	}
	if m := w.b.Add(w.data[0], w.data[1]).CtrlMask(); m != 0 {
		t.Fatalf("a data-only node has mask %#x", m)
	}
	var sc SubstScratch
	w.checkPass(t, "first pass", w.b.ResumeSubst(&sc, w.env, 0))
	for step := 0; step < 200; step++ {
		var changed uint64
		for n := w.r.Intn(3); n > 0; n-- {
			changed |= w.assign(w.r.Intn(len(w.vars)))
		}
		before := sc.Rewritten()
		w.checkPass(t, fmt.Sprintf("step %d", step), w.b.ResumeSubst(&sc, w.env, changed))
		if got, want := sc.Rewritten()-before, w.reach(changed); got != want {
			t.Fatalf("step %d: pass rewrote %d nodes, the changed bits %#x reach %d", step, got, changed, want)
		}
	}
}

// TestSubstGenerationWrap: pass numbers are compared by order, so a
// scratch about to run out of them starts over rather than wrap.
func TestSubstGenerationWrap(t *testing.T) {
	w := newMemoWorld(5, 20, 40)
	var sc SubstScratch
	w.checkPass(t, "first pass", w.b.ResumeSubst(&sc, w.env, 0))
	// Four billion passes that changed nothing later:
	sc.gen = math.MaxUint32 - 5
	wrapped := false
	for step := 0; step < 12; step++ {
		changed := w.assign(w.r.Intn(len(w.vars)))
		prev := sc.gen
		w.checkPass(t, fmt.Sprintf("step %d", step), w.b.ResumeSubst(&sc, w.env, changed))
		if sc.gen < prev {
			wrapped = true
			if sc.gen != 1 {
				t.Fatalf("pass after the wrap is numbered %d, want 1", sc.gen)
			}
		}
	}
	if !wrapped {
		t.Fatal("the pass counter never wrapped")
	}
}

// TestScratchSurvivesDataKeyedPass: a scratch that served a
// control-keyed pass is handed an environment keyed on data variables
// (subst_test.go does that to the Builder's own), then the control
// environment again. No mask bit tracks a data variable, so the
// "nothing below is assigned" shortcut has to come from the environment.
func TestScratchSurvivesDataKeyedPass(t *testing.T) {
	w := newMemoWorld(3, 10, 30)
	b := w.b
	dataOnly := b.Add(w.data[0], b.Xor(w.data[1], w.data[2]))
	w.roots = append(w.roots, dataOnly)
	var sc SubstScratch
	w.checkPass(t, "control-keyed", b.ResumeSubst(&sc, w.env, 0))

	ctrlEnv := w.env
	w.env = map[*Expr]*Expr{w.data[0]: b.ConstUint(8, 1), w.data[1]: b.ConstUint(8, 2)}
	if got := b.SubstWith(&sc, dataOnly, w.env); got == dataOnly {
		t.Fatalf("data-keyed substitution left %s as it stood", dataOnly)
	}
	w.checkPass(t, "data-keyed", b.BeginSubst(&sc, w.env))
	w.env[w.data[0]] = b.ConstUint(8, 9)
	w.checkPass(t, "data-keyed, reassigned", b.BeginSubst(&sc, w.env))

	w.env = ctrlEnv
	w.checkPass(t, "control-keyed again", b.BeginSubst(&sc, w.env))
	w.checkPass(t, "resumed after", b.ResumeSubst(&sc, w.env, w.assign(4)))
}

// TestSweepDropsMemos: neither of the Builder's memos may name a node
// across a sweep, and a caller's scratch is empty after Reset.
func TestSweepDropsMemos(t *testing.T) {
	w := newMemoWorld(9, 8, 20)
	b := w.b
	sel := w.env[w.vars[0][0]]
	for i := 0; i < 10; i++ {
		sel = b.Ite(b.Eq(w.data[1], b.ConstUint(8, uint64(100+i))), b.ConstUint(8, uint64(i%3)), sel)
	}
	want := b.Eq(b.ConstUint(8, 3), sel)
	b.Subst(w.roots[1], w.env)
	if len(b.eqIte) == 0 || len(b.sub.val) == 0 {
		t.Fatalf("memos unused: %d distributions, %d residues", len(b.eqIte), len(b.sub.val))
	}
	var sc SubstScratch
	w.checkPass(t, "before", b.ResumeSubst(&sc, w.env, 0))

	roots := append([]*Expr{sel, want}, w.roots...)
	for k, v := range w.env {
		roots = append(roots, k, v)
	}
	roots = append(roots, w.data...)
	b.Sweep(roots)
	sc.Reset()
	if len(b.eqIte) != 0 {
		t.Fatalf("%d distributions outlived the sweep", len(b.eqIte))
	}
	for _, s := range []*SubstScratch{&b.sub, &sc} {
		for id, v := range s.val {
			if v != nil || s.at[id] != 0 {
				t.Fatalf("residue of node %d outlived the sweep", id)
			}
		}
	}
	if got := b.Eq(b.ConstUint(8, 3), sel); got != want {
		t.Fatalf("distribution after the sweep yields %s, before it %s", got, want)
	}
	w.checkPass(t, "after", b.ResumeSubst(&sc, w.env, 0))
}

// TestEqIteMemoTakesOneStepPerNewHead: distributing a constant down a
// selector chain memoizes every suffix, so the same constant against a
// new head over the same chain takes one step — the cost of a head
// write must not grow with the table.
func TestEqIteMemoTakesOneStepPerNewHead(t *testing.T) {
	b := NewBuilder()
	key := b.Data("key", 16)
	link := func(i int, below *Expr) *Expr {
		return b.Ite(b.Eq(key, b.ConstUint(16, uint64(1000+i))), b.ConstUint(8, uint64(i%3)), below)
	}
	dflt := b.Data("default", 8)
	chain := dflt
	for i := 0; i < 300; i++ {
		chain = link(i, chain)
	}
	k := b.ConstUint(8, 7) // no entry selects it: the walk reaches the base
	b.Eq(k, chain)
	walked := len(b.eqIte)
	if walked != 300 {
		t.Fatalf("walking a 300-link chain memoized %d distributions", walked)
	}
	got := b.Eq(k, link(300, chain))
	if n := len(b.eqIte) - walked; n != 1 {
		t.Fatalf("a new head over a memoized chain took %d steps, want 1", n)
	}
	// What the distribution means: no entry matches and the default is k.
	for v := uint64(990); v < 1310; v++ {
		for _, d := range []uint64{0, 7} {
			res, err := Eval(got, Env{key: NewBV(16, v), dflt: NewBV(8, d)})
			if err != nil {
				t.Fatal(err)
			}
			if want := (v < 1000 || v > 1300) && d == 7; res.IsTrue() != want {
				t.Fatalf("key %d, default %d: selector == 7 evaluates to %s, want %v", v, d, res, want)
			}
		}
	}
}

// TestExprSizeClass: the mask must not push Expr into the next
// allocation size class (112 bytes holds it).
func TestExprSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Expr{}); sz > 112 {
		t.Fatalf("Expr is %d bytes, past the 112-byte class", sz)
	}
}

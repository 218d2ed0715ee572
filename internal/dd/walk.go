package dd

import (
	"fmt"

	"repro/internal/sym"
)

// Path walks: the decision procedures over a compiled diagram.
//
// A diagram's predicates are correlated through their shared atoms
// (x==3 and x==5 cannot both hold), so a non-False root does not by
// itself prove satisfiability. The walks below run a depth-first
// search over root-to-terminal paths while tracking, per atom, the set
// of values still consistent with the branches taken: one positive
// equality pins the atom, negative equalities exclude constants, and
// the less-than branches narrow an inclusive [lo, hi] window. A branch
// whose constraint empties the atom's value set is pruned — that path
// is followed by no concrete packet. Every total assignment follows
// exactly one path and trivially satisfies that path's constraints, so
// the feasible paths cover the function exactly: no feasible true-path
// means unsatisfiable, and all feasible paths sharing one terminal
// means constant. The search is budgeted; a blown budget reports Over
// and the engine answers without a proof, which only keeps code, so
// the walks are never a soundness risk.

// con is the per-atom feasibility state along the current path. fm/fv
// track bits forced by positive mask-equality branches ((x & m) == c
// taken true forces the m bits to c); fv is kept masked to fm. The
// mask state interacts exactly with equalities (a pinned value must
// agree with the forced bits, and vice versa) and conservatively with
// everything else: a constraint combination the tracker cannot decide
// stays "feasible", which can only send the walk down a path whose
// witness later fails verification — never prune a genuinely feasible
// path, so SatNo/ConstUniform stay proofs.
type con struct {
	assigned bool
	val      sym.BV
	lo, hi   sym.BV   // inclusive window
	excl     []sym.BV // excluded values inside the window
	fm, fv   sym.BV   // bits forced by mask equalities, and their values
	// nmask holds negated multi-bit mask equalities: (val & m) == v is
	// false on this path. Single-bit negations fold into fm/fv exactly
	// (the bit is forced to its complement); wider ones land here and
	// are consulted by equality tests, feasibility scans and picks.
	nmask []maskCon
}

// maskCon is one excluded pattern on a set of masked bits.
type maskCon struct{ m, v sym.BV }

// walker is the DFS state shared by Sat and ConstCheck.
type walker struct {
	atoms  []Atom
	cons   map[int32]*con
	visits int
	budget int
	over   bool
}

func newWalker(atoms []Atom, budget int) *walker {
	return &walker{atoms: atoms, cons: make(map[int32]*con, 8), budget: budget}
}

// conOf returns the atom's constraint state, creating the
// unconstrained full-window state on first touch (creation needs no
// undo: a full window encodes "no constraint").
func (w *walker) conOf(atom int32) *con {
	if c, ok := w.cons[atom]; ok {
		return c
	}
	width := uint16(1)
	if int(atom) < len(w.atoms) {
		width = w.atoms[atom].Width
	}
	c := &con{lo: sym.BV{W: width}, hi: sym.AllOnes(width), fm: sym.BV{W: width}, fv: sym.BV{W: width}}
	w.cons[atom] = c
	return c
}

// predConst resolves the constant a predicate tests against (PredBool
// is the equality x == 1).
func predConst(p pred) sym.BV {
	if p.kind == PredBool {
		return sym.Bool(true)
	}
	return p.c
}

// state classifies a predicate against the atom's current constraints:
// +1 forced true, -1 forced false, 0 open (both branches feasible so
// far).
func (w *walker) state(c *con, p pred) int {
	pc := predConst(p)
	if c.assigned {
		hold := false
		switch p.kind {
		case PredLt:
			hold = c.val.Ult(pc)
		case PredMaskEq:
			hold = c.val.And(p.m) == pc
		default:
			hold = c.val == pc
		}
		if hold {
			return 1
		}
		return -1
	}
	if p.kind == PredMaskEq {
		// Bits the path has already forced decide what they cover: a
		// disagreement on any covered bit refutes the test outright,
		// full coverage with agreement proves it. A previously negated
		// identical test refutes it too.
		known := c.fm.And(p.m)
		if c.fv.And(known) != pc.And(known) {
			return -1
		}
		for _, n := range c.nmask {
			if n.m == p.m && n.v == pc {
				return -1
			}
		}
		if known == p.m {
			return 1
		}
		return 0
	}
	if p.kind == PredLt {
		if c.hi.Ult(pc) {
			return 1 // whole window below the bound
		}
		if !c.lo.Ult(pc) {
			return -1 // whole window at or above the bound
		}
		return 0
	}
	// Equality: a constant outside the window, already excluded,
	// disagreeing with a forced bit, or matching a negated mask
	// pattern cannot hold; a window pinned to exactly the constant
	// must.
	if pc.Ult(c.lo) || c.hi.Ult(pc) || c.excluded(pc) || pc.And(c.fm) != c.fv || c.maskExcluded(pc) {
		return -1
	}
	if c.lo == c.hi && c.lo == pc {
		return 1
	}
	return 0
}

func (c *con) excluded(v sym.BV) bool {
	for _, e := range c.excl {
		if e == v {
			return true
		}
	}
	return false
}

// maskExcluded reports whether a concrete value hits one of the
// negated mask patterns.
func (c *con) maskExcluded(v sym.BV) bool {
	for _, n := range c.nmask {
		if v.And(n.m) == n.v {
			return true
		}
	}
	return false
}

// consistent reports whether one concrete value satisfies every
// constraint tracked for the atom.
func (c *con) consistent(v sym.BV) bool {
	if c.assigned {
		return v == c.val
	}
	if v.Ult(c.lo) || c.hi.Ult(v) || v.And(c.fm) != c.fv || c.excluded(v) || c.maskExcluded(v) {
		return false
	}
	return true
}

// feasScanCap bounds the exhaustive feasibility scan: windows at most
// this wide are decided exactly (the toy widths walks must be precise
// on); wider windows use the cheap counting argument and stay
// conservative — "feasible" can overclaim there, which only ever costs
// a witness verification downstream, never a soundness hole.
const feasScanCap = 64

// feasible reports whether the window still contains a value
// consistent with every tracked constraint. Narrow windows are decided
// exactly by scanning; wide ones by bounding the exclusion list
// against the window size (forced bits and negated masks cannot empty
// a >64-value window that the list does not).
func (c *con) feasible() bool {
	if c.assigned {
		return true
	}
	if c.hi.Ult(c.lo) {
		return false
	}
	diff := c.hi.Sub(c.lo)
	if diff.Hi == 0 && diff.Lo < feasScanCap {
		v := c.lo
		one := sym.NewBV(v.W, 1)
		for i := uint64(0); i <= diff.Lo; i++ {
			if c.consistent(v) {
				return true
			}
			v = v.Add(one)
		}
		return false
	}
	if diff.Hi != 0 || diff.Lo+1 == 0 {
		return true
	}
	size := diff.Lo + 1
	in := uint64(0)
	for _, e := range c.excl {
		if !e.Ult(c.lo) && !c.hi.Ult(e) {
			in++
		}
	}
	return in < size
}

// assume narrows the atom's state by taking the given branch of the
// predicate; it reports whether the narrowed state is still feasible.
// The caller restores the returned snapshot to backtrack (the excl
// slice only grows, so restoring the old header truncates it).
func (w *walker) assume(c *con, p pred, branch bool) (prev con, ok bool) {
	prev = *c
	pc := predConst(p)
	if p.kind == PredMaskEq {
		if branch {
			// Merge the forced bits (state already ruled out a
			// disagreement on previously forced bits; pc is masked to
			// p.m by construction).
			c.fm = c.fm.Or(p.m)
			c.fv = c.fv.Or(pc)
			return prev, c.feasible()
		}
		// The negated test excludes one pattern on the masked bits. A
		// single-bit mask negates exactly — the bit is forced to its
		// complement — and folds into the forced-bit state; wider
		// masks land on the exclusion list.
		if p.m.PopCount() == 1 {
			c.fm = c.fm.Or(p.m)
			c.fv = c.fv.Or(pc.Xor(p.m))
			return prev, c.feasible()
		}
		c.nmask = append(c.nmask, maskCon{m: p.m, v: pc})
		return prev, c.feasible()
	}
	if p.kind == PredLt {
		if branch {
			// val < pc: new upper bound pc-1 (pc > 0, or the branch
			// would have been forced false).
			nh := pc.Sub(sym.NewBV(pc.W, 1))
			if nh.Ult(c.hi) {
				c.hi = nh
			}
		} else {
			// val >= pc.
			if c.lo.Ult(pc) {
				c.lo = pc
			}
		}
		return prev, c.feasible()
	}
	if branch {
		c.assigned = true
		c.val = pc
		return prev, true
	}
	c.excl = append(c.excl, pc)
	return prev, c.feasible()
}

// pickScanCap bounds pick's fallback scan through the window.
const pickScanCap = 64

// pick extracts one concrete value consistent with the atom's state.
// The forced-bits candidate is repaired against negated-mask hits by
// flipping free bits, then a bounded window scan runs — exact whenever
// feasible() was exact, so on narrow windows a feasible state always
// yields a consistent value. A wide window that defeats both (possible
// only when feasibility overclaimed) returns a best-effort value;
// picks are verified against the residue before anything trusts them.
func (c *con) pick() sym.BV {
	if c.assigned {
		return c.val
	}
	v := c.fv.Or(c.lo.And(c.fm.Not()))
	for round := 0; round <= len(c.nmask); round++ {
		if c.consistent(v) {
			return v
		}
		fixed := false
		for _, n := range c.nmask {
			if v.And(n.m) == n.v {
				free := n.m.And(c.fm.Not())
				if free.IsZero() {
					break
				}
				// Flip the lowest free masked bit out of the pattern.
				v = v.Xor(free.And(sym.BV{W: free.W}.Sub(free)))
				fixed = true
				break
			}
		}
		if !fixed {
			break
		}
	}
	v = c.lo
	one := sym.NewBV(v.W, 1)
	for i := 0; i < pickScanCap; i++ {
		if c.consistent(v) {
			return v
		}
		if v == c.hi {
			break
		}
		v = v.Add(one)
	}
	return c.fv.Or(c.lo.And(c.fm.Not()))
}

// env snapshots one concrete assignment from the current constraints.
func (w *walker) env() map[int32]sym.BV {
	out := make(map[int32]sym.BV, len(w.cons))
	for atom, c := range w.cons {
		out[atom] = c.pick()
	}
	return out
}

// SatOutcome is the answer of a Sat walk.
type SatOutcome uint8

const (
	// SatYes: a feasible path to the true terminal exists; the returned
	// assignment follows it.
	SatYes SatOutcome = iota
	// SatNo: every path to the true terminal is infeasible — the
	// condition is unsatisfiable. This is a proof, not a heuristic.
	SatNo
	// SatOver: the walk exceeded its budget and decided nothing.
	SatOver
)

// Sat decides satisfiability of a width-1 diagram by feasibility-
// pruned DFS, biased towards true branches so live conditions (the
// overwhelmingly common case) answer on the first descent.
func Sat(n *Node, atoms []Atom, budget int) (map[int32]sym.BV, SatOutcome) {
	w := newWalker(atoms, budget)
	if w.sat(n) {
		return w.env(), SatYes
	}
	if w.over {
		return nil, SatOver
	}
	return nil, SatNo
}

func (w *walker) sat(n *Node) bool {
	if w.over {
		return false
	}
	w.visits++
	if w.visits > w.budget {
		w.over = true
		return false
	}
	if n.IsTerminal() {
		return n.val.IsTrue()
	}
	c := w.conOf(n.p.atom)
	switch w.state(c, n.p) {
	case 1:
		return w.sat(n.t)
	case -1:
		return w.sat(n.f)
	}
	if prev, ok := w.assume(c, n.p, true); ok {
		if w.sat(n.t) {
			return true
		}
		*c = prev
	} else {
		*c = prev
	}
	if prev, ok := w.assume(c, n.p, false); ok {
		if w.sat(n.f) {
			return true
		}
		*c = prev
	} else {
		*c = prev
	}
	return false
}

// ConstOutcome is the answer of a ConstCheck walk.
type ConstOutcome uint8

const (
	// ConstUniform: every feasible path reaches the same terminal — the
	// diagram denotes a single value (returned as val, with one
	// witnessing assignment).
	ConstUniform ConstOutcome = iota
	// ConstVaries: two feasible paths reach distinct terminals; the two
	// returned assignments evaluate to different values.
	ConstVaries
	// ConstOver: budget exceeded; nothing decided.
	ConstOver
)

// ConstCheck decides whether a (possibly multi-terminal) diagram
// denotes a constant, by enumerating feasible paths until two distinct
// terminals are reached or the paths are exhausted.
func ConstCheck(n *Node, atoms []Atom, budget int) (val sym.BV, envA, envB map[int32]sym.BV, out ConstOutcome) {
	w := newWalker(atoms, budget)
	cc := &constCheck{w: w}
	cc.walk(n)
	if cc.varies {
		return cc.first, cc.envA, cc.envB, ConstVaries
	}
	if w.over || !cc.haveFirst {
		return sym.BV{}, nil, nil, ConstOver
	}
	return cc.first, cc.envA, nil, ConstUniform
}

type constCheck struct {
	w          *walker
	haveFirst  bool
	first      sym.BV
	envA, envB map[int32]sym.BV
	varies     bool
}

// walk returns true to abort the DFS (varies proven or budget blown).
func (cc *constCheck) walk(n *Node) bool {
	w := cc.w
	if w.over || cc.varies {
		return true
	}
	w.visits++
	if w.visits > w.budget {
		w.over = true
		return true
	}
	if n.IsTerminal() {
		if !cc.haveFirst {
			cc.haveFirst, cc.first = true, n.val
			cc.envA = w.env()
			return false
		}
		if n.val != cc.first {
			cc.varies = true
			cc.envB = w.env()
			return true
		}
		return false
	}
	c := w.conOf(n.p.atom)
	switch w.state(c, n.p) {
	case 1:
		return cc.walk(n.t)
	case -1:
		return cc.walk(n.f)
	}
	if prev, ok := w.assume(c, n.p, true); ok {
		stop := cc.walk(n.t)
		*c = prev
		if stop {
			return true
		}
	} else {
		*c = prev
	}
	if prev, ok := w.assume(c, n.p, false); ok {
		stop := cc.walk(n.f)
		*c = prev
		return stop
	} else {
		*c = prev
	}
	return false
}

// EvalNode evaluates the diagram under a (possibly partial)
// assignment: one root-to-terminal descent, testing each predicate
// concretely. It reports false when the path needs an unassigned atom.
// It costs the path length, not a traversal of the residue DAG.
func EvalNode(n *Node, get func(atom int32) (sym.BV, bool)) (sym.BV, bool) {
	for !n.IsTerminal() {
		v, ok := get(n.p.atom)
		if !ok {
			return sym.BV{}, false
		}
		if predHolds(n.p, v) {
			n = n.t
		} else {
			n = n.f
		}
	}
	return n.val, true
}

func predHolds(p pred, v sym.BV) bool {
	switch p.kind {
	case PredBool:
		return v.IsTrue()
	case PredEq:
		return v == p.c
	case PredLt:
		return v.Ult(p.c)
	default:
		return v.And(p.m) == p.c
	}
}

// Step is one predicate test along an explained path.
type Step struct {
	// Pred is the predicate in the paper's notation, e.g.
	// "@hdr.ipv4.dstAddr@ == 0x0a000001".
	Pred string
	// Taken reports which branch the assignment took.
	Taken bool
}

// PathSteps records the descent of a total assignment through the
// diagram: the predicates tested, the branches taken, and the terminal
// reached. It is the introspection walk behind Explain.
func PathSteps(atoms []Atom, n *Node, get func(atom int32) sym.BV) ([]Step, *Node) {
	var steps []Step
	for !n.IsTerminal() {
		v := get(n.p.atom)
		taken := predHolds(n.p, v)
		steps = append(steps, Step{Pred: formatPred(atoms, n.p), Taken: taken})
		if taken {
			n = n.t
		} else {
			n = n.f
		}
	}
	return steps, n
}

// AtomValueString renders one witness value for the introspection API.
func AtomValueString(v sym.BV) string { return fmt.Sprintf("%s", v) }

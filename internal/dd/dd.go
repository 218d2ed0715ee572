// Package dd implements a canonical ordered decision diagram over
// match-key predicates — the query core the ROADMAP names as "the
// refactor that makes every other speed item cheaper" (after the FDD
// construction in *A Fast Compiler for NetKAT*).
//
// A diagram node tests one predicate over a data-plane variable (an
// "atom"): the bare truth of a width-1 variable, equality against a
// constant, or an unsigned less-than against a constant. Internal
// nodes branch on the predicate; terminal nodes carry a bitvector
// value (width-1 terminals are the booleans, wider terminals make the
// diagram an MTBDD for constancy queries). Three invariants give
// canonical form:
//
//   - ordered: predicates appear in strictly increasing order along
//     every root-to-terminal path, under a fixed total order — atoms
//     in registration order (the engine registers them by taint
//     frequency, most-tested first), predicates of one atom by (kind,
//     constant);
//   - reduced: no node has identical branches (reduce-on-construct);
//   - hash-consed: structurally equal nodes are pointer-equal, so
//     structurally equal conditions compiled through one Store are the
//     same pointer and sharing across program points is free.
//
// Because predicates over one atom are correlated (x==3 and x==5
// cannot both hold), pointer equality implies semantic equality but a
// non-False diagram is not automatically satisfiable; walk.go provides
// the feasibility-pruned path walks (Sat, ConstCheck) that close the
// gap, and the engine falls back to the solver's enumeration when a
// walk exceeds its budget.
//
// Concurrency: a Store's intern table is guarded by an internal mutex
// (mirroring sym.Builder), so several goroutines may compile through
// one shared Store concurrently, each with a Ctx of its own — the
// mutable scratch, the compile and apply memos, lives there. Nodes are
// immutable after creation and the atom table is published through an
// atomic pointer, so a reader may walk any node it holds, and read the
// atom list and the node count, without ever touching the mutex.
package dd

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sym"
)

// PredKind classifies the predicate an internal node tests.
type PredKind uint8

const (
	// PredBool tests the truth of a width-1 atom (x != 0).
	PredBool PredKind = iota
	// PredEq tests atom == C.
	PredEq
	// PredLt tests atom < C (unsigned).
	PredLt
	// PredMaskEq tests (atom & M) == C — the ternary-match shape. The
	// constant C is normalized to lie inside the mask (C & ~M == 0).
	PredMaskEq
)

func (k PredKind) String() string {
	switch k {
	case PredBool:
		return "bool"
	case PredEq:
		return "=="
	case PredLt:
		return "<"
	default:
		return "&=="
	}
}

// Atom is one data-plane variable the diagram may test. Atoms are
// identified by their registration index, which is also their level in
// the variable order: lower index = nearer the root.
type Atom struct {
	Name  string
	Width uint16
}

// pred is the label of an internal node. The zero atom index is a
// valid atom; terminals are marked by atom == -1 on the node itself.
// m is the mask of a PredMaskEq test and zero for every other kind.
type pred struct {
	atom int32
	kind PredKind
	c    sym.BV
	m    sym.BV
}

// less is the fixed total predicate order: atom level first (the
// engine's taint-frequency order), then kind, then constant, then
// mask.
func (p pred) less(q pred) bool {
	if p.atom != q.atom {
		return p.atom < q.atom
	}
	if p.kind != q.kind {
		return p.kind < q.kind
	}
	if p.c.W != q.c.W {
		return p.c.W < q.c.W
	}
	if p.c.Hi != q.c.Hi {
		return p.c.Hi < q.c.Hi
	}
	if p.c.Lo != q.c.Lo {
		return p.c.Lo < q.c.Lo
	}
	if p.m.Hi != q.m.Hi {
		return p.m.Hi < q.m.Hi
	}
	return p.m.Lo < q.m.Lo
}

// Node is one hash-consed diagram node. Nodes are immutable and owned
// by their Store; two nodes from one Store are pointer-equal iff they
// are structurally equal.
type Node struct {
	p    pred
	t, f *Node  // branches; nil on terminals
	val  sym.BV // terminal value
}

// IsTerminal reports whether n is a terminal (value) node.
func (n *Node) IsTerminal() bool { return n.t == nil }

// Value returns the terminal's bitvector; meaningless on internal
// nodes.
func (n *Node) Value() sym.BV { return n.val }

// IsTrue reports whether n is the width-1 terminal 1.
func (n *Node) IsTrue() bool { return n.IsTerminal() && n.val.W == 1 && n.val.IsTrue() }

// IsFalse reports whether n is the width-1 terminal 0.
func (n *Node) IsFalse() bool { return n.IsTerminal() && n.val.W == 1 && n.val.IsZero() }

// nodeKey is the structural identity used for hash-consing internal
// nodes.
type nodeKey struct {
	p    pred
	t, f *Node
}

// atomTab is one immutable snapshot of the atom table. Registration
// replaces the snapshot wholesale (copy-on-write under the Store
// mutex), so lock-free readers see a consistent list.
type atomTab struct {
	atoms []Atom
	index map[string]int32
}

// Store owns the hash-consed nodes and the atom table. See the
// package comment for the concurrency contract.
type Store struct {
	mu    sync.Mutex
	nodes map[nodeKey]*Node
	terms map[sym.BV]*Node
	tab   atomic.Pointer[atomTab]
	live  atomic.Int64 // lock-free node count mirror

	nTrue, nFalse *Node
}

// NewStore returns an empty diagram store.
func NewStore() *Store {
	s := &Store{
		nodes: make(map[nodeKey]*Node, 256),
		terms: make(map[sym.BV]*Node, 16),
	}
	s.tab.Store(&atomTab{index: make(map[string]int32)})
	s.nTrue = s.Term(sym.Bool(true))
	s.nFalse = s.Term(sym.Bool(false))
	return s
}

// NumNodes returns the number of distinct nodes interned, without
// taking the mutex — the measure the engine's sweep trigger and the
// benchmarks read.
func (s *Store) NumNodes() int { return int(s.live.Load()) }

// Register adds an atom (or returns the existing index when the name
// is already registered). Registration order is the variable order;
// the engine registers atoms serially under its write lock — at open
// in taint-frequency order, then append-only as fresh variables
// appear — so the order is deterministic. The returned index is the
// atom's level.
func (s *Store) Register(name string, width uint16) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	tab := s.tab.Load()
	if id, ok := tab.index[name]; ok {
		return id
	}
	next := &atomTab{
		atoms: append(append([]Atom(nil), tab.atoms...), Atom{Name: name, Width: width}),
		index: make(map[string]int32, len(tab.index)+1),
	}
	for k, v := range tab.index {
		next.index[k] = v
	}
	id := int32(len(tab.atoms))
	next.index[name] = id
	s.tab.Store(next)
	return id
}

// Atoms returns the current atom table snapshot (immutable; safe to
// hold and index concurrently with registration).
func (s *Store) Atoms() []Atom { return s.tab.Load().atoms }

// Has reports whether an atom is registered under name (lock-free).
func (s *Store) Has(name string) bool {
	_, ok := s.tab.Load().index[name]
	return ok
}

// lookup resolves an atom name without registering. Width must match;
// a mismatch (or an unknown name) reports false and the caller bails
// to the solver.
func (s *Store) lookup(name string, width uint16) (int32, bool) {
	tab := s.tab.Load()
	id, ok := tab.index[name]
	if !ok || tab.atoms[id].Width != width {
		return 0, false
	}
	return id, true
}

// Term returns the terminal node for value v.
func (s *Store) Term(v sym.BV) *Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.terms[v]; ok {
		return n
	}
	n := &Node{p: pred{atom: -1}, val: v}
	s.terms[v] = n
	s.live.Add(1)
	return n
}

// True returns the width-1 terminal 1.
func (s *Store) True() *Node { return s.nTrue }

// False returns the width-1 terminal 0.
func (s *Store) False() *Node { return s.nFalse }

// mk interns the internal node (p ? t : f), reducing identical
// branches on construction. Callers maintain the order invariant: p
// precedes every predicate in t and f (apply and compile only ever
// branch on the minimal predicate).
func (s *Store) mk(p pred, t, f *Node) *Node {
	if t == f {
		return t
	}
	key := nodeKey{p: p, t: t, f: f}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.nodes[key]; ok {
		return n
	}
	n := &Node{p: p, t: t, f: f}
	s.nodes[key] = n
	s.live.Add(1)
	return n
}

// predNode builds the leaf-level predicate diagram (p ? 1 : 0),
// normalizing so each semantic test has one form: width-1 atoms always
// test PredBool, `x < 1` becomes `x == 0`, and vacuous bounds fold to
// constants. Normalization is what makes structurally different but
// equivalent conditions land on the same pointer.
func (s *Store) predNode(atom int32, width uint16, kind PredKind, c sym.BV) *Node {
	switch kind {
	case PredEq:
		if width == 1 {
			// x == 1 is x; x == 0 is !x.
			if c.IsTrue() {
				return s.mk(pred{atom: atom, kind: PredBool, c: sym.Bool(true)}, s.nTrue, s.nFalse)
			}
			return s.mk(pred{atom: atom, kind: PredBool, c: sym.Bool(true)}, s.nFalse, s.nTrue)
		}
	case PredLt:
		if c.IsZero() {
			return s.nFalse // x < 0 is unsatisfiable
		}
		if c.Hi == 0 && c.Lo == 1 {
			// x < 1 is x == 0.
			return s.predNode(atom, width, PredEq, sym.BV{W: width})
		}
		if width == 1 {
			// c >= 2 on a 1-bit atom: always true. (c==1 handled above.)
			return s.nTrue
		}
	case PredBool:
		c = sym.Bool(true)
	}
	return s.mk(pred{atom: atom, kind: kind, c: c}, s.nTrue, s.nFalse)
}

// maskNode builds the ternary-match predicate diagram ((x & m) == c ?
// 1 : 0), normalizing the degenerate masks: bits of c outside m make
// the test unsatisfiable, a full mask is plain equality, and an empty
// mask holds vacuously.
func (s *Store) maskNode(atom int32, width uint16, m, c sym.BV) *Node {
	if !c.And(m.Not()).IsZero() {
		return s.nFalse
	}
	if m.IsAllOnes() {
		return s.predNode(atom, width, PredEq, c)
	}
	if m.IsZero() {
		return s.nTrue
	}
	return s.mk(pred{atom: atom, kind: PredMaskEq, c: c, m: m}, s.nTrue, s.nFalse)
}

// top returns n's predicate; terminals sort after every predicate.
func top(n *Node) (pred, bool) {
	if n.IsTerminal() {
		return pred{}, false
	}
	return n.p, true
}

// minPred returns the least predicate among the given nodes' roots; ok
// is false when all are terminals.
func minPred(ns ...*Node) (best pred, ok bool) {
	for _, n := range ns {
		if p, has := top(n); has {
			if !ok || p.less(best) {
				best, ok = p, true
			}
		}
	}
	return best, ok
}

// cofactor splits n by predicate p: when n branches on p it returns
// the two branches, otherwise n is independent of p and both cofactors
// are n itself.
func cofactor(n *Node, p pred) (t, f *Node) {
	if !n.IsTerminal() && n.p == p {
		return n.t, n.f
	}
	return n, n
}

// Ctx is a compilation context: the memo tables of one compiling
// goroutine over a Store. A Ctx is not safe for concurrent use; the
// engine keeps one in its evaluation scratch and discards it with the
// Store at every arena sweep (the compile memo is keyed on hash-consed
// *sym.Expr pointers, which a sweep retires).
type Ctx struct {
	st      *Store
	compile map[*sym.Expr]compileRes
	apply   map[applyKey]*Node
	cmpMemo map[cmpKey]*Node
	steps   int
	limit   int
}

type compileRes struct {
	n  *Node
	ok bool
}

// cmpKey memoizes one comparison-against-constant compilation
// (cmpConst, and maskCmp when masked is set).
type cmpKey struct {
	op      sym.Op
	x       *sym.Expr
	k       sym.BV
	m       sym.BV
	flipped bool
	masked  bool
}

// applyKey memoizes one apply step. Extract carries its bounds in the
// parameter slots; every other operator leaves them zero.
type applyKey struct {
	op      sym.Op
	a, b, c *Node
	p1, p2  uint16
}

// NewCtx returns a fresh compilation context over st.
func NewCtx(st *Store) *Ctx {
	return &Ctx{
		st:      st,
		compile: make(map[*sym.Expr]compileRes, 256),
		apply:   make(map[applyKey]*Node, 256),
		cmpMemo: make(map[cmpKey]*Node, 256),
	}
}

// Store returns the store this context compiles into.
func (c *Ctx) Store() *Store { return c.st }

// compileLimit bounds the work (node constructions + apply steps) one
// Compile call may perform before giving up; a blown budget means the
// condition does not have a compact diagram under the current order
// and the caller falls back to the solver.
const compileLimit = 1 << 17

// bailErr aborts a compilation. Both flavors memoize at the top-level
// expression — a structural bail because the residue shape can never
// compile, a budget bail because retrying the same pointer would burn
// the full limit again for the same answer (the memo is flushed on
// arena sweeps, so a genuinely changed residue — a new pointer — always
// gets a fresh attempt).
type bailErr struct{ budget bool }

func (c *Ctx) step() {
	c.steps++
	if c.steps > c.limit {
		panic(bailErr{budget: true})
	}
}

// Compile translates a simplified symbolic residue into a diagram.
// ok=false means the residue is out of the diagram fragment (e.g. an
// unregistered or non-match-key variable position, or the budget was
// blown) and the caller must use the solver path. Compilation is
// memoized on the hash-consed expression pointer, so re-compiling a
// residue that shares structure with previous ones — the common case
// after an incremental update — costs only the changed region.
func (c *Ctx) Compile(e *sym.Expr) (n *Node, ok bool) {
	return c.CompileBudget(e, compileLimit)
}

// CompileBudget is Compile under a caller-chosen work limit (clamped
// to the package cap). A budget bail is memoized against the expression
// pointer like any other: a later call with a larger limit still
// reports the cached failure, which is the behavior the engine wants —
// per-pointer verdicts must be stable until a sweep retires the memo.
func (c *Ctx) CompileBudget(e *sym.Expr, limit int) (n *Node, ok bool) {
	if r, hit := c.compile[e]; hit {
		return r.n, r.ok
	}
	c.steps = 0
	c.limit = min(limit, compileLimit)
	defer func() {
		if r := recover(); r != nil {
			if _, isBail := r.(bailErr); !isBail {
				panic(r)
			}
			n, ok = nil, false
			c.compile[e] = compileRes{}
		}
	}()
	return c.rec(e), true
}

// rec compiles one node, panicking with bailErr when the expression
// leaves the diagram fragment.
func (c *Ctx) rec(e *sym.Expr) *Node {
	if r, hit := c.compile[e]; hit {
		if !r.ok {
			panic(bailErr{})
		}
		return r.n
	}
	c.step()
	n := c.recUncached(e)
	c.compile[e] = compileRes{n: n, ok: true}
	return n
}

func (c *Ctx) recUncached(e *sym.Expr) *Node {
	st := c.st
	switch e.Op {
	case sym.OpConst:
		return st.Term(e.Val)
	case sym.OpVar:
		if e.Class != sym.DataVar || e.Width != 1 {
			// A wide variable has no finite terminal set; it only enters
			// the fragment through a predicate (Eq/Ult against a
			// constant), handled one level up. Control variables never
			// survive substitution.
			panic(bailErr{})
		}
		id, ok := st.lookup(e.Name, e.Width)
		if !ok {
			panic(bailErr{})
		}
		return st.predNode(id, e.Width, PredBool, sym.Bool(true))
	case sym.OpEq, sym.OpUlt:
		return c.cmp(e.Op, e.A, e.B)
	case sym.OpNot:
		return c.apply1(sym.OpNot, c.rec(e.A), 0, 0)
	case sym.OpExtract:
		return c.apply1(sym.OpExtract, c.rec(e.A), e.Hi, e.Lo)
	case sym.OpAnd, sym.OpOr, sym.OpXor, sym.OpAdd, sym.OpSub,
		sym.OpShl, sym.OpLshr, sym.OpConcat:
		return c.apply2(e.Op, c.rec(e.A), c.rec(e.B), 0, 0)
	case sym.OpIte:
		return c.ite(c.rec(e.A), c.rec(e.B), c.rec(e.C))
	default:
		panic(bailErr{})
	}
}

// cmp compiles the comparison `a op b`. When one side is constant it
// routes through cmpConst, which recognizes every predicate shape the
// fragment admits and pushes the comparison through ite chains so wide
// variables in value position reach predicate position; otherwise both
// sides compile independently and the comparison Shannon-expands.
func (c *Ctx) cmp(op sym.Op, a, b *sym.Expr) *Node {
	flipped := false
	if a.Op == sym.OpConst && b.Op != sym.OpConst {
		a, b, flipped = b, a, true
	}
	if b.Op == sym.OpConst {
		return c.cmpConst(op, a, b.Val, flipped)
	}
	return c.apply2(op, c.rec(a), c.rec(b), 0, 0)
}

// cmpConst compiles `x op k` (or `k op x` when flipped) against a
// constant, memoized per (x, k) pair so ite chains sharing hash-consed
// subtrees compile linearly:
//
//   - var op k is a single predicate node; for strict less-than with
//     the constant on the left, k < x is rewritten as !(x < k+1), with
//     the k == all-ones edge folding to false;
//   - (v & m) == k is the ternary-match predicate (maskCmp);
//   - ite(p, t, f) op k pushes the comparison into both branches —
//     this is what keeps a wide variable selected by protocol dispatch
//     (e.g. ite(isUDP, sport, 0) == 0x400) inside the fragment;
//   - a constant folds, and anything else falls back to Shannon
//     expansion over the compiled operands.
func (c *Ctx) cmpConst(op sym.Op, x *sym.Expr, k sym.BV, flipped bool) *Node {
	key := cmpKey{op: op, x: x, k: k, flipped: flipped}
	if n, ok := c.cmpMemo[key]; ok {
		return n
	}
	c.step()
	n := c.cmpConstUncached(op, x, k, flipped)
	c.cmpMemo[key] = n
	return n
}

func (c *Ctx) cmpConstUncached(op sym.Op, x *sym.Expr, k sym.BV, flipped bool) *Node {
	switch {
	case x.Op == sym.OpConst:
		if flipped {
			return c.st.Term(termOp(op, k, x.Val))
		}
		return c.st.Term(termOp(op, x.Val, k))
	case x.Op == sym.OpVar && x.Class == sym.DataVar:
		id, ok := c.st.lookup(x.Name, x.Width)
		if !ok {
			panic(bailErr{})
		}
		if op == sym.OpEq {
			return c.st.predNode(id, x.Width, PredEq, k)
		}
		if !flipped {
			return c.st.predNode(id, x.Width, PredLt, k)
		}
		// k < x  ≡  !(x < k+1); all-ones has no successor.
		if k == sym.AllOnes(k.W) {
			return c.st.False()
		}
		return c.not(c.st.predNode(id, x.Width, PredLt, k.Add(sym.NewBV(k.W, 1))))
	case x.Op == sym.OpIte:
		return c.ite(c.rec(x.A),
			c.cmpConst(op, x.B, k, flipped),
			c.cmpConst(op, x.C, k, flipped))
	case op == sym.OpEq && x.Op == sym.OpAnd &&
		(x.A.Op == sym.OpConst || x.B.Op == sym.OpConst):
		v, m := x.A, x.B
		if v.Op == sym.OpConst {
			v, m = m, v
		}
		return c.maskCmp(v, m.Val, k)
	}
	if flipped {
		return c.apply2(op, c.st.Term(k), c.rec(x), 0, 0)
	}
	return c.apply2(op, c.rec(x), c.st.Term(k), 0, 0)
}

// maskCmp compiles the ternary-match comparison (v & m) == k, pushing
// through ite and folding nested constant masks.
func (c *Ctx) maskCmp(v *sym.Expr, m, k sym.BV) *Node {
	key := cmpKey{op: sym.OpEq, x: v, k: k, m: m, masked: true}
	if n, ok := c.cmpMemo[key]; ok {
		return n
	}
	c.step()
	n := c.maskCmpUncached(v, m, k)
	c.cmpMemo[key] = n
	return n
}

func (c *Ctx) maskCmpUncached(v *sym.Expr, m, k sym.BV) *Node {
	switch {
	case v.Op == sym.OpConst:
		return c.st.Term(sym.Bool(v.Val.And(m) == k))
	case v.Op == sym.OpVar && v.Class == sym.DataVar:
		id, ok := c.st.lookup(v.Name, v.Width)
		if !ok {
			panic(bailErr{})
		}
		return c.st.maskNode(id, v.Width, m, k)
	case v.Op == sym.OpIte:
		return c.ite(c.rec(v.A), c.maskCmp(v.B, m, k), c.maskCmp(v.C, m, k))
	case v.Op == sym.OpAnd && (v.A.Op == sym.OpConst || v.B.Op == sym.OpConst):
		w, m2 := v.A, v.B
		if w.Op == sym.OpConst {
			w, m2 = m2, w
		}
		return c.maskCmp(w, m.And(m2.Val), k)
	}
	return c.apply2(sym.OpEq,
		c.apply2(sym.OpAnd, c.rec(v), c.st.Term(m), 0, 0),
		c.st.Term(k), 0, 0)
}

// not negates a width-1 diagram.
func (c *Ctx) not(n *Node) *Node { return c.apply1(sym.OpNot, n, 0, 0) }

// apply1 lifts a unary bitvector operator over a diagram's terminals.
func (c *Ctx) apply1(op sym.Op, a *Node, p1, p2 uint16) *Node {
	key := applyKey{op: op, a: a, p1: p1, p2: p2}
	if n, ok := c.apply[key]; ok {
		return n
	}
	c.step()
	var n *Node
	if a.IsTerminal() {
		switch op {
		case sym.OpNot:
			n = c.st.Term(a.val.Not())
		case sym.OpExtract:
			n = c.st.Term(a.val.Extract(p1, p2))
		default:
			panic(bailErr{})
		}
	} else {
		n = c.st.mk(a.p, c.apply1(op, a.t, p1, p2), c.apply1(op, a.f, p1, p2))
	}
	c.apply[key] = n
	return n
}

// apply2 lifts a binary bitvector operator pointwise over two
// diagrams, Shannon-expanding on the least root predicate. Terminal
// arithmetic mirrors the solver's evaluator exactly (including the
// shift-out-of-range guards), which is what makes diagram verdicts
// interchangeable with solver verdicts.
func (c *Ctx) apply2(op sym.Op, a, b *Node, p1, p2 uint16) *Node {
	// Boolean short-circuits: absorbing/identity terminals prune the
	// expansion without touching the memo (IsTrue/IsFalse only match
	// width-1 terminals, so wide operands pass through).
	if op == sym.OpAnd {
		if a.IsFalse() || b.IsTrue() {
			return a
		}
		if b.IsFalse() || a.IsTrue() {
			return b
		}
	}
	if op == sym.OpOr {
		if a.IsTrue() || b.IsFalse() {
			return a
		}
		if b.IsTrue() || a.IsFalse() {
			return b
		}
	}
	key := applyKey{op: op, a: a, b: b, p1: p1, p2: p2}
	if n, ok := c.apply[key]; ok {
		return n
	}
	c.step()
	var n *Node
	if a.IsTerminal() && b.IsTerminal() {
		n = c.st.Term(termOp(op, a.val, b.val))
	} else {
		p, _ := minPred(a, b)
		at, af := cofactor(a, p)
		bt, bf := cofactor(b, p)
		n = c.st.mk(p, c.apply2(op, at, bt, p1, p2), c.apply2(op, af, bf, p1, p2))
	}
	c.apply[key] = n
	return n
}

// ite Shannon-expands if-then-else over three diagrams; the condition
// is width-1.
func (c *Ctx) ite(cond, t, f *Node) *Node {
	if cond.IsTrue() {
		return t
	}
	if cond.IsFalse() {
		return f
	}
	if t == f {
		return t
	}
	key := applyKey{op: sym.OpIte, a: cond, b: t, c: f}
	if n, ok := c.apply[key]; ok {
		return n
	}
	c.step()
	p, _ := minPred(cond, t, f)
	ct, cf := cofactor(cond, p)
	tt, tf := cofactor(t, p)
	ft, ff := cofactor(f, p)
	n := c.st.mk(p, c.ite(ct, tt, ft), c.ite(cf, tf, ff))
	c.apply[key] = n
	return n
}

// termOp evaluates one binary operator on terminal values with the
// exact semantics of the solver's evaluator (sym/scratch.go).
func termOp(op sym.Op, a, b sym.BV) sym.BV {
	switch op {
	case sym.OpAnd:
		return a.And(b)
	case sym.OpOr:
		return a.Or(b)
	case sym.OpXor:
		return a.Xor(b)
	case sym.OpAdd:
		return a.Add(b)
	case sym.OpSub:
		return a.Sub(b)
	case sym.OpShl:
		if b.Hi != 0 || b.Lo >= uint64(a.W) {
			return sym.BV{W: a.W}
		}
		return a.Shl(uint(b.Lo))
	case sym.OpLshr:
		if b.Hi != 0 || b.Lo >= uint64(a.W) {
			return sym.BV{W: a.W}
		}
		return a.Lshr(uint(b.Lo))
	case sym.OpConcat:
		return a.Concat(b)
	case sym.OpEq:
		return sym.Bool(a.Eq(b))
	case sym.OpUlt:
		return sym.Bool(a.Ult(b))
	default:
		panic(bailErr{})
	}
}

// Format renders a diagram as a stable, human-readable text form for
// golden tests and debugging: one line per node in DFS order, shared
// nodes printed once and referenced by their DFS number.
func (s *Store) Format(n *Node) string {
	atoms := s.Atoms()
	var sb strings.Builder
	ids := map[*Node]int{}
	var walk func(n *Node) int
	walk = func(n *Node) int {
		if id, ok := ids[n]; ok {
			return -id // reference
		}
		if n.IsTerminal() {
			id := len(ids) + 1
			ids[n] = id
			fmt.Fprintf(&sb, "n%d: [%s]\n", id, n.val)
			return id
		}
		t := walk(n.t)
		f := walk(n.f)
		id := len(ids) + 1
		ids[n] = id
		fmt.Fprintf(&sb, "n%d: %s -> t:n%d f:n%d\n", id, formatPred(atoms, n.p), abs(t), abs(f))
		return id
	}
	root := walk(n)
	fmt.Fprintf(&sb, "root: n%d\n", abs(root))
	return sb.String()
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// formatPred renders one predicate with the paper's @var@ notation.
func formatPred(atoms []Atom, p pred) string {
	name := fmt.Sprintf("atom%d", p.atom)
	if int(p.atom) < len(atoms) {
		name = atoms[p.atom].Name
	}
	switch p.kind {
	case PredBool:
		return fmt.Sprintf("@%s@", name)
	case PredEq:
		return fmt.Sprintf("@%s@ == %s", name, p.c)
	case PredLt:
		return fmt.Sprintf("@%s@ < %s", name, p.c)
	default:
		return fmt.Sprintf("(@%s@ & %s) == %s", name, p.m, p.c)
	}
}

// SortAtomsByCount is the order-derivation helper: names sorted by
// descending count (taint frequency — how many program points test the
// atom), ties by name, so the order is deterministic per program.
func SortAtomsByCount(counts map[string]int) []string {
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if counts[names[i]] != counts[names[j]] {
			return counts[names[i]] > counts[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

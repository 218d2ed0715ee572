package sym

import (
	"math"
	"math/bits"
	"sort"
)

// SubstScratch holds the memo of substitution, indexed by the Builder's
// dense node ids, and keeps it from one pass to the next: an entry is a
// node's residue and the pass it was last known to hold at, and it holds
// for as long as no control target in the node's CtrlMask has been
// reported changed since (ResumeSubst). A pass therefore rewrites the
// nodes the changed targets reach and finds the rest. Residues are
// hash-consed, so a reused entry is the very pointer a rewrite would
// arrive at; targets sharing a mask bit are reported changed together,
// which rewrites more and changes nothing.
//
// The memo lives until Reset: whoever sweeps the Builder resets every
// scratch used on it (a sweep renumbers the ids and un-interns residues
// the memo still names). The zero value is ready to use. A SubstScratch
// may not be shared between concurrently substituting goroutines; give
// each its own and they can all rewrite through the same Builder
// (interning has its own lock, and substitution results are hash-consed
// so every goroutine arrives at the identical node pointers).
type SubstScratch struct {
	// val[id] is node id's residue as of pass at[id]; zero is never.
	val []*Expr
	at  []uint32
	// gen numbers the pass in flight; last[b] is the pass that last
	// reported mask bit b changed.
	gen  uint32
	last [64]uint32
	// dataKeys: the environment assigns something no mask bit tracks (a
	// data variable), so an empty mask proves nothing. Derived from the
	// environment by every pass that may change it.
	dataKeys bool
	rewrote  int64
}

// Reset drops the memo; the next pass on sc starts from nothing.
func (sc *SubstScratch) Reset() {
	clear(sc.val)
	clear(sc.at)
	sc.gen, sc.last, sc.dataKeys = 0, [64]uint32{}, false
}

// Rewritten returns how many nodes the passes on sc have rewritten so
// far — computed through the smart constructors rather than found in the
// memo or returned as they stand.
func (sc *SubstScratch) Rewritten() int64 { return sc.rewrote }

func (sc *SubstScratch) ensure(id uint64) {
	if int(id) < len(sc.val) {
		return
	}
	n := grown(len(sc.val), id)
	val := make([]*Expr, n)
	copy(val, sc.val)
	sc.val = val
	at := make([]uint32, n)
	copy(at, sc.at)
	sc.at = at
}

// holds reports whether a residue last known to hold at pass gen still
// does: no target in mask changed after it.
func (sc *SubstScratch) holds(mask uint64, gen uint32) bool {
	for ; mask != 0; mask &= mask - 1 {
		if sc.last[bits.TrailingZeros64(mask)] > gen {
			return false
		}
	}
	return true
}

// Subst rewrites e by replacing every variable that appears as a key in
// env with its mapped expression. The rewrite is bottom-up through the
// smart constructors, so the result is fully simplified: substituting a
// control-plane assignment into a data-plane expression *is* evaluating a
// specialization query (paper §4.1).
//
// Variables absent from env are left in place. The memo makes the cost
// proportional to the number of distinct DAG nodes, not the tree size.
// Subst uses the Builder's own memo and is therefore single-threaded;
// concurrent callers use SubstWith with per-goroutine scratch.
func (b *Builder) Subst(e *Expr, env map[*Expr]*Expr) *Expr {
	return b.SubstWith(&b.sub, e, env)
}

// SubstWith is Subst with caller-owned memo state, the concurrency-safe
// entry point for a one-off substitution: a pass of one expression.
func (b *Builder) SubstWith(sc *SubstScratch, e *Expr, env map[*Expr]*Expr) *Expr {
	return b.BeginSubst(sc, env).Subst(e)
}

// SubstPass is one substitution pass: every expression rewritten
// through it shares one memo, so a sub-DAG common to several of them —
// the path conditions the program points of one control block share —
// is rewritten once for the whole pass, not once per expression.
type SubstPass struct {
	b   *Builder
	sc  *SubstScratch
	env map[*Expr]*Expr
}

// BeginSubst opens a pass on sc for substituting an environment that
// has nothing to do with the last one sc saw: ResumeSubst with every
// target changed. The pass is valid as long as env is not mutated, sc is
// used by no other goroutine, and the Builder is not swept. Any number
// of goroutines may run passes through the same Builder as long as each
// brings its own SubstScratch.
func (b *Builder) BeginSubst(sc *SubstScratch, env map[*Expr]*Expr) SubstPass {
	return b.ResumeSubst(sc, env, ^uint64(0))
}

// ResumeSubst opens the next pass on sc. The caller promises that env
// assigns every variable whose CtrlMask lies outside changed what the
// previous pass's environment assigned it; the pass reuses what that
// leaves standing of the memo. Every bit set promises nothing, about
// variables no bit tracks either — that is BeginSubst, and what a first
// pass on sc always is.
func (b *Builder) ResumeSubst(sc *SubstScratch, env map[*Expr]*Expr, changed uint64) SubstPass {
	if sc.gen == math.MaxUint32 {
		sc.Reset() // pass numbers are compared by order: start over, never wrap
	}
	if sc.gen == 0 {
		changed = ^uint64(0) // nothing to resume
	}
	sc.gen++
	if changed == ^uint64(0) {
		sc.dataKeys = false
		for k := range env {
			if k.mask == 0 {
				sc.dataKeys = true
				break
			}
		}
	}
	for m := changed; m != 0; m &= m - 1 {
		sc.last[bits.TrailingZeros64(m)] = sc.gen
	}
	return SubstPass{b: b, sc: sc, env: env}
}

// Subst rewrites e under the pass's environment.
func (p SubstPass) Subst(e *Expr) *Expr {
	if len(p.env) == 0 {
		return e
	}
	return p.subst(e)
}

func (p SubstPass) subst(e *Expr) *Expr {
	b, sc, id := p.b, p.sc, e.id
	if e.mask == 0 && !sc.dataKeys {
		return e // nothing the environment assigns occurs below
	}
	sc.ensure(id)
	// An entry of this pass holds; one of an earlier pass holds when the
	// mask vouches for it (an empty mask vouches for nothing: what made
	// it matter, a data-variable key, is tracked by no bit).
	if at := sc.at[id]; at == sc.gen || e.mask != 0 && sc.holds(e.mask, at) {
		sc.at[id] = sc.gen
		return sc.val[id]
	}
	sc.rewrote++
	var r *Expr
	switch e.Op {
	case OpConst:
		r = e
	case OpVar:
		if repl, ok := p.env[e]; ok {
			r = repl
		} else {
			r = e
		}
	case OpNot:
		r = b.Not(p.subst(e.A))
	case OpAnd:
		r = b.And(p.subst(e.A), p.subst(e.B))
	case OpOr:
		r = b.Or(p.subst(e.A), p.subst(e.B))
	case OpXor:
		r = b.Xor(p.subst(e.A), p.subst(e.B))
	case OpAdd:
		r = b.Add(p.subst(e.A), p.subst(e.B))
	case OpSub:
		r = b.Sub(p.subst(e.A), p.subst(e.B))
	case OpShl:
		r = b.Shl(p.subst(e.A), p.subst(e.B))
	case OpLshr:
		r = b.Lshr(p.subst(e.A), p.subst(e.B))
	case OpConcat:
		r = b.Concat(p.subst(e.A), p.subst(e.B))
	case OpExtract:
		r = b.Extract(p.subst(e.A), e.Hi, e.Lo)
	case OpEq:
		r = b.Eq(p.subst(e.A), p.subst(e.B))
	case OpUlt:
		r = b.Ult(p.subst(e.A), p.subst(e.B))
	case OpIte:
		r = b.Ite(p.subst(e.A), p.subst(e.B), p.subst(e.C))
	default:
		panic("sym: unknown op in subst")
	}
	// The recursion above may have grown the memo and moved it.
	sc.val[id], sc.at[id] = r, sc.gen
	return r
}

// Vars returns every distinct variable node reachable from e, in
// deterministic (creation-id) order, optionally filtered by class.
func Vars(e *Expr, class VarClass, includeAll bool) []*Expr {
	seen := make(map[*Expr]bool, 32)
	var out []*Expr
	var walk func(*Expr)
	walk = func(n *Expr) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		if n.Op == OpVar && (includeAll || n.Class == class) {
			out = append(out, n)
		}
		walk(n.A)
		walk(n.B)
		walk(n.C)
	}
	walk(e)
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// CtrlVars returns the control-plane variables appearing in e. The taint
// map of the incremental specializer is built from this (paper §4.1:
// "Flay maintains a map which associates a control-plane variable with
// the set of program points it can influence").
func CtrlVars(e *Expr) []*Expr { return Vars(e, CtrlVar, false) }

// DataVars returns the data-plane variables appearing in e.
func DataVars(e *Expr) []*Expr { return Vars(e, DataVar, false) }

// AllVars returns every variable appearing in e.
func AllVars(e *Expr) []*Expr { return Vars(e, DataVar, true) }

// HasCtrlVars reports whether any control-plane placeholder remains in e.
func HasCtrlVars(e *Expr) bool {
	seen := make(map[*Expr]bool, 32)
	var walk func(*Expr) bool
	walk = func(n *Expr) bool {
		if n == nil || seen[n] {
			return false
		}
		seen[n] = true
		if n.Op == OpVar && n.Class == CtrlVar {
			return true
		}
		return walk(n.A) || walk(n.B) || walk(n.C)
	}
	return walk(e)
}

// Size returns the number of distinct DAG nodes reachable from e.
func Size(e *Expr) int {
	seen := make(map[*Expr]bool, 64)
	var walk func(*Expr)
	walk = func(n *Expr) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		walk(n.A)
		walk(n.B)
		walk(n.C)
	}
	walk(e)
	return len(seen)
}

package sym

import "sort"

// SubstScratch holds the memo of a substitution: result and
// generation-mark arrays indexed by the Builder's dense node ids. The
// zero value is ready to use. A SubstScratch may not be shared between
// concurrently substituting goroutines; give each its own and they can
// all rewrite through the same Builder (interning has its own lock, and
// substitution results are hash-consed so every goroutine arrives at the
// identical node pointers).
type SubstScratch struct {
	val   []*Expr
	mark  []uint32
	epoch uint32
}

func (sc *SubstScratch) ensure(id uint64) {
	if int(id) < len(sc.val) {
		return
	}
	n := grown(len(sc.val), id)
	vals := make([]*Expr, n)
	copy(vals, sc.val)
	sc.val = vals
	marks := make([]uint32, n)
	copy(marks, sc.mark)
	sc.mark = marks
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

// SubstPass is one substitution generation: every expression rewritten
// through it shares one memo, so a sub-DAG common to several of them —
// the path conditions the program points of one control block share —
// is rewritten once for the whole pass, not once per expression.
type SubstPass struct {
	b   *Builder
	sc  *SubstScratch
	env map[*Expr]*Expr
}

// BeginSubst opens a new memo generation on sc for substituting env and
// retires the previous one. The pass is valid as long as env is not
// mutated, sc is used by no other goroutine, and the Builder is not
// swept (a sweep renumbers the node ids the memo is indexed by): open a
// new pass after any of the three. Any number of goroutines may run
// passes through the same Builder as long as each brings its own
// SubstScratch.
func (b *Builder) BeginSubst(sc *SubstScratch, env map[*Expr]*Expr) SubstPass {
	// Generation-marked memo indexed by dense node id: nothing to clear.
	sc.epoch++
	return SubstPass{b: b, sc: sc, env: env}
}

// Subst rewrites e under the pass's environment.
func (p SubstPass) Subst(e *Expr) *Expr {
	if len(p.env) == 0 {
		return e
	}
	return p.b.subst(p.sc, e, p.env)
}

func (b *Builder) subst(sc *SubstScratch, e *Expr, env map[*Expr]*Expr) *Expr {
	id := e.id
	sc.ensure(id)
	if sc.mark[id] == sc.epoch {
		return sc.val[id]
	}
	var r *Expr
	switch e.Op {
	case OpConst:
		r = e
	case OpVar:
		if repl, ok := env[e]; ok {
			r = repl
		} else {
			r = e
		}
	case OpNot:
		r = b.Not(b.subst(sc, e.A, env))
	case OpAnd:
		r = b.And(b.subst(sc, e.A, env), b.subst(sc, e.B, env))
	case OpOr:
		r = b.Or(b.subst(sc, e.A, env), b.subst(sc, e.B, env))
	case OpXor:
		r = b.Xor(b.subst(sc, e.A, env), b.subst(sc, e.B, env))
	case OpAdd:
		r = b.Add(b.subst(sc, e.A, env), b.subst(sc, e.B, env))
	case OpSub:
		r = b.Sub(b.subst(sc, e.A, env), b.subst(sc, e.B, env))
	case OpShl:
		r = b.Shl(b.subst(sc, e.A, env), b.subst(sc, e.B, env))
	case OpLshr:
		r = b.Lshr(b.subst(sc, e.A, env), b.subst(sc, e.B, env))
	case OpConcat:
		r = b.Concat(b.subst(sc, e.A, env), b.subst(sc, e.B, env))
	case OpExtract:
		r = b.Extract(b.subst(sc, e.A, env), e.Hi, e.Lo)
	case OpEq:
		r = b.Eq(b.subst(sc, e.A, env), b.subst(sc, e.B, env))
	case OpUlt:
		r = b.Ult(b.subst(sc, e.A, env), b.subst(sc, e.B, env))
	case OpIte:
		r = b.Ite(b.subst(sc, e.A, env), b.subst(sc, e.B, env), b.subst(sc, e.C, env))
	default:
		panic("sym: unknown op in subst")
	}
	// The smart constructors above may have grown the arena past the
	// point this node was checked; re-ensure before writing.
	sc.ensure(id)
	sc.mark[id] = sc.epoch
	sc.val[id] = r
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

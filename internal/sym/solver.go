package sym

// Verdict is the answer of a satisfiability query.
type Verdict uint8

const (
	// Unsat means no assignment of the free variables makes the formula
	// true. Unsat answers are proofs (constant-false after
	// simplification, or exhaustive enumeration of a small domain).
	Unsat Verdict = iota
	// Sat means a witness assignment was found.
	Sat
	// Unknown means the formula's free variables exceed the exhaustive
	// bound, so neither a witness nor a refutation was looked for.
	// Callers must treat Unknown conservatively: code that "may be
	// executable" stays, a variable that "may vary" is not replaced by a
	// constant, and a verdict that "may have changed" triggers
	// recompilation. That keeps the specializer sound where the solver
	// does not decide.
	Unknown
)

func (v Verdict) String() string {
	switch v {
	case Unsat:
		return "unsat"
	case Sat:
		return "sat"
	default:
		return "unknown"
	}
}

// Solver holds the evaluation and width-walk scratch of the queries
// Flay puts to a residue: Eval, FreeVars and Wide serve the engine's
// decision procedure (internal/core decide), which proves on decision
// diagrams and checks every walk-derived witness with Eval. Check,
// CheckWitness and ConstValue decide a residue by enumerating its
// domain: a literal answers itself; a residue whose distinct free
// variables exceed DefaultExhaustiveBits is not decided at all (Wide —
// no search could end in a proof, so none runs); inside the bound a
// caller-supplied witness is re-evaluated, and then the whole domain is
// enumerated. They are the reference the engine's tests hold its
// verdicts to; the engine itself does not enumerate.
type Solver struct {
	// Metrics, when set, counts how much evaluation and width walking
	// the queries cost. Nil disables accounting at zero cost. Shared
	// across solvers safely: the underlying instruments are atomic.
	Metrics *SolverMetrics

	sc scratch
}

// DefaultExhaustiveBits is the exhaustive-search bound: the largest
// total width of a residue's distinct free variables for which the
// solver's search is complete (Unsat- and Const-capable). Every proof
// the engine acts on is confined to residues inside this bound, which
// is what lets the enumeration serve as its reference.
const DefaultExhaustiveBits = 16

// NewSolver returns a Solver.
func NewSolver() *Solver { return &Solver{} }

// Eval evaluates e under env using the solver's memoized scratch. It
// reports false when a variable needed by the evaluation is
// unassigned. The decision-diagram path uses it to verify walk-derived
// witnesses against the residue before installing them.
func (s *Solver) Eval(e *Expr, env Env) (BV, bool) {
	s.Metrics.eval()
	return s.sc.eval(e, env)
}

// FreeVars collects the distinct variable nodes reachable from e,
// sorted by builder id — the enumeration order of the exhaustive
// search.
func (s *Solver) FreeVars(e *Expr) []*Expr {
	return s.sc.vars(e)
}

// Wide reports whether the distinct free variables of e total more than
// DefaultExhaustiveBits — the one rule that separates residues the
// solver (and the engine's diagram core) may prove things about from
// residues that are Live/Varies by construction. The walk marks shared
// DAG nodes, counts a repeated variable once, and stops at the first
// variable that crosses the bound, so on the deep entry-match chains of
// a populated table it visits a handful of nodes, not the chain.
func (s *Solver) Wide(e *Expr) bool {
	_, wide := s.narrowVars(e)
	return wide
}

// narrowVars is Wide that also hands back what it found: the distinct
// free variables of e sorted by id when they fit the exhaustive bound,
// or wide=true (and no variables) the moment they do not.
func (s *Solver) narrowVars(e *Expr) (vars []*Expr, wide bool) {
	vars, visited, wide := s.sc.varsWithin(e, DefaultExhaustiveBits)
	s.Metrics.widthWalk(visited)
	return vars, wide
}

// Check reports whether the width-1 expression e is satisfiable over its
// free variables.
func (s *Solver) Check(e *Expr) Verdict {
	v, _ := s.CheckWitness(e, nil)
	return v
}

// CheckWitness is Check with witness support: when the result is Sat it
// returns a satisfying assignment, and a witness from a previous query
// (hint) is tried first, so re-proving a liveness the last witness
// still shows costs one evaluation. A Wide formula answers Unknown
// without evaluating anything.
func (s *Solver) CheckWitness(e *Expr, hint Env) (Verdict, Env) {
	if e.Width != 1 {
		panic("sym: Check requires a width-1 expression")
	}
	if e.IsTrue() {
		return Sat, Env{}
	}
	if e.IsFalse() {
		return Unsat, nil
	}
	vars, wide := s.narrowVars(e)
	if wide {
		return Unknown, nil
	}
	if len(vars) == 0 {
		// Simplification leaves closed terms constant; a non-constant
		// closed term would be a simplifier bug.
		if v, ok := s.Eval(e, nil); !ok || !v.IsTrue() {
			return Unknown, nil
		}
		return Sat, Env{}
	}
	if len(hint) > 0 {
		if out, ok := s.Eval(e, hint); ok && out.IsTrue() {
			return Sat, hint
		}
	}
	if env := s.exhaustive(e, vars); env != nil {
		return Sat, env
	}
	return Unsat, nil
}

// exhaustive enumerates every assignment of vars (total width small) and
// returns a satisfying assignment, or nil when none exists.
func (s *Solver) exhaustive(e *Expr, vars []*Expr) Env {
	env := make(Env, len(vars))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			out, ok := s.Eval(e, env)
			return ok && out.IsTrue()
		}
		v := vars[i]
		n := uint64(1) << v.Width
		for x := uint64(0); x < n; x++ {
			env[v] = NewBV(v.Width, x)
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	if rec(0) {
		return env
	}
	return nil
}

// ConstResult is the answer of a constant-ness query.
type ConstResult struct {
	// Known reports whether the query was decided at all.
	Known bool
	// IsConst is meaningful only when Known; it reports whether the
	// expression evaluates to the same value under every assignment.
	IsConst bool
	// Val holds that value when Known && IsConst.
	Val BV
}

// ConstValue decides whether e denotes a single value regardless of its
// free variables — the paper's "can we replace this program variable with
// a constant?" query. A simplifier-produced literal is constant; a Wide
// expression is not decided (Known=false, nothing evaluated); inside the
// bound the enumeration certifies IsConst=true or stops at the first two
// differing values with a definite IsConst=false.
func (s *Solver) ConstValue(e *Expr) ConstResult {
	if e.Op == OpConst {
		return ConstResult{Known: true, IsConst: true, Val: e.Val}
	}
	vars, wide := s.narrowVars(e)
	if wide {
		return ConstResult{}
	}
	var first BV
	have, same := false, true
	env := make(Env, len(vars))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			out, ok := s.Eval(e, env)
			switch {
			case !ok:
				return false
			case !have:
				first, have = out, true
			case out != first:
				same = false
				return false
			}
			return true
		}
		v := vars[i]
		n := uint64(1) << v.Width
		for x := uint64(0); x < n; x++ {
			env[v] = NewBV(v.Width, x)
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	if !rec(0) && same {
		// An evaluation failed (a closed term the evaluator cannot
		// reduce, or an operator it does not know): undecided.
		return ConstResult{}
	}
	if same {
		return ConstResult{Known: true, IsConst: true, Val: first}
	}
	return ConstResult{Known: true, IsConst: false}
}

package sym

// The probing solver the engine ran before the width rule: candidate
// points harvested from comparisons, their cartesian product, and
// pseudo-random assignments, in front of (CheckWitness: instead of,
// past the bound) the exhaustive pass. It survives as the reference the
// solver is differentially tested against — as the engine reads the two
// (Unsat ⇔ Dead, Known && IsConst ⇔ Const), the answers must coincide
// on every input, because past the exhaustive bound the probing could
// only ever move an answer between Sat and Unknown, or between "refuted"
// and "not known", and the engine reads each pair as one verdict.
type probingSolver struct {
	rng uint64
	sc  scratch
}

// ProbingSolver exports the reference to the external test package
// (fuzz_test.go), which owns the expression generator.
type ProbingSolver = probingSolver

const (
	oracleProbes           = 1024
	oracleRandomProbes     = 128
	oracleCandidatesPerVar = 12
)

func NewProbingSolver() *ProbingSolver {
	return &probingSolver{rng: 0x9e3779b97f4a7c15}
}

func (s *probingSolver) next() uint64 {
	// xorshift64*: deterministic, dependency-free probe source.
	x := s.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.rng = x
	return x * 0x2545f4914f6cdd1d
}

func (s *probingSolver) CheckWitness(e *Expr, hint Env) (Verdict, Env) {
	if e.Width != 1 {
		panic("sym: Check requires a width-1 expression")
	}
	if e.IsTrue() {
		return Sat, Env{}
	}
	if e.IsFalse() {
		return Unsat, nil
	}
	vars := s.sc.vars(e)
	if len(vars) == 0 {
		if v, ok := s.sc.eval(e, nil); !ok || !v.IsTrue() {
			return Unknown, nil
		}
		return Sat, Env{}
	}
	if len(hint) > 0 {
		if out, ok := s.sc.eval(e, hint); ok && out.IsTrue() {
			return Sat, hint
		}
	}

	// Exhaustive search decides small domains exactly.
	totalBits := 0
	for _, v := range vars {
		totalBits += int(v.Width)
		if totalBits > DefaultExhaustiveBits {
			totalBits = -1
			break
		}
	}
	if totalBits >= 0 {
		if env := s.exhaustive(e, vars); env != nil {
			return Sat, env
		}
		return Unsat, nil
	}

	// Candidate-point probing: boundary values plus constants harvested
	// from comparisons, then deterministic pseudo-random assignments.
	cands := s.candidates(e, vars)
	if env := s.probeCombos(e, vars, cands); env != nil {
		return Sat, env
	}
	env := make(Env, len(vars))
	for i := 0; i < oracleRandomProbes; i++ {
		for _, v := range vars {
			env[v] = NewBV2(v.Width, s.next(), s.next())
		}
		if out, ok := s.sc.eval(e, env); ok && out.IsTrue() {
			return Sat, copyEnv(env)
		}
	}
	return Unknown, nil
}

func copyEnv(env Env) Env {
	out := make(Env, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

func (s *probingSolver) exhaustive(e *Expr, vars []*Expr) Env {
	env := make(Env, len(vars))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			out, ok := s.sc.eval(e, env)
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

// candidates harvests, per variable, the interesting values: zero,
// all-ones, one, and every constant the variable is compared against
// (plus neighbours, for strict inequalities).
func (s *probingSolver) candidates(e *Expr, vars []*Expr) map[*Expr][]BV {
	out := make(map[*Expr][]BV, len(vars))
	add := func(v *Expr, val BV) {
		if val.W != v.Width {
			return
		}
		for _, have := range out[v] {
			if have == val {
				return
			}
		}
		if len(out[v]) < oracleCandidatesPerVar {
			out[v] = append(out[v], val)
		}
	}
	for _, v := range vars {
		add(v, BV{W: v.Width})
		add(v, AllOnes(v.Width))
		add(v, NewBV(v.Width, 1))
	}
	seen := make(map[*Expr]bool)
	var walk func(*Expr)
	walk = func(n *Expr) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		if n.Op == OpEq || n.Op == OpUlt {
			va, cb := n.A, n.B
			if va.Op == OpConst {
				va, cb = cb, va
			}
			if va.Op == OpVar && cb.Op == OpConst {
				add(va, cb.Val)
				one := NewBV(cb.Val.W, 1)
				add(va, cb.Val.Add(one))
				add(va, cb.Val.Sub(one))
			}
		}
		walk(n.A)
		walk(n.B)
		walk(n.C)
	}
	walk(e)
	return out
}

// probeCombos tries the cartesian product of per-variable candidates,
// capped by the probe budget. It returns a satisfying assignment or
// nil.
func (s *probingSolver) probeCombos(e *Expr, vars []*Expr, cands map[*Expr][]BV) Env {
	total := 1
	for _, v := range vars {
		total *= len(cands[v])
		if total > oracleProbes {
			total = -1
			break
		}
	}
	env := make(Env, len(vars))
	if total > 0 {
		var rec func(i int) bool
		rec = func(i int) bool {
			if i == len(vars) {
				out, ok := s.sc.eval(e, env)
				return ok && out.IsTrue()
			}
			for _, val := range cands[vars[i]] {
				env[vars[i]] = val
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
	// Too many combinations: sample them.
	for i := 0; i < oracleProbes; i++ {
		for _, v := range vars {
			cs := cands[v]
			env[v] = cs[int(s.next()%uint64(len(cs)))]
		}
		if out, ok := s.sc.eval(e, env); ok && out.IsTrue() {
			return copyEnv(env)
		}
	}
	return nil
}

func (s *probingSolver) ConstValue(e *Expr) ConstResult {
	if e.Op == OpConst {
		return ConstResult{Known: true, IsConst: true, Val: e.Val}
	}
	vars := s.sc.vars(e)
	if len(vars) == 0 {
		v, ok := s.sc.eval(e, nil)
		if !ok {
			return ConstResult{}
		}
		return ConstResult{Known: true, IsConst: true, Val: v}
	}

	// Find two differing evaluations to refute constant-ness fast.
	var first BV
	haveFirst := false
	tryEnv := func(env Env) (done bool, res ConstResult) {
		out, ok := s.sc.eval(e, env)
		if !ok {
			return false, ConstResult{}
		}
		if !haveFirst {
			first, haveFirst = out, true
			return false, ConstResult{}
		}
		if out != first {
			return true, ConstResult{Known: true, IsConst: false}
		}
		return false, ConstResult{}
	}

	cands := s.candidates(e, vars)
	env := make(Env, len(vars))
	for probe := 0; probe < 64; probe++ {
		for _, v := range vars {
			cs := cands[v]
			if probe < len(cs) {
				env[v] = cs[probe%len(cs)]
			} else {
				env[v] = NewBV2(v.Width, s.next(), s.next())
			}
		}
		if done, res := tryEnv(env); done {
			return res
		}
	}

	// No refutation found; only an exhaustive pass can certify.
	totalBits := 0
	for _, v := range vars {
		totalBits += int(v.Width)
		if totalBits > DefaultExhaustiveBits {
			return ConstResult{}
		}
	}
	same := true
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			out, ok := s.sc.eval(e, env)
			if !ok {
				return false
			}
			if !haveFirst {
				first, haveFirst = out, true
				return true
			}
			if out != first {
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
	rec(0)
	if same && haveFirst {
		return ConstResult{Known: true, IsConst: true, Val: first}
	}
	return ConstResult{Known: true, IsConst: false}
}

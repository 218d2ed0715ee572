package sym

import (
	"math"
	"sort"
)

// scratch holds the Solver's reusable per-node state: evaluation memos
// and visited marks indexed by the Builder's dense node IDs. Epoch
// counters avoid clearing between queries: an exhaustive search
// evaluates up to 2^16 assignments, and the width walk runs once per
// re-evaluated point.
type scratch struct {
	vals     []BV
	valMark  []uint32
	valEpoch uint32

	seen      []uint32
	seenEpoch uint32

	// State of one varsWithin walk: the variables found so far (the
	// buffer is reused across walks), their summed width against the
	// bound, and the nodes visited.
	within  []*Expr
	bits    int
	bound   int
	visited int
}

// ensureVals sizes the evaluation memo for node id, ensureSeen the
// visited marks. They grow apart: every re-evaluated point's residue is
// walked for its width, but only one inside the exhaustive bound is ever
// evaluated, so an engine whose residues are all wide never pays the
// (seven times larger) evaluation memo.
func (sc *scratch) ensureVals(id uint64) {
	if int(id) < len(sc.vals) {
		return
	}
	n := grown(len(sc.vals), id)
	vals := make([]BV, n)
	copy(vals, sc.vals)
	sc.vals = vals
	vm := make([]uint32, n)
	copy(vm, sc.valMark)
	sc.valMark = vm
}

func (sc *scratch) ensureSeen(id uint64) {
	if int(id) < len(sc.seen) {
		return
	}
	sn := make([]uint32, grown(len(sc.seen), id))
	copy(sn, sc.seen)
	sc.seen = sn
}

// grown is the length an id-indexed array of length have takes on to
// hold id: at least double, so growth stays amortized.
func grown(have int, id uint64) int {
	return max(int(id)+1, 2*have)
}

// eval computes e under env with epoch-memoized reuse. It reports false
// when a variable is unassigned.
func (sc *scratch) eval(e *Expr, env Env) (BV, bool) {
	sc.valEpoch++
	return sc.evalRec(e, env)
}

func (sc *scratch) evalRec(e *Expr, env Env) (BV, bool) {
	id := e.id
	sc.ensureVals(id)
	if sc.valMark[id] == sc.valEpoch {
		return sc.vals[id], true
	}
	var v BV
	switch e.Op {
	case OpConst:
		v = e.Val
	case OpVar:
		val, ok := env[e]
		if !ok || val.W != e.Width {
			return BV{}, false
		}
		v = val
	case OpNot:
		a, ok := sc.evalRec(e.A, env)
		if !ok {
			return BV{}, false
		}
		v = a.Not()
	case OpExtract:
		a, ok := sc.evalRec(e.A, env)
		if !ok {
			return BV{}, false
		}
		v = a.Extract(e.Hi, e.Lo)
	case OpIte:
		c, ok := sc.evalRec(e.A, env)
		if !ok {
			return BV{}, false
		}
		if c.IsTrue() {
			v, ok = sc.evalRec(e.B, env)
		} else {
			v, ok = sc.evalRec(e.C, env)
		}
		if !ok {
			return BV{}, false
		}
	default:
		a, ok := sc.evalRec(e.A, env)
		if !ok {
			return BV{}, false
		}
		b, ok := sc.evalRec(e.B, env)
		if !ok {
			return BV{}, false
		}
		switch e.Op {
		case OpAnd:
			v = a.And(b)
		case OpOr:
			v = a.Or(b)
		case OpXor:
			v = a.Xor(b)
		case OpAdd:
			v = a.Add(b)
		case OpSub:
			v = a.Sub(b)
		case OpShl:
			if b.Hi != 0 || b.Lo >= uint64(a.W) {
				v = BV{W: a.W}
			} else {
				v = a.Shl(uint(b.Lo))
			}
		case OpLshr:
			if b.Hi != 0 || b.Lo >= uint64(a.W) {
				v = BV{W: a.W}
			} else {
				v = a.Lshr(uint(b.Lo))
			}
		case OpConcat:
			v = a.Concat(b)
		case OpEq:
			v = Bool(a.Eq(b))
		case OpUlt:
			v = Bool(a.Ult(b))
		default:
			return BV{}, false
		}
	}
	sc.valMark[id] = sc.valEpoch
	sc.vals[id] = v
	return v, true
}

// vars collects every variable node reachable from e, sorted by id, in
// a slice the caller owns.
func (sc *scratch) vars(e *Expr) []*Expr {
	vars, _, _ := sc.varsWithin(e, math.MaxInt)
	return append([]*Expr(nil), vars...)
}

// varsWithin collects the distinct variable nodes reachable from e,
// sorted by id, as long as their widths sum to at most bound. The walk
// stops at the first variable that takes the sum past the bound and
// reports wide=true with no variables; visited is the number of DAG
// nodes it looked at either way. The returned slice is the scratch's
// own buffer, valid until the next walk.
func (sc *scratch) varsWithin(e *Expr, bound int) (vars []*Expr, visited int, wide bool) {
	sc.seenEpoch++
	sc.within, sc.bits, sc.bound, sc.visited = sc.within[:0], 0, bound, 0
	if !sc.walkWithin(e) {
		return nil, sc.visited, true
	}
	vars = sc.within
	sort.Slice(vars, func(i, j int) bool { return vars[i].id < vars[j].id })
	return vars, sc.visited, false
}

// walkWithin visits n's unmarked DAG below it, condition before
// branches (an entry-match chain names its key variables in the first
// condition); false means the bound was crossed and the walk is over.
func (sc *scratch) walkWithin(n *Expr) bool {
	if n == nil {
		return true
	}
	sc.ensureSeen(n.id)
	if sc.seen[n.id] == sc.seenEpoch {
		return true
	}
	sc.seen[n.id] = sc.seenEpoch
	sc.visited++
	if n.Op == OpVar {
		sc.bits += int(n.Width)
		if sc.bits > sc.bound {
			return false
		}
		sc.within = append(sc.within, n)
		return true
	}
	return sc.walkWithin(n.A) && sc.walkWithin(n.B) && sc.walkWithin(n.C)
}

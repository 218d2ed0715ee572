package sym

import "repro/internal/obs"

// SolverMetrics is the solver's observability hook: how often each
// query path decides, how well the witness cache works, and how deep
// the expressions reaching the solver are after simplification. A nil
// *SolverMetrics (the default) disables everything at zero cost; the
// counters themselves are atomic, so one SolverMetrics may be shared by
// solvers running on different goroutines (the engine's evaluation
// scratch and its read-locked differential check).
type SolverMetrics struct {
	// Check/CheckWitness accounting.
	Queries     *obs.Counter // satisfiability queries answered
	WitnessHits *obs.Counter // hint witness still satisfied (cache hit)
	WitnessMiss *obs.Counter // hint supplied but no longer satisfies
	Exhaustive  *obs.Counter // decided by exhaustive small-domain search
	Unknown     *obs.Counter // not decided: free variables past the exhaustive bound

	// ConstValue accounting.
	ConstQueries *obs.Counter // constant-ness queries answered
	ConstProved  *obs.Counter // certified constant (literal or exhaustive)
	ConstRefuted *obs.Counter // two differing evaluations found
	ConstUnknown *obs.Counter // not decided: free variables past the exhaustive bound

	// Work accounting: Evals counts full evaluations of a residue under
	// one assignment (hint re-proofs, enumeration steps, the diagram
	// path's witness checks), WidthNodes the DAG nodes the width rule
	// visited — the two costs a query can have.
	Evals      *obs.Counter
	WidthNodes *obs.Counter

	// QueryDepth is the high-water DAG depth of expressions entering the
	// solver — the residue the simplifier could not fold away.
	QueryDepth *obs.Gauge
}

// NewSolverMetrics resolves the solver's instruments from a registry
// under the "sym." prefix. A nil registry yields nil (disabled).
func NewSolverMetrics(r *obs.Registry) *SolverMetrics {
	if r == nil {
		return nil
	}
	return &SolverMetrics{
		Queries:      r.Counter("sym.solver.queries"),
		WitnessHits:  r.Counter("sym.solver.witness_hits"),
		WitnessMiss:  r.Counter("sym.solver.witness_misses"),
		Exhaustive:   r.Counter("sym.solver.exhaustive"),
		Unknown:      r.Counter("sym.solver.unknown"),
		ConstQueries: r.Counter("sym.solver.const_queries"),
		ConstProved:  r.Counter("sym.solver.const_proved"),
		ConstRefuted: r.Counter("sym.solver.const_refuted"),
		ConstUnknown: r.Counter("sym.solver.const_unknown"),
		Evals:        r.Counter("sym.solver.evals"),
		WidthNodes:   r.Counter("sym.solver.width_nodes"),
		QueryDepth:   r.Gauge("sym.solver.query_depth_max"),
	}
}

// The nil-safe instrumentation sites below keep the solver free of nil
// checks at every increment.

func (m *SolverMetrics) query(e *Expr) {
	if m == nil {
		return
	}
	m.Queries.Inc()
	m.QueryDepth.Max(int64(e.Depth()))
}

func (m *SolverMetrics) constQuery(e *Expr) {
	if m == nil {
		return
	}
	m.ConstQueries.Inc()
	m.QueryDepth.Max(int64(e.Depth()))
}

func (m *SolverMetrics) witnessHit() {
	if m != nil {
		m.WitnessHits.Inc()
	}
}

func (m *SolverMetrics) witnessMiss() {
	if m != nil {
		m.WitnessMiss.Inc()
	}
}

func (m *SolverMetrics) exhaustive() {
	if m != nil {
		m.Exhaustive.Inc()
	}
}

func (m *SolverMetrics) unknown() {
	if m != nil {
		m.Unknown.Inc()
	}
}

func (m *SolverMetrics) constProved() {
	if m != nil {
		m.ConstProved.Inc()
	}
}

func (m *SolverMetrics) constRefuted() {
	if m != nil {
		m.ConstRefuted.Inc()
	}
}

func (m *SolverMetrics) constUnknown() {
	if m != nil {
		m.ConstUnknown.Inc()
	}
}

func (m *SolverMetrics) eval() {
	if m != nil {
		m.Evals.Inc()
	}
}

func (m *SolverMetrics) widthWalk(visited int) {
	if m != nil {
		m.WidthNodes.Add(int64(visited))
	}
}

package sym

import "repro/internal/obs"

// SolverMetrics is the solver's observability hook: how much evaluation
// and width walking the engine's queries cost. A nil *SolverMetrics
// (the default) disables everything at zero cost; the counters
// themselves are atomic, so one SolverMetrics may be shared by solvers
// running on different goroutines.
type SolverMetrics struct {
	// Evals counts full evaluations of a residue under one assignment
	// (the diagram path's witness checks), WidthNodes the DAG nodes the
	// width rule visited — the two costs a query can have.
	Evals      *obs.Counter
	WidthNodes *obs.Counter
}

// NewSolverMetrics resolves the solver's instruments from a registry
// under the "sym." prefix. A nil registry yields nil (disabled).
func NewSolverMetrics(r *obs.Registry) *SolverMetrics {
	if r == nil {
		return nil
	}
	return &SolverMetrics{
		Evals:      r.Counter("sym.solver.evals"),
		WidthNodes: r.Counter("sym.solver.width_nodes"),
	}
}

// The nil-safe instrumentation sites below keep the solver free of nil
// checks at every increment.

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

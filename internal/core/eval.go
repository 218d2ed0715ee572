package core

import (
	"repro/internal/dataplane"
	"repro/internal/dd"
	"repro/internal/obs"
	"repro/internal/sym"
)

// The evaluation pass. The paper's update path is taint lookup →
// substitute → query on the control-plane thread, µs–ms per update
// (§4.1, Tbl. 3), and that is what a pass is here: one loop over the
// tainted points, on the caller's goroutine, under the engine write
// lock. A point of an incremental pass is settled by an unchanged
// residue pointer, a literal or the width rule in 0.02–0.16 µs, and the
// points of one pass share path conditions that one substitution memo
// rewrites once — no catalog pass (16 to 999 points) ever ran faster
// spread over two goroutines than on one.
//
// Every mutating call compiles the assignments it touches first and
// re-evaluates afterwards, so the environment is fixed while points are
// evaluated: reevalPoints opens one substitution pass (sym.SubstPass)
// that all of the pass's points substitute inside. The memo outlives
// the pass: recompileTarget, the one place the environment is written,
// reports the control targets whose assignment it changed, and the next
// pass rewrites only the nodes those targets occur in — every other
// node's residue is found where the pass that computed it left it
// (sym.SubstScratch; DESIGN §4.4). An arena sweep drops the memo.
//
// Nothing on the query path is randomized: Dead needs a literal false
// or an exhaustive refutation and Const a literal or an exhaustive
// certificate, and a residue too wide for either is Live/Varies before
// anything is evaluated (queryAny).

// evalScratch is the engine's one evaluation scratch, used only under
// the write lock: the solver (evaluation and width-walk scratch), the
// substitution memo with the pass in flight and the targets written
// since the last one, and the diagram compile memo (created on first
// use, dropped with the store it compiles into).
type evalScratch struct {
	solver *sym.Solver
	sub    sym.SubstScratch
	pass   sym.SubstPass
	// changed is the union of the CtrlMasks of the environment keys
	// reassigned since the last pass opened (recompileTarget).
	changed uint64
	dd      *dd.Ctx
}

// reevalPoints re-evaluates the given points (deduplicated, in ID
// order), installs the new verdicts, and returns the IDs of the points
// whose verdict changed, in ascending order.
func (s *Specializer) reevalPoints(pts []*dataplane.Point) []int {
	s.met.pointsEvaluated.Add(int64(len(pts)))
	s.lastChanges = s.lastChanges[:0]
	s.eval.pass = s.An.Builder.ResumeSubst(&s.eval.sub, s.env, s.eval.changed)
	s.eval.changed = 0
	rewrote := s.eval.sub.Rewritten()
	var changed []int
	for _, p := range pts {
		old := s.verdicts[p.ID]
		now := s.evalPoint(p)
		if now == old {
			continue
		}
		s.verdicts[p.ID] = now
		changed = append(changed, p.ID)
		if s.audit != nil {
			s.lastChanges = append(s.lastChanges, obs.PointChange{
				Point: p.ID, Query: queryName(p.Kind),
				Old: old.String(), New: now.String(),
			})
		}
	}
	s.met.substNodes.Add(s.eval.sub.Rewritten() - rewrote)
	s.met.pointsChanged.Add(int64(len(changed)))
	if len(changed) > 0 {
		s.verdictsDirty = true
	}
	return changed
}

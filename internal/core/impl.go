package core

import (
	"fmt"
	"strings"

	"repro/internal/dataplane"
	"repro/internal/p4/ast"
	"repro/internal/sym"
)

// tableImpl describes how a table is currently implemented in the
// specialized program — the assumptions that must stay valid for
// installed hardware to keep working without recompilation.
type tableImpl struct {
	// removed: the table's apply site is unreachable or its behaviour
	// is the default no-op, so it was elided entirely (Fig. 3 impl. A).
	removed bool
	// constAction is the single action the table can ever select, or -1.
	constAction int
	// inlineParams holds the constant parameters of constAction when
	// the table was inlined to a plain statement sequence; nil when the
	// parameters vary (or constAction is -1).
	inlineParams []sym.BV
	// deadActions marks action indices proven unreachable and removed
	// from the implementation (Fig. 3 impl. C/D: drop removed).
	deadActions []bool
	// matchKinds are the implemented match kinds per key (possibly
	// narrowed from the declaration: ternary→exact saves TCAM, Fig. 3
	// impl. B→C).
	matchKinds []ast.MatchKind
}

func (ti *tableImpl) equal(o *tableImpl) bool {
	if ti.removed != o.removed || ti.constAction != o.constAction {
		return false
	}
	if (ti.inlineParams == nil) != (o.inlineParams == nil) || len(ti.inlineParams) != len(o.inlineParams) {
		return false
	}
	for i := range ti.inlineParams {
		if ti.inlineParams[i] != o.inlineParams[i] {
			return false
		}
	}
	if len(ti.deadActions) != len(o.deadActions) {
		return false
	}
	for i := range ti.deadActions {
		if ti.deadActions[i] != o.deadActions[i] {
			return false
		}
	}
	if len(ti.matchKinds) != len(o.matchKinds) {
		return false
	}
	for i := range ti.matchKinds {
		if ti.matchKinds[i] != o.matchKinds[i] {
			return false
		}
	}
	return true
}

func (ti *tableImpl) diff(o *tableImpl) string {
	var parts []string
	if ti.removed != o.removed {
		parts = append(parts, fmt.Sprintf("removed %v→%v", ti.removed, o.removed))
	}
	if ti.constAction != o.constAction {
		parts = append(parts, fmt.Sprintf("const-action %d→%d", ti.constAction, o.constAction))
	}
	for i := range ti.matchKinds {
		if i < len(o.matchKinds) && ti.matchKinds[i] != o.matchKinds[i] {
			parts = append(parts, fmt.Sprintf("key %d match %s→%s", i, ti.matchKinds[i], o.matchKinds[i]))
		}
	}
	if len(parts) == 0 {
		parts = append(parts, "action liveness or inlined parameters changed")
	}
	return strings.Join(parts, ", ")
}

// tablePoints indexes a table's points by kind.
type tablePoints struct {
	reach       *dataplane.Point
	action      *dataplane.Point
	actionReach []*dataplane.Point // indexed by ActionIndex
}

// indexTablePoints builds every table's point index in one walk over
// the analysis' points; the points of a program never change, so the
// engine does it once at open (initState).
func indexTablePoints(an *dataplane.Analysis) map[string]*tablePoints {
	idx := make(map[string]*tablePoints, len(an.Tables))
	for name, ti := range an.Tables {
		idx[name] = &tablePoints{actionReach: make([]*dataplane.Point, len(ti.Actions))}
	}
	for _, p := range an.Points {
		tp := idx[p.Table]
		if tp == nil {
			continue
		}
		switch p.Kind {
		case dataplane.PointTableReach:
			tp.reach = p
		case dataplane.PointTableAction:
			tp.action = p
		case dataplane.PointActionReach:
			tp.actionReach[p.ActionIndex] = p
		}
	}
	return idx
}

// idealImpl computes the best implementation the current verdicts and
// configuration allow for a table.
func (s *Specializer) idealImpl(table string) *tableImpl {
	an := s.An
	ti := an.Tables[table]
	tp := s.tablePoints[table]
	impl := &tableImpl{constAction: -1}

	if tp.reach != nil && s.verdicts[tp.reach.ID].Kind == VerdictDead {
		impl.removed = true
		return impl
	}
	impl.deadActions = make([]bool, len(ti.Actions))
	for i, p := range tp.actionReach {
		if p != nil && s.verdicts[p.ID].Kind == VerdictDead {
			impl.deadActions[i] = true
		}
	}
	if tp.action != nil && s.quality <= QualityNoNarrowing {
		if v := s.verdicts[tp.action.ID]; v.Kind == VerdictConst {
			impl.constAction = int(v.Val.Uint64())
			// Inline only when every parameter of the selected action
			// resolves to a constant under the current assignment.
			act := &ti.Actions[impl.constAction]
			params := make([]sym.BV, len(act.Params))
			ok := true
			for i, pv := range act.Params {
				// A table's compile assigns every parameter placeholder.
				res := s.eval.solver.ConstValue(s.env[pv])
				if !res.Known || !res.IsConst {
					ok = false
					break
				}
				params[i] = res.Val
			}
			if ok {
				impl.inlineParams = params
			}
			if impl.constAction == ti.DefaultIndex && s.Cfg.NumEntries(table) == 0 && actionIsNop(act) {
				// Empty table whose default does nothing: remove it
				// entirely (Fig. 3 impl. A).
				impl.removed = true
				return impl
			}
		}
	}
	if s.quality == QualityFull {
		impl.matchKinds = s.idealMatchKinds(table)
	} else {
		impl.matchKinds = append([]ast.MatchKind(nil), ti.KeyMatch...)
	}
	return impl
}

func actionIsNop(ai *dataplane.ActionInfo) bool {
	return ai.Decl == nil || len(ai.Decl.Body.Stmts) == 0
}

// idealMatchKinds narrows declared match kinds to what the active
// entries actually need: a ternary (or lpm) key whose live entries all
// use the full mask is implementable as an exact match, freeing TCAM
// (paper §3, Fig. 3 impl. B→C). The configuration counts the partially
// masked active entries per key as they come and go, so the answer
// costs the key count, not the entry count.
func (s *Specializer) idealMatchKinds(table string) []ast.MatchKind {
	ti := s.An.Tables[table]
	kinds := append([]ast.MatchKind(nil), ti.KeyMatch...)
	if s.Cfg.Overapproximated(table) {
		return kinds // overapproximated (or degraded): keep the declaration
	}
	if active, _ := s.Cfg.ActiveEntries(table); len(active) == 0 {
		return kinds
	}
	for i, kind := range kinds {
		if (kind == ast.MatchTernary || kind == ast.MatchLPM) && !s.Cfg.ActiveMasked(table, i) {
			kinds[i] = ast.MatchExact
		}
	}
	return kinds
}

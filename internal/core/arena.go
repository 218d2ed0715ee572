// Expression-arena garbage collection. Hash-consed nodes are immortal
// by default: every control-plane update substitutes fresh constants
// into the data-plane expressions, and under sustained churn the
// Builder's intern table — and with it the engine's heap — grows with
// update *history* instead of live *state*. The long-horizon churn soak
// is the regression gate for this. The fix is a classic generational
// trigger: once the arena doubles past the last live size, mark every
// expression the engine can still reach and sweep the rest. Sweeps run
// under the engine write lock, between evaluation passes, so nothing
// holding the lock can see an unrooted node — and the lock-free epoch
// readers (epoch.go) are sweep-safe by construction, because epochs
// carry only value types (Verdict embeds a sym.BV by value), never
// *sym.Expr pointers whose ids a sweep would reassign.
package core

import "repro/internal/sym"

const (
	// arenaSweepFactor is the growth multiple that arms the next sweep:
	// collect when the arena exceeds factor × the last live node count.
	arenaSweepFactor = 2
	// arenaSweepFloor is the node count below which sweeping is never
	// worth the mark pass.
	arenaSweepFloor = 1 << 14
)

// arenaRoots collects every expression the engine may still compare
// against an interned node: the analysis-time structures (points, taint
// and ownership maps, table/value-set/register placeholders, the merged
// final store), the current control-plane substitution environment and
// the table spines it was read off (which hold more than the
// environment reaches: suffix assignments a simplification folded out
// of the head, conditions of links awaiting a rebuild), and the
// per-point substituted expressions and cached witnesses. Everything
// else interned since the last sweep is churn residue.
func (s *Specializer) arenaRoots() []*sym.Expr {
	an := s.An
	roots := make([]*sym.Expr, 0, 4*len(an.Points)+2*len(s.env))
	for _, p := range an.Points {
		roots = append(roots, p.Expr)
	}
	for v := range an.Taint {
		roots = append(roots, v)
	}
	for v := range an.VarOwner {
		roots = append(roots, v)
	}
	for _, e := range an.Final {
		roots = append(roots, e)
	}
	for _, ti := range an.Tables {
		roots = append(roots, ti.KeyExprs...)
		roots = append(roots, ti.ActionVar, ti.HitVar)
		for _, ai := range ti.Actions {
			roots = append(roots, ai.Params...)
		}
	}
	for _, vs := range an.ValueSets {
		roots = append(roots, vs.KeyExpr, vs.MatchVar)
	}
	for _, ri := range an.Registers {
		roots = append(roots, ri.ReadVars...)
	}
	for k, v := range s.env {
		roots = append(roots, k, v)
	}
	roots = s.Cfg.ChainExprs(roots)
	roots = append(roots, s.pointSub...)
	for _, w := range s.witnesses {
		for k := range w {
			roots = append(roots, k)
		}
	}
	return s.ddArenaRoots(roots)
}

// maybeSweepArena runs an arena collection when the intern table has
// doubled past the last live size. Called with the engine write lock
// held, at the end of every mutating call.
func (s *Specializer) maybeSweepArena() {
	b := s.An.Builder
	n := b.NumNodes()
	if s.co.arenaNext == 0 {
		// First mutating call: record the post-compile baseline.
		s.co.arenaNext = max(arenaSweepFloor, n*arenaSweepFactor)
		s.met.arenaNodes.Set(int64(n))
		return
	}
	if n < s.co.arenaNext {
		s.met.arenaNodes.Set(int64(n))
		return
	}
	s.sweepArena()
}

// sweepArena collects the expression arena now and re-arms the trigger.
// Caller holds the engine write lock.
func (s *Specializer) sweepArena() {
	b := s.An.Builder
	swept := b.Sweep(s.arenaRoots())
	// The sweep reassigned the arena ids of the surviving nodes and
	// retired the rest. The diagram compile memo is keyed on expression
	// pointers and goes, and the diagram store — which nothing but that
	// memo references — goes with it. The substitution memo is indexed
	// by id and names residues of passes long past, which are no roots:
	// it goes too, and the next pass rewrites every node it visits once
	// (the Builder drops its own k == ite memo inside Sweep).
	s.eval.sub.Reset()
	s.ddReplaceStore()
	live := b.NumNodes()
	s.stats.ArenaSweeps++
	s.stats.ArenaSwept += swept
	s.met.arenaSweeps.Inc()
	s.met.arenaSwept.Add(int64(swept))
	s.met.arenaNodes.Set(int64(live))
	s.co.arenaNext = max(arenaSweepFloor, live*arenaSweepFactor)
}

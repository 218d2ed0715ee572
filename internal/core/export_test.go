package core

import (
	"fmt"
	"time"

	"repro/internal/dataplane"
	"repro/internal/p4/ast"
	"repro/internal/p4/typecheck"
	"repro/internal/sym"
)

// GateSrc is the two-table program whose first table's entries decide
// whether the second is reachable (specializer_test.go).
const GateSrc = gateSrc

// CheckInstalledIsIdeal asserts the invariant every mutating call must
// leave behind: each table's installed implementation is the ideal one
// under the verdicts and configuration now in force.
func CheckInstalledIsIdeal(s *Specializer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, table := range s.An.TableOrder {
		if cur, ideal := s.impls[table], s.idealImpl(table); !cur.equal(ideal) {
			return fmt.Errorf("table %s: installed implementation is stale: %s", table, cur.diff(ideal))
		}
	}
	return nil
}

// SpecializedProgramInfo is SpecializedProgram with the type
// information the rewriter carried to it: what the engine compiles its
// image against instead of checking the program again.
func SpecializedProgramInfo(s *Specializer) (*ast.Program, *typecheck.Info) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.specializedProgramLocked()
}

// SpecializedOverlay is the type overlay the rewriter carries to the
// specialized program: the expression nodes it made, with their types.
func SpecializedOverlay(s *Specializer) map[ast.Expr]typecheck.T {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := &rewriter{s: s, plan: s.plan, types: make(map[ast.Expr]typecheck.T)}
	r.prepare()
	r.program()
	return r.types
}

// FailNextImageCompile makes the engine's next full image compile fail,
// as a program dpexec cannot compile would.
func FailNextImageCompile(s *Specializer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.imgFault = true
}

// ProjectedCost exposes the precision controller's estimate of what one
// precise update to target would cost right now (deadline.go projectNS),
// so tests can size a budget relative to it instead of to the clock.
func ProjectedCost(s *Specializer, target string) time.Duration {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return time.Duration(s.projectNS(target, len(s.An.PointsOf(target))))
}

// CheckAgainstPerPointSubst is the reference the engine is held to:
// every point's residue re-derived by a substitution of its own
// (SubstWith promises nothing about the pass before) and put to a fresh
// solver's enumeration (queryPoint). The engine's verdict vector must
// equal the reference's, and every residue pointer the engine kept must
// be the reference's pointer. Equal verdict vectors after every call
// imply equal decisions, so this one check holds the pass-wide
// substitution memo and the decision procedure (decide) alike.
func CheckAgainstPerPointSubst(s *Specializer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var scratch sym.SubstScratch
	solver := sym.NewSolver()
	for _, p := range s.An.Points {
		sub := s.An.Builder.SubstWith(&scratch, p.Expr, s.env)
		if got := s.pointSub[p.ID]; got != nil && got != sub {
			return fmt.Errorf("point %d: engine kept residue %s, a per-point substitution yields %s", p.ID, got, sub)
		}
		if got, want := s.verdicts[p.ID], queryPoint(solver, p, sub); got != want {
			return fmt.Errorf("point %d: engine verdict %s, reference %s on residue %s", p.ID, got, want, sub)
		}
	}
	return nil
}

// queryPoint puts a point's specialization query to the solver's
// enumeration of the residue's domain (sym.Solver.ConstValue and
// CheckWitness): the exact answer inside the exhaustive bound, Live or
// Varies past it. It is the oracle the decision procedure is held to.
func queryPoint(solver *sym.Solver, p *dataplane.Point, sub *sym.Expr) Verdict {
	if constQuery(p.Kind) {
		res := solver.ConstValue(sub)
		if res.Known && res.IsConst {
			return Verdict{Kind: VerdictConst, Val: res.Val}
		}
		return Verdict{Kind: VerdictVaries}
	}
	if verdict, _ := solver.CheckWitness(sub, nil); verdict == sym.Unsat {
		return Verdict{Kind: VerdictDead}
	}
	return Verdict{Kind: VerdictLive}
}

// CheckIncrementalPass holds the substitution memo the engine carries
// from pass to pass to a pass that starts from nothing: every point's
// residue on a fresh scratch must be the pointer the engine kept for it
// and the pointer the engine's next pass — resumed here, over every
// point rather than the tainted ones — finds or rewrites.
func CheckIncrementalPass(s *Specializer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.An.Builder
	var scratch sym.SubstScratch
	fresh := b.BeginSubst(&scratch, s.env)
	next := b.ResumeSubst(&s.eval.sub, s.env, s.eval.changed)
	s.eval.changed = 0
	for _, p := range s.An.Points {
		want := fresh.Subst(p.Expr)
		if got := s.pointSub[p.ID]; got != nil && got != want {
			return fmt.Errorf("point %d: engine kept residue %s, a fresh pass yields %s", p.ID, got, want)
		}
		if got := next.Subst(p.Expr); got != want {
			return fmt.Errorf("point %d: the engine's memo yields %s, a fresh pass %s", p.ID, got, want)
		}
	}
	return nil
}

// ForceArenaSweep collects the expression arena now, whatever the
// trigger says, and reports how many nodes went — every survivor's id
// is reassigned, which is what the id-indexed memos must survive.
func ForceArenaSweep(s *Specializer) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	before := s.stats.ArenaSwept
	s.sweepArena()
	return s.stats.ArenaSwept - before
}

// CheckEnvVarsAreAtoms asserts what recompileTarget's atom registration
// relies on: every data variable an installed assignment mentions is a
// registered diagram atom, although only overapproximated tables and
// register refills are ever walked for new ones.
func CheckEnvVarsAreAtoms(s *Specializer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.ddc.store.Load()
	seen := make(map[*sym.Expr]bool)
	var missing error
	for k, v := range s.env {
		collectDataVars(v, seen, func(x *sym.Expr) {
			if !st.Has(x.Name) && missing == nil {
				missing = fmt.Errorf("assignment of |%s| mentions @%s@, which is not a diagram atom", k.Name, x.Name)
			}
		})
	}
	return missing
}

// ResidueValue evaluates the point's residue under the current
// configuration with the named data variables set to the given values
// and every other free variable zero, using the solver's evaluator. It
// holds the read lock across substitution and evaluation, so it is safe
// beside a writer.
func ResidueValue(s *Specializer, id int, assignment map[string]sym.BV) (sym.BV, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var scratch sym.SubstScratch
	sub := s.An.Builder.SubstWith(&scratch, s.An.Points[id].Expr, s.env)
	solver := sym.NewSolver()
	env := make(sym.Env)
	for _, v := range solver.FreeVars(sub) {
		env[v] = sym.BV{W: v.Width}
		if val, ok := assignment[v.Name]; ok {
			env[v] = val
		}
	}
	out, ok := solver.Eval(sub, env)
	if !ok {
		return sym.BV{}, fmt.Errorf("point %d: residue %s does not evaluate under %v", id, sub, assignment)
	}
	return out, nil
}

// IdealMatchKinds exposes the match kinds the engine would implement
// the table with right now (impl.go), answered from the
// configuration's per-key counts.
func IdealMatchKinds(s *Specializer, table string) []ast.MatchKind {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idealMatchKinds(table)
}

// ScanMatchKinds is the reference those counts are held to: the scan of
// every active entry per ternary or lpm key that idealMatchKinds ran on
// every update before the configuration kept count.
func ScanMatchKinds(s *Specializer, table string) []ast.MatchKind {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ti := s.An.Tables[table]
	kinds := append([]ast.MatchKind(nil), ti.KeyMatch...)
	if s.Cfg.Overapproximated(table) {
		return kinds
	}
	active, _ := s.Cfg.ActiveEntries(table)
	if len(active) == 0 {
		return kinds
	}
	for i, kind := range kinds {
		if kind != ast.MatchTernary && kind != ast.MatchLPM {
			continue
		}
		w := ti.KeyWidths[i]
		allExact := true
		for _, e := range active {
			m := e.Matches[i]
			switch m.Kind {
			case ast.MatchTernary:
				if !m.Mask.IsAllOnes() {
					allExact = false
				}
			case ast.MatchLPM:
				if m.PrefixLen != int(w) {
					allExact = false
				}
			}
			if !allExact {
				break
			}
		}
		if allExact {
			kinds[i] = ast.MatchExact
		}
	}
	return kinds
}

// CheckSpinesRooted asserts what lets the tables' spines outlive a
// sweep: every expression they hold is among the arena roots.
func CheckSpinesRooted(s *Specializer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rooted := make(map[*sym.Expr]bool)
	for _, r := range s.arenaRoots() {
		rooted[r] = true
	}
	held := s.Cfg.ChainExprs(nil)
	if len(held) == 0 {
		return fmt.Errorf("no table holds a spine")
	}
	for _, e := range held {
		if !rooted[e] {
			return fmt.Errorf("a spine holds %s, which no arena root names", e)
		}
	}
	return nil
}

// DDSweepFloor is the diagram store's bound.
const DDSweepFloor = ddSweepFloor

// SealSnapshot frames a snapshot payload the way Snapshot does: magic
// before, checksum after.
func SealSnapshot(payload []byte) []byte { return sealSnapshot(payload) }

// SnapshotCounterNames names the counters a snapshot carries, in wire
// order.
var SnapshotCounterNames = snapCounterNames[:]

// EditSnapshot decodes a valid snapshot, hands edit its flags and its
// counters, and seals what it re-encodes: the bytes of a writer other
// than Snapshot, which no checksum stops.
func EditSnapshot(snap []byte, edit func(flags *uint64, counters []int64)) ([]byte, error) {
	img, err := decodeSnapshot(snap)
	if err != nil {
		return nil, err
	}
	edit(&img.flags, img.boot.counters[:])
	return sealSnapshot(img.encode()), nil
}

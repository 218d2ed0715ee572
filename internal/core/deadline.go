package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/controlplane"
	"repro/internal/flayerr"
	"repro/internal/obs"
	"repro/internal/sym"
)

// The adaptive precision controller. The paper's Tbl. 3 shows precise
// update analysis collapsing with table size (~1 ms at 1 entry →
// minutes at 10000) while the overapproximated ("*any*") assignment
// stays flat. The static OverapproxThreshold picks one point on that
// curve at open time; this controller moves along it at run time:
//
//   - every Apply/ApplyBatch may carry a context deadline (the caller's
//     latency budget);
//   - the engine keeps a per-table EWMA of the precise analysis cost
//     per tainted point, seeded by the first precise pass and refreshed
//     on every one after;
//   - when the projected precise cost of the pending update exceeds the
//     remaining budget, the target table is degraded mid-flight: its
//     assignment is pinned to the overapproximation
//     (controlplane.ForceOverapprox), which keeps this and every later
//     update to the table on the flat path;
//   - a background repair goroutine watches for quiescence (no updates
//     for one repair interval), re-runs the degraded queries precisely
//     (the differential check), and promotes tables back to precise.
//
// Soundness is by construction: the overapproximated assignment gives
// the solver strictly less information, so a degraded verdict can only
// be conservative — Live where precise would prove Dead, Varies where
// precise would prove Const. The differential check and every
// promotion verify that direction and count violations (which would
// indicate an engine bug, not a modelling choice) in
// Stats.UnsoundDegraded.

const (
	// ewmaAlpha weights the newest precise-cost sample. High enough to
	// track a table whose per-update cost grows as entries accumulate.
	ewmaAlpha = 0.5
	// deadlineHeadroom is the fraction of the remaining budget the
	// projected precise cost may consume before the engine degrades —
	// the slack covers estimation lag and the overapproximated pass
	// itself.
	deadlineHeadroom = 0.8
	// defaultRepairInterval is the background repair cadence when
	// Options.RepairInterval is zero.
	defaultRepairInterval = 100 * time.Millisecond
)

// degradeCause labels why a table was degraded, for the audit trail.
const (
	causeDeadline = "deadline"
	causeManual   = "manual"
)

// repairInterval resolves the configured repair cadence.
func (s *Specializer) repairInterval() time.Duration {
	if s.repair > 0 {
		return s.repair
	}
	return defaultRepairInterval
}

// Close releases the engine's background resources (the repair
// goroutine). Updates submitted after Close are rejected with
// flayerr.ErrClosed. Close is idempotent and safe to call concurrently
// with updates.
func (s *Specializer) Close() {
	s.closeOnce.Do(func() { close(s.closedCh) })
}

func (s *Specializer) isClosed() bool {
	select {
	case <-s.closedCh:
		return true
	default:
		return false
	}
}

// admit is the entry gate of every mutating ctx-carrying call: a closed
// engine and an already-exhausted budget reject the update before any
// state is touched.
func (s *Specializer) admit(ctx context.Context) error {
	if s.isClosed() {
		return fmt.Errorf("core: %w", flayerr.ErrClosed)
	}
	switch err := ctx.Err(); {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("core: update not attempted: %w", flayerr.ErrDeadlineExceeded)
	default:
		return fmt.Errorf("core: update not attempted: %w", err)
	}
}

// observePerPoint feeds one precise pass's cost per tainted point
// (assignment compile + point re-evaluation) into the estimator.
func (s *Specializer) observePerPoint(target string, perNS float64) {
	if perNS <= 0 {
		return
	}
	if s.costNS == nil {
		s.costNS = make(map[string]float64)
	}
	if old, ok := s.costNS[target]; ok {
		s.costNS[target] = ewmaAlpha*perNS + (1-ewmaAlpha)*old
	} else {
		s.costNS[target] = perNS
	}
	if s.costGlobalNS > 0 {
		s.costGlobalNS = ewmaAlpha*perNS + (1-ewmaAlpha)*s.costGlobalNS
	} else {
		s.costGlobalNS = perNS
	}
}

// projectNS estimates the precise analysis cost of one update to target
// in nanoseconds: the per-point EWMA (the target's own, falling back to
// the engine-wide one for a table that has never been measured) times
// the number of points the taint map routes the update to. Zero means
// "no estimate yet" — the first pass always runs precise and seeds it.
func (s *Specializer) projectNS(target string, npts int) float64 {
	per := s.costNS[target]
	if per <= 0 {
		per = s.costGlobalNS
	}
	return per * float64(npts)
}

// degradable reports whether the controller may degrade this target: a
// table (value sets and registers have no overapproximated form), not
// already degraded, and not already past the static threshold (then the
// precise path is not being taken anyway).
func (s *Specializer) degradable(target string) bool {
	if s.quality == QualityNone {
		return false
	}
	if _, ok := s.An.Tables[target]; !ok {
		return false
	}
	if _, deg := s.degraded[target]; deg {
		return false
	}
	return s.Cfg.NumEntries(target) <= s.Cfg.Threshold()
}

// shed is the deadline policy: project the precise cost of every target
// the call touches, and degrade the most expensive degradable ones
// until the projected total fits the remaining budget. For one target
// that is: degrade it when its projection does not fit.
func (s *Specializer) shed(ctx context.Context, targets []string) {
	deadline, ok := ctx.Deadline()
	if !ok {
		return
	}
	type cand struct {
		target string
		proj   float64
	}
	var cands []cand
	total := 0.0
	for _, t := range targets {
		proj := s.projectNS(t, len(s.An.PointsOf(t)))
		total += proj
		if proj > 0 && s.degradable(t) {
			cands = append(cands, cand{t, proj})
		}
	}
	budget := deadlineHeadroom * float64(time.Until(deadline).Nanoseconds())
	slices.SortFunc(cands, func(a, b cand) int { return cmp.Compare(b.proj, a.proj) })
	for _, c := range cands {
		if total <= budget {
			return
		}
		s.degradeLocked(c.target, causeDeadline)
		total -= c.proj
	}
}

// degradeLocked pins the target's assignment to the overapproximation
// and records the transition. The caller holds the write lock; the next
// recompileTarget call renders the cheap "*any*" fragment.
func (s *Specializer) degradeLocked(target, cause string) {
	s.imgMarkFull() // precision changes can reshape the specialized program
	s.Cfg.ForceOverapprox(target, true)
	if s.degraded == nil {
		s.degraded = make(map[string]string)
	}
	s.degraded[target] = cause
	s.stats.Degradations++
	s.stats.DegradedTables = len(s.degraded)
	s.met.degradations.Inc()
	s.met.degradedTables.Set(int64(len(s.degraded)))
	s.audit.Append(precisionRecord("degrade", target, cause, s.stats.Updates, 0))
	s.ensureRepairLocked()
}

// Degrade pins a table to the overapproximated assignment now — the
// operator-facing form of what the deadline policy does mid-flight —
// and re-evaluates the affected points under it. A table already
// degraded is a no-op.
func (s *Specializer) Degrade(table string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publish()
	if _, ok := s.An.Tables[table]; !ok {
		return fmt.Errorf("core: %w %s", flayerr.ErrUnknownTable, table)
	}
	if _, deg := s.degraded[table]; deg {
		return nil
	}
	s.degradeLocked(table, causeManual)
	changed, err := s.reanalyse([]string{table}, 0)
	if err != nil {
		return err
	}
	s.adopt(table, changed)
	return nil
}

// promoteLocked returns one degraded table to the precise assignment:
// re-analyse it precisely and verify that every verdict flip is in the
// conservative direction (degraded Live → precise Dead, degraded Varies
// → precise Const). Flips the other way are unsound and counted. The
// fresh precise pass also re-seeds the cost estimator.
func (s *Specializer) promoteLocked(target, cause string) (unsound int, err error) {
	s.imgMarkFull() // precision changes can reshape the specialized program
	s.Cfg.ForceOverapprox(target, false)
	// The table is precise from here on: its points go back on the
	// diagram path in this very pass (ddQuery sits out only the points
	// under a degraded table).
	degradedBy := s.degraded[target]
	delete(s.degraded, target)
	pts := s.An.PointsOf(target)
	before := make([]Verdict, len(pts))
	for i, p := range pts {
		before[i] = s.verdicts[p.ID]
	}
	changed, err := s.reanalyse([]string{target}, 0)
	if err != nil {
		s.Cfg.ForceOverapprox(target, true)
		s.degraded[target] = degradedBy
		return 0, err
	}
	for i, p := range pts {
		if unsoundFlip(before[i], s.verdicts[p.ID]) {
			unsound++
		}
	}
	s.adopt(target, changed)
	s.stats.Promotions++
	s.stats.DegradedTables = len(s.degraded)
	s.unsound.Add(int64(unsound))
	s.met.promotions.Inc()
	s.met.unsoundDegraded.Add(int64(unsound))
	s.met.degradedTables.Set(int64(len(s.degraded)))
	s.audit.Append(precisionRecord("promote", target, cause, s.stats.Updates, unsound))
	return unsound, nil
}

// PromoteAll promotes every degraded table back to precise now,
// returning the number of unsound flips observed (zero on a healthy
// engine). The deterministic counterpart of the background repair loop,
// for tests and operators.
func (s *Specializer) PromoteAll() (unsound int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publish()
	for _, target := range sortedNames(s.degraded) {
		u, e := s.promoteLocked(target, causeManual)
		unsound += u
		if e != nil && err == nil {
			err = e
		}
	}
	return unsound, err
}

// DegradedTables lists the currently degraded tables, sorted. Like the
// other query-path readers it serves the published epoch wait-free.
func (s *Specializer) DegradedTables() []string {
	return append([]string(nil), s.loadEpoch().degraded...)
}

// unsoundFlip classifies one verdict transition from a degraded to a
// precise evaluation. The degraded verdict must be conservative:
// anything the precise analysis proves (Dead, Const) the degraded one
// may only have weakened (to Live, Varies) — never claimed more.
func unsoundFlip(degraded, precise Verdict) bool {
	switch degraded.Kind {
	case VerdictDead:
		return precise.Kind != VerdictDead
	case VerdictConst:
		return precise.Kind != VerdictConst || precise.Val != degraded.Val
	default:
		return false
	}
}

// DifferentialCheck re-runs the specialization queries of every point
// tainted by a degraded table against the precise assignment, without
// touching engine state, and reports how many installed (degraded)
// verdicts are unsound relative to the precise answer. It takes only
// the read lock, so the repair loop runs it concurrently with readers;
// a healthy engine always reports zero unsound.
func (s *Specializer) DifferentialCheck() (checked, unsoundCount int, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	targets := sortedNames(s.degraded)
	if len(targets) == 0 {
		return 0, 0, nil
	}
	b := s.An.Builder
	// One overlay with every degraded table rendered precisely; the
	// engine's env supplies the rest. The overlay is local — installed
	// state is not touched.
	overlay := make(controlplane.Env, len(s.env))
	for k, v := range s.env {
		overlay[k] = v
	}
	for _, target := range targets {
		frag, _, ferr := s.Cfg.CompileTablePrecise(b, target)
		if ferr != nil {
			return 0, 0, ferr
		}
		for k, v := range frag {
			overlay[k] = v
		}
	}
	solver := sym.NewSolver()
	solver.Metrics = s.symMet
	// The overlay is fixed for the loop: one substitution pass. The
	// query goes to the solver without witnesses, so no per-point engine
	// state (hints, substitution memos) is touched.
	var scratch sym.SubstScratch
	pass := b.BeginSubst(&scratch, overlay)
	for _, p := range s.An.PointsOfTargets(targets) {
		precise := queryPoint(solver, p, pass.Subst(p.Expr), nil)
		checked++
		if unsoundFlip(s.verdicts[p.ID], precise) {
			unsoundCount++
		}
	}
	s.unsound.Add(int64(unsoundCount))
	s.met.unsoundDegraded.Add(int64(unsoundCount))
	s.met.diffChecks.Inc()
	return checked, unsoundCount, nil
}

// ensureRepairLocked starts the background repair goroutine if it is
// not running, repair is enabled, and there is something to repair.
// Caller holds the write lock. The goroutine exits as soon as the
// degraded set empties, so an engine that never degrades never carries
// one, and an abandoned degraded engine sheds it after repair completes
// (quiescence always arrives once updates stop).
func (s *Specializer) ensureRepairLocked() {
	if s.repairOn || s.repair < 0 || len(s.degraded) == 0 || s.isClosed() {
		return
	}
	s.repairOn = true
	go s.repairLoop()
}

// repairLoop is the background promotion driver: every interval it
// checks for quiescence (no mutating call within the last interval),
// runs the differential check over the degraded set, and promotes one
// table — bounding each write-lock hold — until nothing is degraded.
func (s *Specializer) repairLoop() {
	interval := s.repairInterval()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.closedCh:
			s.mu.Lock()
			s.repairOn = false
			s.mu.Unlock()
			return
		case <-tick.C:
		}
		if time.Now().UnixNano()-s.lastApply.Load() < interval.Nanoseconds() {
			continue // traffic within the window: not quiescent
		}
		// The read-only differential pass first: it is what makes
		// degraded verdicts auditable even before promotion lands.
		if _, _, err := s.DifferentialCheck(); err != nil {
			continue
		}
		s.mu.Lock()
		if s.isClosed() {
			s.repairOn = false
			s.mu.Unlock()
			return
		}
		if targets := sortedNames(s.degraded); len(targets) > 0 {
			// Errors leave the table degraded; the next tick retries.
			_, _ = s.promoteLocked(targets[0], "quiescent")
			s.publish()
		}
		if len(s.degraded) == 0 {
			s.repairOn = false
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
	}
}

// precisionRecord is the audit-trail entry for a degrade/promote
// transition. Seq is the update sequence number the transition landed
// at (keeping the trail's Seq ordering monotone for ?since= readers).
func precisionRecord(decision, target, cause string, seq, unsound int) obs.AuditRecord {
	rec := obs.AuditRecord{
		Seq:       seq,
		Target:    target,
		Update:    "precision " + cause,
		Decision:  decision,
		Precision: decision + "d", // "degraded" / "promoted"
	}
	if unsound > 0 {
		rec.Err = fmt.Sprintf("%d unsound degraded verdicts", unsound)
	}
	return rec
}

package core

import (
	"context"
	"slices"
	"time"

	"repro/internal/controlplane"
	"repro/internal/obs"
)

// The update path (paper Fig. 2: update → taint lookup → re-query →
// forward or respecialize). The engine has it once: transition. Apply
// is a batch of one; a batch is the same steps over more updates. What
// the two entries tell apart — the audit record's Batch, the
// Batches/BatchedUpdates counters and the root span's name — follows
// from transition's one flag. Everything that changes the configuration
// or a table's precision re-analyses through the same two steps:
// reanalyse (recompile the written targets, one pass over the points
// they taint) and adopt (bring the installed implementations to ideal,
// decide forward vs respecialize).

// Apply processes one control-plane update: validate, route through the
// taint map, re-evaluate only the affected points, and decide Forward
// vs Recompile (paper Fig. 2). Equivalent to ApplyCtx with a background
// context (no latency budget: the analysis always runs precise).
func (s *Specializer) Apply(u *controlplane.Update) *Decision {
	return s.ApplyCtx(context.Background(), u)
}

// ApplyCtx is Apply with a latency budget: when ctx carries a deadline
// and the projected precise analysis cost of the update does not fit
// the remaining budget, the adaptive precision controller (deadline.go)
// degrades the target table to the overapproximated assignment before
// analysing — keeping the call under its budget at the price of a
// conservative (never wrong) verdict. A context that is already done on
// entry rejects the update with flayerr.ErrDeadlineExceeded (or the
// cancellation cause) without touching any state.
func (s *Specializer) ApplyCtx(ctx context.Context, u *controlplane.Update) *Decision {
	var out [1]*Decision
	s.transition(ctx, []*controlplane.Update{u}, out[:], false)
	return out[0]
}

// ApplyBatch processes a slice of control-plane updates as one atomic
// configuration transition, the batched-Write shape of a P4Runtime
// controller: updates are applied to the configuration in arrival order
// (rejecting exactly the updates sequential Apply would reject), then
// grouped by target so each touched object's assignment is recompiled
// once, and the deduplicated union of tainted program points is
// re-evaluated in a single pass instead of once per update.
//
// The end state — configuration, environment, verdicts, installed
// implementations, specialized program — is identical to applying the
// same updates one at a time with Apply. Decisions are attributed at
// batch granularity: updates sharing a target share one verdict-change
// set, so if anything the group touched changed behaviour, every
// accepted update of the group reports Recompile; if nothing changed,
// every one reports Forward. Relative to sequential decisions this
// preserves (a) all-Forward batches exactly and (b) "some update
// required recompilation" per group; (c) a single-update batch is the
// sequential decision by construction — Apply is one. Intermediate
// verdict flips that cancel within one batch are deliberately not
// observable (that is the point of coalescing).
//
// A nil or empty slice is a no-op that still counts one batch.
func (s *Specializer) ApplyBatch(updates []*controlplane.Update) []*Decision {
	return s.ApplyBatchCtx(context.Background(), updates)
}

// ApplyBatchCtx is ApplyBatch with a latency budget: when ctx carries a
// deadline, the adaptive precision controller (deadline.go) projects
// the precise analysis cost of every target the batch touches and
// degrades the most expensive degradable ones until the projected total
// fits the remaining budget. A context already done on entry rejects
// every update without touching any state.
func (s *Specializer) ApplyBatchCtx(ctx context.Context, updates []*controlplane.Update) []*Decision {
	var out []*Decision
	if len(updates) > 0 {
		out = make([]*Decision, len(updates))
	}
	s.transition(ctx, updates, out, true)
	return out
}

// group is what one call's accepted updates to one target share: the
// target's assignment is recompiled once, and its outcome is the
// decision of every one of them. The zero value is a forward that
// looked at nothing, which is what QualityNone decides.
type group struct {
	affected int  // points the taint map routes the target to
	degraded bool // analysed under a degraded assignment
	// changed lists the target's points whose verdict the pass flipped;
	// components and implChange are what adopt made of them (components
	// nil: forward).
	changed    []int
	components []string
	implChange string
}

// grouping is transition's bookkeeping, kept on the Specializer and
// reused from call to call (single writer, under the write lock) so
// that a call allocates for what it returns and nothing else.
type grouping struct {
	targets []string // touched targets, in first-touch order
	groups  []group  // one per target, same order
}

// transition decides updates[i] into out[i]. batched says the call came
// in as a batch — counted, numbered in the audit trail and traced as
// one — and changes nothing else.
func (s *Specializer) transition(ctx context.Context, updates []*controlplane.Update, out []*Decision, batched bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.lastApply.Store(time.Now().UnixNano())
	defer s.publish() // one epoch per call; after the sweep, so it sees final arena counts
	defer s.maybeSweepArena()
	batchNo, spanName := 0, "update"
	if batched {
		s.stats.Batches++
		s.met.batches.Inc()
		s.stats.BatchedUpdates += len(updates)
		s.met.batchedUpdates.Add(int64(len(updates)))
		batchNo, spanName = s.stats.Batches, "batch"
	}
	if len(updates) == 0 {
		return
	}
	t0 := time.Now()
	sp := s.trace.Start(spanName, 0)
	seq0 := s.stats.Updates

	// Admission, then configuration validation in arrival order — entry
	// sequence numbers (and with them the entry ordering of the
	// specialized source) depend on it. A closed engine or an exhausted
	// budget rejects every update before any state is touched.
	gr := &s.grouping
	gr.targets = gr.targets[:0]
	accepted := 0
	admitErr := s.admit(ctx)
	for i, u := range updates {
		d := &Decision{Update: u}
		out[i] = d
		s.stats.Updates = s.co.nextSeq()
		s.met.updates.Inc()
		err := admitErr
		if err == nil {
			err = s.Cfg.Apply(u)
		}
		if err != nil {
			s.reject(d, err, t0)
			continue
		}
		accepted++
		if target := u.Target(); !slices.Contains(gr.targets, target) {
			gr.targets = append(gr.targets, target)
		}
	}
	// A call that accepted nothing ends here: no pass, no analysis time.
	if accepted > 0 {
		// Sequential Apply would run one evaluation pass per accepted
		// update; the call runs exactly one.
		s.stats.Coalesced += accepted - 1
		s.met.coalesced.Add(int64(accepted - 1))
		s.decide(ctx, out, sp, t0)
	}

	if batched {
		s.trace.Attr(sp, "updates", int64(len(updates)))
	} else {
		s.trace.Attr(sp, "seq", int64(seq0+1))
		s.trace.Attr(sp, "decision", int64(out[0].Kind))
	}
	s.trace.End(sp)
	for i, d := range out {
		s.met.decisionCounter(d.Kind).Inc()
		s.met.updateNS.ObserveDuration(d.Elapsed)
		if s.audit != nil {
			s.audit.Append(auditRecord(d, seq0+1+i, batchNo, s.changesAt(d.ChangedPoints)))
		}
	}
}

// reject closes a decision as Rejected.
func (s *Specializer) reject(d *Decision, err error, t0 time.Time) {
	s.stats.Rejected++
	d.Kind = Rejected
	d.Err = err
	d.Elapsed = time.Since(t0)
}

// decide analyses the targets transition grouped and closes every
// accepted decision: one deadline rule, one re-analysis, one adoption
// per target.
func (s *Specializer) decide(ctx context.Context, out []*Decision, sp obs.SpanID, t0 time.Time) {
	gr := &s.grouping
	gr.groups = gr.groups[:0]
	var err error
	if s.quality == QualityNone {
		// With specialization disabled the installed implementation is
		// the original program; nothing a valid update does can
		// invalidate it.
		for _, target := range gr.targets {
			s.imgMark(target)
			gr.groups = append(gr.groups, group{})
		}
	} else {
		// Deadline policy (deadline.go): pin what does not fit the budget
		// to the overapproximation before any assignment is compiled, so
		// the expensive precise ite chain is never built.
		s.shed(ctx, gr.targets)
		var changed []int
		if changed, err = s.reanalyse(gr.targets, sp); err == nil {
			s.attribute(changed)
		} else {
			// The configuration already changed: the next image must not
			// assume the previous epoch's is patchable.
			s.imgMarkFull()
		}
	}

	elapsed := time.Since(t0)
	for _, d := range out {
		switch {
		case d.Kind == Rejected: // by validation
		case err != nil:
			s.reject(d, err, t0)
		default:
			g := &gr.groups[slices.Index(gr.targets, d.Update.Target())]
			d.Elapsed = elapsed
			d.AffectedPoints = g.affected
			d.Degraded = g.degraded
			if g.components == nil {
				s.stats.Forwarded++
				continue
			}
			d.Kind = Recompile
			s.stats.Recompilations++
			d.ChangedPoints = g.changed
			d.Components = g.components
			d.ImplementationChange = g.implChange
		}
	}
	if err == nil {
		s.stats.UpdateTime += elapsed
	}
}

// attribute shares a pass's flips out among the targets whose points
// they are and adopts each target's outcome. With one target the pass's
// flips are its flips; with several, a flipped point counts for every
// target that taints it.
func (s *Specializer) attribute(changed []int) {
	gr := &s.grouping
	for _, target := range gr.targets {
		pts := s.An.PointsOf(target)
		g := group{affected: len(pts), changed: changed}
		_, g.degraded = s.degraded[target]
		if len(gr.targets) > 1 && len(changed) > 0 {
			// Both lists ascend by point ID: walk them together.
			g.changed = nil
			rest := changed
			for _, p := range pts {
				for len(rest) > 0 && rest[0] < p.ID {
					rest = rest[1:]
				}
				if len(rest) > 0 && rest[0] == p.ID {
					g.changed = append(g.changed, p.ID)
				}
			}
		}
		g.components, g.implChange = s.adopt(target, g.changed)
		gr.groups = append(gr.groups, g)
	}
}

// changesAt picks, for the audit trail, the last pass's point changes
// (ID order) at the given points (ID order, a subset of them).
func (s *Specializer) changesAt(ids []int) []obs.PointChange {
	if len(ids) == 0 {
		return nil
	}
	if len(ids) == len(s.lastChanges) {
		return s.lastChanges
	}
	out := make([]obs.PointChange, 0, len(ids))
	for _, ch := range s.lastChanges {
		if len(out) < len(ids) && ch.Point == ids[len(out)] {
			out = append(out, ch)
		}
	}
	return out
}

// reanalyse is the first of the two steps every state change shares:
// recompile the assignment of each target once, then re-evaluate, in
// one pass, the deduplicated union of the points they taint. It returns
// the IDs of the points whose verdict flipped, ascending. The pass
// feeds the cost estimator (deadline.go) for every target it compiled
// precisely. After open, this is the only caller of recompileTarget.
func (s *Specializer) reanalyse(targets []string, parent obs.SpanID) ([]int, error) {
	tc := time.Now()
	csp := s.trace.Start("assign-compile", parent)
	var err error
	for _, target := range targets {
		if err = s.recompileTarget(target); err != nil {
			break
		}
	}
	s.trace.End(csp)
	if err != nil {
		return nil, err
	}

	pts := s.An.PointsOfTargets(targets)
	te := time.Now()
	qsp := s.trace.Start("query", parent)
	changed := s.reevalPoints(pts)
	s.trace.Attr(qsp, "points", int64(len(pts)))
	s.trace.Attr(qsp, "changed", int64(len(changed)))
	s.trace.End(qsp)
	evalElapsed := time.Since(te)
	s.stats.EvalTime += evalElapsed
	s.met.evalNS.ObserveDuration(evalElapsed)

	if n := len(pts); n > 0 {
		per := float64(time.Since(tc).Nanoseconds()) / float64(n)
		for _, target := range targets {
			// Degraded and statically overapproximated targets ran the
			// flat path and would poison the estimate.
			if !s.Cfg.Overapproximated(target) {
				s.observePerPoint(target, per)
			}
		}
	}
	return changed, nil
}

// adopt is the second: after a pass, bring the installed
// implementations to ideal for target — a written table's ideal can
// move with no verdict flipping (Fig. 3 C→D: a masked entry forces the
// table back to ternary; idealMatchKinds reads the overapproximation
// state) — and for the table of every flipped point, whichever target
// tainted it. It returns the components to respecialize, sorted, and
// what changed in target's implementation; nil components mean the
// specialized program stands and the image only needs target patched.
// After open, this is the only writer of s.impls and the one place
// forward vs respecialize is decided.
func (s *Specializer) adopt(target string, changed []int) (components []string, implChange string) {
	if _, ok := s.An.Tables[target]; ok {
		ideal := s.idealImpl(target)
		if cur := s.impls[target]; !cur.equal(ideal) {
			implChange = cur.diff(ideal)
			s.impls[target] = ideal
			components = append(components, target)
		}
	}
	if len(changed) == 0 && components == nil {
		s.imgMark(target)
		return nil, ""
	}
	s.imgMarkFull()
	for _, id := range changed {
		p := s.An.Points[id]
		c := p.Control
		switch {
		case p.Table != "":
			c = p.Table
		case p.ParserState != "":
			c += ".parser"
		}
		if slices.Contains(components, c) {
			continue
		}
		components = append(components, c)
		if p.Table != "" && p.Table != target {
			s.impls[p.Table] = s.idealImpl(p.Table)
		}
	}
	slices.Sort(components)
	return components, implChange
}

package core

import (
	"repro/internal/dataplane"
	"repro/internal/obs"
)

// coreMetrics holds the engine's pre-resolved instruments under the
// "core." prefix. The zero value (all nil) is the disabled state: every
// instrument absorbs writes at zero cost when nil, so the hot paths
// carry the accounting unconditionally and branch-free.
type coreMetrics struct {
	updates    *obs.Counter // Apply/ApplyBatch updates processed
	forwarded  *obs.Counter // Forward decisions
	recompiled *obs.Counter // Recompile decisions
	rejected   *obs.Counter // Rejected decisions

	batches        *obs.Counter // ApplyBatch invocations
	batchedUpdates *obs.Counter // updates routed through ApplyBatch
	coalesced      *obs.Counter // evaluation passes the batch engine elided

	pointsEvaluated *obs.Counter // program points re-queried
	pointsChanged   *obs.Counter // verdict flips observed
	substSkips      *obs.Counter // pointer-equal substitutions (query skipped)
	substNodes      *obs.Counter // expression nodes the passes rewrote (the substitute stage)

	// How queryAny answered each query that got past the substitution
	// skip, indexed by queryPath (core.query.literal, .width, .dd,
	// .unproven).
	answeredBy [numQueryPaths]*obs.Counter

	updateNS *obs.Histogram // per-update analysis latency, ns
	evalNS   *obs.Histogram // per-pass point re-evaluation latency, ns

	points *obs.Gauge // program points under management
	tables *obs.Gauge // tables under management

	// Adaptive precision controller (deadline.go).
	degradations    *obs.Counter // tables degraded to overapproximation
	promotions      *obs.Counter // tables promoted back to precise
	unsoundDegraded *obs.Counter // unsound degraded verdicts (must stay 0)
	diffChecks      *obs.Counter // differential-check passes completed
	degradedTables  *obs.Gauge   // currently degraded tables

	arenaSweeps *obs.Counter // expression-arena garbage collections
	arenaSwept  *obs.Counter // expression nodes reclaimed by sweeps
	arenaNodes  *obs.Gauge   // interned expression nodes

	// Executable image maintenance (exec.go); idle without Options.Exec.
	imagePatches  *obs.Counter   // publications that patched the previous image
	imageCompiles *obs.Counter   // publications that recompiled the image
	imageErrors   *obs.Counter   // image recompiles that failed (the previous image served on)
	imageBlocks   *obs.Counter   // entry action blocks the image builds compiled
	imageNS       *obs.Histogram // per-publication image build latency, ns

	epoch *obs.Gauge // published epoch sequence number (epoch.go)
}

// newCoreMetrics resolves the engine instruments from a registry; a nil
// registry yields the disabled zero value.
func newCoreMetrics(r *obs.Registry) coreMetrics {
	if r == nil {
		return coreMetrics{}
	}
	return coreMetrics{
		updates:         r.Counter("core.updates"),
		forwarded:       r.Counter("core.forwarded"),
		recompiled:      r.Counter("core.recompiled"),
		rejected:        r.Counter("core.rejected"),
		batches:         r.Counter("core.batches"),
		batchedUpdates:  r.Counter("core.batched_updates"),
		coalesced:       r.Counter("core.coalesced"),
		pointsEvaluated: r.Counter("core.points_evaluated"),
		pointsChanged:   r.Counter("core.points_changed"),
		substSkips:      r.Counter("core.subst_skips"),
		substNodes:      r.Counter("core.subst_nodes"),
		answeredBy: [numQueryPaths]*obs.Counter{
			byLiteral: r.Counter("core.query.literal"),
			byWidth:   r.Counter("core.query.width"),
			byDD:      r.Counter("core.query.dd"),
			unproven:  r.Counter("core.query.unproven"),
		},
		updateNS:        r.Histogram("core.update_ns"),
		evalNS:          r.Histogram("core.eval_ns"),
		points:          r.Gauge("core.points"),
		tables:          r.Gauge("core.tables"),
		degradations:    r.Counter("core.degradations"),
		promotions:      r.Counter("core.promotions"),
		unsoundDegraded: r.Counter("core.unsound_degraded"),
		diffChecks:      r.Counter("core.diff_checks"),
		degradedTables:  r.Gauge("core.degraded_tables"),
		arenaSweeps:     r.Counter("core.arena_sweeps"),
		arenaSwept:      r.Counter("core.arena_swept"),
		arenaNodes:      r.Gauge("core.arena_nodes"),
		imagePatches:    r.Counter("core.image_patches"),
		imageCompiles:   r.Counter("core.image_compiles"),
		imageErrors:     r.Counter("core.image_errors"),
		imageBlocks:     r.Counter("core.image_blocks"),
		imageNS:         r.Histogram("core.image_ns"),
		epoch:           r.Gauge("core.epoch"),
	}
}

// queryName names the specialization query a point kind answers, the
// audit trail's "query" column: reachability kinds ask "executable?",
// value kinds ask "constant?" (paper §4.1).
func queryName(k dataplane.PointKind) string {
	if constQuery(k) {
		return "constant"
	}
	return "executable"
}

// decisionCounter picks the outcome counter for a decision kind.
func (m *coreMetrics) decisionCounter(k DecisionKind) *obs.Counter {
	switch k {
	case Forward:
		return m.forwarded
	case Recompile:
		return m.recompiled
	default:
		return m.rejected
	}
}

// auditRecord builds the trail entry for one decided update. The changes
// slice is copied: the engine reuses its scratch buffer across updates.
func auditRecord(d *Decision, seq, batch int, changes []obs.PointChange) obs.AuditRecord {
	rec := obs.AuditRecord{
		Seq:        seq,
		Batch:      batch,
		Target:     d.Update.Target(),
		Update:     d.Update.String(),
		Decision:   d.Kind.String(),
		Affected:   d.AffectedPoints,
		Components: d.Components,
		ImplChange: d.ImplementationChange,
		ElapsedNS:  d.Elapsed.Nanoseconds(),
	}
	if d.Degraded {
		rec.Precision = "degraded"
	}
	if d.Err != nil {
		rec.Err = d.Err.Error()
	}
	if len(changes) > 0 {
		rec.Changes = append([]obs.PointChange(nil), changes...)
	}
	return rec
}

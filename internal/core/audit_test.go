// Audit-trail equivalence suite: the decision audit trail is only
// trustworthy if it is an exact transcript of what the engine did. For
// every catalog program and several fuzzer update streams, these tests
// replay the stream with auditing enabled and assert that each
// AuditRecord agrees field-for-field with the Decision the engine
// returned and with the per-point Verdict state — through sequential
// Apply and coalescing ApplyBatch.
package core_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/progs"
)

// audited is an engine's audit trail together with the metrics
// registry it reports into, so the two can be checked against each
// other and against Statistics.
type audited struct {
	*obs.Trail
	reg *obs.Registry
}

func loadAudited(t *testing.T, p *progs.Program) (*core.Specializer, audited) {
	t.Helper()
	a := audited{obs.NewTrail(0), obs.NewRegistry()}
	s, err := p.LoadWith(core.Options{Audit: a.Trail, Metrics: a.reg})
	if err != nil {
		t.Fatalf("%s: load: %v", p.Name, err)
	}
	return s, a
}

// checkRecord asserts one audit record is an exact transcript of the
// decision the engine returned for the update, and that the recorded
// verdict transitions agree with the engine's live Verdict state.
func checkRecord(t *testing.T, s *core.Specializer, i int, d *core.Decision, rec obs.AuditRecord) {
	t.Helper()
	if rec.Decision != d.Kind.String() {
		t.Fatalf("update %d (%s): audit decision %q, engine %q", i, d.Update, rec.Decision, d.Kind)
	}
	if rec.Target != d.Update.Target() {
		t.Fatalf("update %d: audit target %q, want %q", i, rec.Target, d.Update.Target())
	}
	if rec.Update != d.Update.String() {
		t.Fatalf("update %d: audit update %q, want %q", i, rec.Update, d.Update)
	}
	if rec.Affected != d.AffectedPoints {
		t.Fatalf("update %d (%s): audit affected %d, engine %d", i, d.Update, rec.Affected, d.AffectedPoints)
	}
	if !slices.Equal(rec.Components, d.Components) {
		t.Fatalf("update %d (%s): audit components %v, engine %v", i, d.Update, rec.Components, d.Components)
	}
	if rec.ImplChange != d.ImplementationChange {
		t.Fatalf("update %d (%s): audit impl change %q, engine %q", i, d.Update, rec.ImplChange, d.ImplementationChange)
	}
	if rec.ElapsedNS != d.Elapsed.Nanoseconds() {
		t.Fatalf("update %d (%s): audit elapsed %dns, engine %dns", i, d.Update, rec.ElapsedNS, d.Elapsed.Nanoseconds())
	}
	if (rec.Err != "") != (d.Err != nil) {
		t.Fatalf("update %d (%s): audit error %q, engine error %v", i, d.Update, rec.Err, d.Err)
	}
	pts := make([]int, len(rec.Changes))
	for j, ch := range rec.Changes {
		pts[j] = ch.Point
	}
	if !slices.Equal(pts, d.ChangedPoints) {
		t.Fatalf("update %d (%s): audit change points %v, engine %v", i, d.Update, pts, d.ChangedPoints)
	}
	for _, ch := range rec.Changes {
		if ch.Query != "executable" && ch.Query != "constant" {
			t.Fatalf("update %d: change at point %d has query %q", i, ch.Point, ch.Query)
		}
		if ch.Old == ch.New {
			t.Fatalf("update %d: change at point %d records no transition (%q)", i, ch.Point, ch.Old)
		}
	}
}

// checkTrailTotals asserts the trail's decision tally is exactly the
// engine's outcome counters, and that the metrics registry counted and
// timed every update Statistics did.
func checkTrailTotals(t *testing.T, s *core.Specializer, trail audited) {
	t.Helper()
	st := s.Statistics()
	if got := trail.Total(); got != int64(st.Updates) {
		t.Fatalf("trail total %d, engine processed %d updates", got, st.Updates)
	}
	by := trail.CountByDecision()
	if by["forward"] != st.Forwarded || by["recompile"] != st.Recompilations || by["rejected"] != st.Rejected {
		t.Fatalf("trail tally %v, engine counters forwarded=%d recompiled=%d rejected=%d",
			by, st.Forwarded, st.Recompilations, st.Rejected)
	}
	if got := trail.reg.Counter("core.updates").Value(); got != int64(st.Updates) {
		t.Fatalf("core.updates counter %d, engine processed %d updates", got, st.Updates)
	}
	if got := trail.reg.Histogram("core.update_ns").Count(); got != int64(st.Updates) {
		t.Fatalf("core.update_ns holds %d samples, engine processed %d updates", got, st.Updates)
	}
}

// TestAuditMatchesSequential replays fuzzer streams through Apply with
// auditing on: every decision must land in the trail as an exact
// transcript, in sequence order, and each recorded verdict transition
// must agree with the engine's live verdict right after the update.
func TestAuditMatchesSequential(t *testing.T) {
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			for seed := uint64(1); seed <= equivSeeds; seed++ {
				s, trail := loadAudited(t, p)
				for i, u := range makeStream(t, s, seed) {
					d := s.Apply(u)
					recs := trail.Records()
					if len(recs) != i+1 {
						t.Fatalf("update %d: trail has %d records", i, len(recs))
					}
					rec := recs[i]
					if rec.Seq != i+1 {
						t.Fatalf("update %d: audit seq %d", i, rec.Seq)
					}
					if rec.Batch != 0 {
						t.Fatalf("update %d: sequential apply recorded batch %d", i, rec.Batch)
					}
					checkRecord(t, s, i, d, rec)
					for _, ch := range rec.Changes {
						if now := s.Verdict(ch.Point).String(); now != ch.New {
							t.Fatalf("update %d: point %d verdict %q, audit says %q", i, ch.Point, now, ch.New)
						}
					}
				}
				checkTrailTotals(t, s, trail)
			}
		})
	}
}

// TestAuditMatchesBatch chunks the same streams through ApplyBatch: one
// record per update, in arrival order, carrying the batch number and
// the batch-attributed decision — field-for-field what ApplyBatch
// returned.
func TestAuditMatchesBatch(t *testing.T) {
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			for seed := uint64(1); seed <= equivSeeds; seed++ {
				s, trail := loadAudited(t, p)
				stream := makeStream(t, s, seed)
				seq, batch := 0, 0
				for start := 0; start < len(stream); start += chunkSize {
					chunk := stream[start:min(start+chunkSize, len(stream))]
					ds := s.ApplyBatch(chunk)
					batch++
					recs := trail.Records()
					if len(recs) != start+len(chunk) {
						t.Fatalf("chunk at %d: trail has %d records, want %d", start, len(recs), start+len(chunk))
					}
					for i, d := range ds {
						rec := recs[start+i]
						seq++
						if rec.Seq != seq {
							t.Fatalf("update %d: audit seq %d, want %d", start+i, rec.Seq, seq)
						}
						if rec.Batch != batch {
							t.Fatalf("update %d: audit batch %d, want %d", start+i, rec.Batch, batch)
						}
						checkRecord(t, s, start+i, d, rec)
					}
				}
				checkTrailTotals(t, s, trail)
			}
		})
	}
}

// TestAuditSequentialVsBatchTally replays one stream through a
// sequential engine and a chunked batch engine, both audited: the two
// trails must agree on rejections update-for-update, and the batch
// trail's tally must match the batch engine's own counters (decision
// attribution differs by design, so kinds are compared through the
// engines' invariants, not record-for-record).
func TestAuditSequentialVsBatchTally(t *testing.T) {
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			seqEng, seqTrail := loadAudited(t, p)
			batEng, batTrail := loadAudited(t, p)
			stream := makeStream(t, seqEng, 5)
			for start := 0; start < len(stream); start += chunkSize {
				chunk := stream[start:min(start+chunkSize, len(stream))]
				for _, u := range chunk {
					seqEng.Apply(u)
				}
				batEng.ApplyBatch(chunk)
			}
			sameEndState(t, seqEng, batEng)
			sr, br := seqTrail.Records(), batTrail.Records()
			if len(sr) != len(br) {
				t.Fatalf("trail lengths diverged: %d vs %d", len(sr), len(br))
			}
			for i := range sr {
				if (sr[i].Decision == "rejected") != (br[i].Decision == "rejected") {
					t.Fatalf("update %d: rejection mismatch: %q vs %q", i, sr[i].Decision, br[i].Decision)
				}
			}
			checkTrailTotals(t, seqEng, seqTrail)
			checkTrailTotals(t, batEng, batTrail)
		})
	}
}

// TestAuditBoundedTrailOnEngine: a bounded trail on a live engine keeps
// the most recent records and accounts for every drop.
func TestAuditBoundedTrailOnEngine(t *testing.T) {
	p, err := progs.ByName("fig3")
	if err != nil {
		t.Fatal(err)
	}
	const limit = 10
	trail := obs.NewTrail(limit)
	s, err := p.LoadWith(core.Options{Audit: trail})
	if err != nil {
		t.Fatal(err)
	}
	stream := makeStream(t, s, 7)
	for _, u := range stream {
		s.Apply(u)
	}
	if got := trail.Total(); got != int64(len(stream)) {
		t.Fatalf("total %d, want %d", got, len(stream))
	}
	if got := trail.Dropped(); got != int64(len(stream)-limit) {
		t.Fatalf("dropped %d, want %d", got, len(stream)-limit)
	}
	recs := trail.Records()
	if len(recs) != limit {
		t.Fatalf("retained %d records, want %d", len(recs), limit)
	}
	for i, rec := range recs {
		if want := len(stream) - limit + i + 1; rec.Seq != want {
			t.Fatalf("record %d: seq %d, want %d", i, rec.Seq, want)
		}
	}
}

// Tests for the adaptive precision controller: deadline-driven
// degradation, the degrade → differential-check → promote soundness
// loop across the catalog × seeds matrix, the background
// repair goroutine, the typed sentinel errors, and the snapshot round
// trip of the degraded set.
package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/flayerr"
	"repro/internal/obs"
	"repro/internal/progs"
)

// preciseOpts disables both the static overapproximation threshold and
// the background repair loop, so every precision transition in a test
// is explicit.
func preciseOpts() core.Options {
	return core.Options{OverapproxThreshold: -1, RepairInterval: -1}
}

// TestDeadlineDegradesMidFlight grows the middleblock ACL precisely to
// train the cost estimator, then applies one update under a budget of a
// quarter of what the estimator projects for it: the controller must
// degrade the table before the expensive precise pass, mark the
// decision, and record the transition in stats, metrics and the audit
// trail. The budget is sized against the projection, not the clock, so
// the outcome does not depend on how fast the precise pass runs here;
// what does depend on the clock is admission — a head insert projects
// tens of microseconds, and a quarter of that can run out before the
// engine looks at the update, which then rejects it untouched
// (TestSentinelErrors) — so such a call is simply made again.
func TestDeadlineDegradesMidFlight(t *testing.T) {
	const aclTable = "Ingress.acl_pre_ingress"
	p := progs.Middleblock()
	reg := obs.NewRegistry()
	trail := obs.NewTrail(0)
	opts := preciseOpts()
	opts.Metrics, opts.Audit = reg, trail
	s, err := p.LoadWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Train the EWMA: 60 precise inserts (Table 3's linear growth).
	for i := 0; i < 60; i++ {
		if d := s.Apply(progs.MiddleblockACLEntry(i)); d.Kind == core.Rejected {
			t.Fatalf("entry %d rejected: %v", i, d.Err)
		}
	}
	if st := s.Statistics(); st.Degradations != 0 {
		t.Fatalf("degradations = %d before any deadline", st.Degradations)
	}

	projected := core.ProjectedCost(s, aclTable)
	if projected <= 0 {
		t.Fatalf("estimator projects %v after 60 precise updates", projected)
	}
	var d *core.Decision
	for attempt := 0; attempt < 50; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), projected/4)
		d = s.ApplyCtx(ctx, progs.MiddleblockACLEntry(60))
		cancel()
		if d.Kind != core.Rejected || !errors.Is(d.Err, flayerr.ErrDeadlineExceeded) {
			break
		}
	}
	if d.Kind == core.Rejected {
		t.Fatalf("deadline update rejected: %v", d.Err)
	}
	if !d.Degraded {
		t.Fatalf("decision not marked degraded: %+v", d)
	}
	st := s.Statistics()
	if st.Degradations != 1 || st.DegradedTables != 1 {
		t.Fatalf("stats after deadline: degradations=%d degraded_tables=%d, want 1/1", st.Degradations, st.DegradedTables)
	}
	if got := s.DegradedTables(); len(got) != 1 || got[0] != aclTable {
		t.Fatalf("DegradedTables() = %v, want [%s]", got, aclTable)
	}
	if got := reg.Counter("core.degradations").Value(); got != 1 {
		t.Fatalf("core.degradations counter = %d, want 1", got)
	}
	if n := trail.CountByDecision()["degrade"]; n != 1 {
		t.Fatalf("audit degrade records = %d, want 1", n)
	}

	// Later updates to the degraded table stay on the flat path and
	// carry the marker, without further degradation events.
	d2 := s.Apply(progs.MiddleblockACLEntry(61))
	if d2.Kind == core.Rejected || !d2.Degraded {
		t.Fatalf("follow-up decision = %+v, want accepted and degraded", d2)
	}
	if st := s.Statistics(); st.Degradations != 1 {
		t.Fatalf("degradations = %d after follow-up, want still 1", st.Degradations)
	}

	// The differential check re-runs every degraded verdict precisely;
	// promotion restores precision. Both must find zero unsound flips.
	checked, unsound, err := s.DifferentialCheck()
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 || unsound != 0 {
		t.Fatalf("differential check: checked=%d unsound=%d, want >0/0", checked, unsound)
	}
	if unsound, err := s.PromoteAll(); err != nil || unsound != 0 {
		t.Fatalf("PromoteAll: unsound=%d err=%v", unsound, err)
	}
	if got := s.DegradedTables(); len(got) != 0 {
		t.Fatalf("tables still degraded after PromoteAll: %v", got)
	}
	if n := trail.CountByDecision()["promote"]; n != 1 {
		t.Fatalf("audit promote records = %d, want 1", n)
	}
}

// TestDeadlineRuleOneOrBatchOfOne: the engine has one deadline rule, so
// an ApplyCtx and an ApplyBatchCtx of the same single update, under the
// same too-short budget, degrade the same table — and, the degraded pass
// having run the flat path, leave the cost estimate where it was.
func TestDeadlineRuleOneOrBatchOfOne(t *testing.T) {
	const aclTable = "Ingress.acl_pre_ingress"
	for _, call := range []struct {
		name string
		do   func(context.Context, *core.Specializer, *controlplane.Update) *core.Decision
	}{
		{"apply", func(ctx context.Context, s *core.Specializer, u *controlplane.Update) *core.Decision {
			return s.ApplyCtx(ctx, u)
		}},
		{"batch", func(ctx context.Context, s *core.Specializer, u *controlplane.Update) *core.Decision {
			return s.ApplyBatchCtx(ctx, []*controlplane.Update{u})[0]
		}},
	} {
		t.Run(call.name, func(t *testing.T) {
			s, err := progs.Middleblock().LoadWith(preciseOpts())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 60; i++ {
				accepted(t, s.Apply(progs.MiddleblockACLEntry(i)))
			}
			projected := core.ProjectedCost(s, aclTable)
			if projected <= 0 {
				t.Fatalf("estimator projects %v after 60 precise updates", projected)
			}
			// As in TestDeadlineDegradesMidFlight, a budget this short can
			// run out before admission; such a call is made again.
			var d *core.Decision
			for attempt := 0; attempt < 50; attempt++ {
				ctx, cancel := context.WithTimeout(context.Background(), projected/4)
				d = call.do(ctx, s, progs.MiddleblockACLEntry(60))
				cancel()
				if !errors.Is(d.Err, flayerr.ErrDeadlineExceeded) {
					break
				}
			}
			accepted(t, d)
			if got := s.DegradedTables(); !d.Degraded || len(got) != 1 || got[0] != aclTable {
				t.Fatalf("decision degraded = %v, DegradedTables() = %v, want true and [%s]", d.Degraded, got, aclTable)
			}
			if got := core.ProjectedCost(s, aclTable); got != projected {
				t.Fatalf("a degraded pass moved the estimate: %v, was %v", got, projected)
			}
		})
	}
}

// TestDegradePromoteMatrix is the soundness matrix from the acceptance
// bar: for every catalog program × fuzzer seed, degrade
// every table mid-stream, finish the stream degraded, verify zero
// unsound verdicts via the differential check, promote everything, and
// require the end state to be indistinguishable from a control engine
// that never degraded.
func TestDegradePromoteMatrix(t *testing.T) {
	const half = 16
	for _, p := range equivPrograms() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 2; seed++ {
				s, err := p.LoadWith(preciseOpts())
				if err != nil {
					t.Fatal(err)
				}
				control, err := p.LoadWith(preciseOpts())
				if err != nil {
					t.Fatal(err)
				}
				stream := makeStream(t, s, seed)[:2*half]
				for _, u := range stream[:half] {
					s.Apply(u)
					control.Apply(u)
					checkIdeal(t, u.String(), s)
				}
				for _, table := range s.An.TableOrder {
					if err := s.Degrade(table); err != nil {
						t.Fatalf("Degrade(%s): %v", table, err)
					}
					checkIdeal(t, "degrade "+table, s)
				}
				for i, u := range stream[half:] {
					ds := s.Apply(u)
					dc := control.Apply(u)
					checkIdeal(t, u.String(), s, control)
					if (ds.Kind == core.Rejected) != (dc.Kind == core.Rejected) {
						t.Fatalf("seed %d update %d: rejection mismatch degraded=%s control=%s",
							seed, half+i, ds.Kind, dc.Kind)
					}
				}
				checked, unsound, err := s.DifferentialCheck()
				if err != nil {
					t.Fatal(err)
				}
				if unsound != 0 {
					t.Fatalf("seed %d: %d unsound degraded verdicts (checked %d)", seed, unsound, checked)
				}
				if unsound, err := s.PromoteAll(); err != nil || unsound != 0 {
					t.Fatalf("seed %d: PromoteAll unsound=%d err=%v", seed, unsound, err)
				}
				checkIdeal(t, "promote", s)
				sameEndState(t, control, s)
				if st := s.Statistics(); st.UnsoundDegraded != 0 {
					t.Fatalf("UnsoundDegraded = %d", st.UnsoundDegraded)
				}
			}
		})
	}
}

// TestRepairLoopPromotesDuringQuiescence degrades a table on an engine
// with a fast repair cadence and verifies the background goroutine
// promotes it back (with zero unsound verdicts) once the engine goes
// quiet — no explicit PromoteAll.
func TestRepairLoopPromotesDuringQuiescence(t *testing.T) {
	p := progs.Fig3()
	s, err := p.LoadWith(core.Options{RepairInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, u := range progs.Fig3Updates() {
		if d := s.Apply(u); d.Kind == core.Rejected {
			t.Fatalf("update %d rejected: %v", i, d.Err)
		}
	}
	if err := s.Degrade("Ingress.eth_table"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Statistics()
		if st.DegradedTables == 0 {
			if st.Promotions < 1 {
				t.Fatalf("repair cleared the degraded set without a promotion: %+v", st)
			}
			if st.UnsoundDegraded != 0 {
				t.Fatalf("repair loop found %d unsound verdicts", st.UnsoundDegraded)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("repair loop never promoted: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSentinelErrors pins the typed error contract on the engine
// surface: exhausted budgets, cancellation, closed engines and unknown
// tables each map to their flayerr sentinel via errors.Is.
func TestSentinelErrors(t *testing.T) {
	p := progs.Fig3()
	s, err := p.LoadWith(preciseOpts())
	if err != nil {
		t.Fatal(err)
	}
	u := progs.Fig3Updates()[0]

	expired, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	d := s.ApplyCtx(expired, u)
	if d.Kind != core.Rejected || !errors.Is(d.Err, flayerr.ErrDeadlineExceeded) {
		t.Fatalf("expired-budget decision = %s err=%v, want rejected ErrDeadlineExceeded", d.Kind, d.Err)
	}
	if ds := s.ApplyBatchCtx(expired, progs.Fig3Updates()); len(ds) == 0 || ds[0].Kind != core.Rejected ||
		!errors.Is(ds[0].Err, flayerr.ErrDeadlineExceeded) {
		t.Fatalf("expired-budget batch decisions = %v, want all rejected ErrDeadlineExceeded", ds)
	}

	canceled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	d = s.ApplyCtx(canceled, u)
	if d.Kind != core.Rejected || !errors.Is(d.Err, context.Canceled) {
		t.Fatalf("canceled decision = %s err=%v, want rejected context.Canceled", d.Kind, d.Err)
	}
	if errors.Is(d.Err, flayerr.ErrDeadlineExceeded) {
		t.Fatalf("plain cancellation misclassified as deadline: %v", d.Err)
	}

	if err := s.Degrade("no.such_table"); !errors.Is(err, flayerr.ErrUnknownTable) {
		t.Fatalf("Degrade(unknown) = %v, want ErrUnknownTable", err)
	}

	s.Close()
	s.Close() // idempotent
	d = s.Apply(u)
	if d.Kind != core.Rejected || !errors.Is(d.Err, flayerr.ErrClosed) {
		t.Fatalf("post-Close decision = %s err=%v, want rejected ErrClosed", d.Kind, d.Err)
	}
}

// TestSnapshotDegradedRoundTrip: the degraded set (and its stats) must
// survive Snapshot/Restore, the restored engine must still answer
// overapproximated for the pinned table, and promotion afterwards must
// be sound. Corrupt snapshots must reject with the typed sentinel.
func TestSnapshotDegradedRoundTrip(t *testing.T) {
	p := progs.Fig3()
	s, err := p.LoadWith(preciseOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range progs.Fig3Updates() {
		s.Apply(u)
	}
	if err := s.Degrade("Ingress.eth_table"); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := core.Restore(snap, preciseOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.DegradedTables(); len(got) != 1 || got[0] != "Ingress.eth_table" {
		t.Fatalf("restored DegradedTables() = %v, want [Ingress.eth_table]", got)
	}
	if !restored.Cfg.Overapproximated("Ingress.eth_table") {
		t.Fatal("restored table not pinned to overapproximation")
	}
	rst, sst := restored.Statistics(), s.Statistics()
	if rst.Degradations != sst.Degradations || rst.DegradedTables != sst.DegradedTables {
		t.Fatalf("restored precision stats %+v, want %+v", rst, sst)
	}
	if unsound, err := restored.PromoteAll(); err != nil || unsound != 0 {
		t.Fatalf("restored PromoteAll: unsound=%d err=%v", unsound, err)
	}
	if unsound, err := s.PromoteAll(); err != nil || unsound != 0 {
		t.Fatalf("original PromoteAll: unsound=%d err=%v", unsound, err)
	}
	sameEndState(t, s, restored)

	corrupt := append([]byte(nil), snap...)
	corrupt[len(corrupt)/2] ^= 0x40
	if _, err := core.Restore(corrupt, core.Options{}); !errors.Is(err, flayerr.ErrSnapshotCorrupt) {
		t.Fatalf("Restore(corrupt) = %v, want ErrSnapshotCorrupt", err)
	}
	if _, err := core.Restore(snap[:8], core.Options{}); !errors.Is(err, flayerr.ErrSnapshotCorrupt) {
		t.Fatalf("Restore(truncated) = %v, want ErrSnapshotCorrupt", err)
	}
}

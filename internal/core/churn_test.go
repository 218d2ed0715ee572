// Churn suite: the trace-driven update patterns (diurnal drift,
// route-flap storms, incremental ACL rollout, delete-heavy GC) replayed
// against the production-shaped catalog programs. For each program ×
// pattern the batch path replays the stream exactly the way a
// controller would push it (one ApplyBatch per declared batch) and must
// be observationally identical to the sequential engine; the pattern's
// declared steady-state invariant must hold on both; and the audit
// trail must be a gapless transcript. This is the engine's regression
// battery for sustained, realistic reconfiguration — the behavior
// Fig. 1 argues specialization must survive.
package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/obs"
	"repro/internal/progs"
)

// churnLen is the per-pattern stream length in the matrix. The soak
// tier (make soak-churn) runs the same patterns several orders of
// magnitude longer through flayd.
const churnLen = 64

// churnPrograms are the production-shaped programs the churn patterns
// model: NAT session churn, LB connection affinity churn, tunnel
// endpoint churn.
func churnPrograms(t *testing.T) []*progs.Program {
	t.Helper()
	var out []*progs.Program
	for _, name := range []string{"nat44", "l4lb", "tunnelterm"} {
		p, err := progs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// TestChurnPatternsMatrix: program × pattern, sequential vs
// controller-shaped batches, with auditing on the batch engine.
func TestChurnPatternsMatrix(t *testing.T) {
	for _, p := range churnPrograms(t) {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, kind := range fuzz.PatternKinds() {
				t.Run(kind.String(), func(t *testing.T) {
					seq := loadEngine(t, p)
					trail := obs.NewTrail(0)
					bat, err := p.LoadWith(core.Options{Audit: trail})
					if err != nil {
						t.Fatal(err)
					}
					if err := p.ApplyRepresentative(seq); err != nil {
						t.Fatal(err)
					}
					if err := p.ApplyRepresentative(bat); err != nil {
						t.Fatal(err)
					}
					before := seq.Cfg.NumEntries(p.BurstTable)

					cs, err := fuzz.Churn(seq.An, fuzz.ChurnSpec{
						Kind: kind, Table: p.BurstTable, Updates: churnLen, Seed: uint64(kind)*31 + 7,
					})
					if err != nil {
						t.Fatal(err)
					}
					for i, u := range cs.Updates {
						if d := seq.Apply(u); d.Kind == core.Rejected {
							t.Fatalf("sequential update %d (%s) rejected: %v", i, u, d.Err)
						}
						checkIdeal(t, u.String(), seq)
					}
					applied := 0
					for _, batch := range cs.Batches() {
						for i, d := range bat.ApplyBatch(batch) {
							if d.Kind == core.Rejected {
								t.Fatalf("batched update %d (%s) rejected: %v", applied+i, batch[i], d.Err)
							}
						}
						applied += len(batch)
						checkIdeal(t, "batch", bat)
					}
					if applied != churnLen {
						t.Fatalf("batches covered %d of %d updates", applied, churnLen)
					}

					sameEndState(t, seq, bat)
					for _, s := range []*core.Specializer{seq, bat} {
						if err := cs.CheckInvariant(s.Cfg.NumEntries(p.BurstTable) - before); err != nil {
							t.Fatal(err)
						}
					}

					// The audit trail must transcribe every update —
					// representative config plus churn — with gapless
					// sequence numbers.
					st := bat.Statistics()
					if trail.Total() != int64(st.Updates) {
						t.Fatalf("audit total %d, engine processed %d", trail.Total(), st.Updates)
					}
					recs := trail.Records()
					for i := 1; i < len(recs); i++ {
						if recs[i].Seq != recs[i-1].Seq+1 {
							t.Fatalf("audit seq gap: %d then %d", recs[i-1].Seq, recs[i].Seq)
						}
					}
					if len(recs) > 0 && int64(recs[len(recs)-1].Seq) != trail.Total() {
						t.Fatalf("last audit seq %d, total %d", recs[len(recs)-1].Seq, trail.Total())
					}
				})
			}
		})
	}
}

// TestChurnSnapshotDegradedRoundTrip: under each production-shaped
// program, run churn, degrade the churned table, snapshot, and restore:
// the degraded set must survive (the restore re-pins the table before
// compiling), promotion must be sound, and the restored engine must be
// indistinguishable from the original.
func TestChurnSnapshotDegradedRoundTrip(t *testing.T) {
	for _, p := range churnPrograms(t) {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			s, err := p.LoadWith(preciseOpts())
			if err != nil {
				t.Fatal(err)
			}
			if err := p.ApplyRepresentative(s); err != nil {
				t.Fatal(err)
			}
			cs, err := fuzz.Churn(s.An, fuzz.ChurnSpec{
				Kind: fuzz.Diurnal, Table: p.BurstTable, Updates: 32, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range cs.Updates {
				if d := s.Apply(u); d.Kind == core.Rejected {
					t.Fatalf("churn update %d rejected: %v", i, d.Err)
				}
			}
			if err := s.Degrade(p.BurstTable); err != nil {
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
			if got := restored.DegradedTables(); len(got) != 1 || got[0] != p.BurstTable {
				t.Fatalf("restored DegradedTables() = %v, want [%s]", got, p.BurstTable)
			}
			if !restored.Cfg.Overapproximated(p.BurstTable) {
				t.Fatalf("restored %s not pinned to overapproximation", p.BurstTable)
			}
			for _, eng := range []*core.Specializer{s, restored} {
				if unsound, err := eng.PromoteAll(); err != nil || unsound != 0 {
					t.Fatalf("PromoteAll: unsound=%d err=%v", unsound, err)
				}
			}
			sameEndState(t, s, restored)
			if st := restored.Statistics(); st.UnsoundDegraded != 0 {
				t.Fatalf("UnsoundDegraded = %d", st.UnsoundDegraded)
			}
		})
	}
}

// Differential proof of the decision-diagram query core: an engine
// answering specialization queries on the diagram path must be
// observationally identical to the probe-solver engine — same
// per-update decisions, same per-point verdicts, byte-identical
// specialized source — on every catalog program, across fuzzer streams
// and every churn pattern. The diagram path is a pure accelerator; this
// suite is the contract that keeps it one.
package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/progs"
)

// ddSeeds are the fuzzer streams the catalog differential replays.
var ddSeeds = []uint64{0xde, 0xe1, 0xe5, 0xed}

func loadDD(t *testing.T, p *progs.Program, noDD bool) *core.Specializer {
	t.Helper()
	s, err := p.LoadWith(core.Options{NoDD: noDD})
	if err != nil {
		t.Fatalf("%s: load: %v", p.Name, err)
	}
	return s
}

// TestDDMatchesSolverCatalog replays the same fuzzer stream through a
// diagram engine and a NoDD engine for every catalog program × seed,
// asserting decision-for-decision and end-state equality.
func TestDDMatchesSolverCatalog(t *testing.T) {
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range ddSeeds {
				dd := loadDD(t, p, false)
				solver := loadDD(t, p, true)
				for i, u := range makeStream(t, dd, seed) {
					sameDecision(t, i, dd.Apply(u), solver.Apply(u))
				}
				sameEndState(t, dd, solver)
				dst, sst := dd.Statistics(), solver.Statistics()
				if dst.Forwarded != sst.Forwarded || dst.Recompilations != sst.Recompilations || dst.Rejected != sst.Rejected {
					t.Fatalf("seed %#x: outcome counters diverged: %+v vs %+v", seed, dst, sst)
				}
				if sst.DDQueries != 0 || sst.DDCompiles != 0 || sst.DDNodes != 0 {
					t.Fatalf("seed %#x: NoDD engine reported diagram activity: %+v", seed, sst)
				}
			}
		})
	}
}

// TestDDMatchesSolverChurn replays every churn pattern against the
// production-shaped programs on both engines, batch-shaped exactly like
// the controller would push it. The steady-state invariant and the end
// state must hold identically on both.
func TestDDMatchesSolverChurn(t *testing.T) {
	for _, p := range churnPrograms(t) {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, kind := range fuzz.PatternKinds() {
				t.Run(kind.String(), func(t *testing.T) {
					dd := loadDD(t, p, false)
					solver := loadDD(t, p, true)
					for _, s := range []*core.Specializer{dd, solver} {
						if err := p.ApplyRepresentative(s); err != nil {
							t.Fatal(err)
						}
					}
					cs, err := fuzz.Churn(dd.An, fuzz.ChurnSpec{
						Kind: kind, Table: p.BurstTable, Updates: churnLen, Seed: uint64(kind)*17 + 3,
					})
					if err != nil {
						t.Fatal(err)
					}
					for _, batch := range cs.Batches() {
						dds := dd.ApplyBatch(batch)
						sds := solver.ApplyBatch(batch)
						for i := range batch {
							if (dds[i].Kind == core.Rejected) != (sds[i].Kind == core.Rejected) {
								t.Fatalf("rejection mismatch on %s: %s vs %s", batch[i], dds[i].Kind, sds[i].Kind)
							}
						}
					}
					sameEndState(t, dd, solver)
				})
			}
		})
	}
}

// TestDDEngineActuallyUsesDiagrams guards against the accelerator
// silently falling back everywhere: on the catalog's precise-mode
// programs the diagram path must answer a meaningful share of queries.
func TestDDEngineActuallyUsesDiagrams(t *testing.T) {
	answered := int64(0)
	for _, p := range progs.Catalog() {
		s := loadDD(t, p, false)
		for _, u := range makeStream(t, s, 7) {
			s.Apply(u)
		}
		st := s.Statistics()
		answered += st.DDQueries
		if st.DDNodes == 0 && st.Points > 0 {
			t.Errorf("%s: diagram store stayed empty", p.Name)
		}
	}
	if answered == 0 {
		t.Fatal("no query was ever answered on the diagram path")
	}
}

// TestDDSnapshotPreservesVariableOrder round-trips an engine through
// Snapshot/Restore and asserts the restored engine's diagram core walks
// the same variable order — and still matches the solver engine on a
// post-restore stream.
func TestDDSnapshotPreservesVariableOrder(t *testing.T) {
	for _, name := range []string{"fig3", "scion", "nat44"} {
		t.Run(name, func(t *testing.T) {
			p, err := progs.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			s := loadDD(t, p, false)
			stream := makeStream(t, s, 0x5eed)
			for _, u := range stream[:len(stream)/2] {
				s.Apply(u)
			}
			before := s.VariableOrder()
			data, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			r, err := core.Restore(data, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			after := r.VariableOrder()
			if len(before) == 0 || len(after) != len(before) {
				t.Fatalf("variable order: %d atoms before, %d after", len(before), len(after))
			}
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("atom %d: %v before, %v after", i, before[i], after[i])
				}
			}
			solver, err := core.Restore(data, core.Options{NoDD: true})
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range stream[len(stream)/2:] {
				sameDecision(t, i, r.Apply(u), solver.Apply(u))
			}
			sameEndState(t, r, solver)
		})
	}
}

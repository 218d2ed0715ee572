// The decision procedure held to the enumeration: after every update
// and every batch, on every catalog program across fuzzer streams and
// every churn pattern, the verdict each point holds must be the one the
// solver's enumeration of the residue's domain gives
// (core.CheckAgainstPerPointSubst). Equal verdict vectors after every
// call imply equal decisions, so one engine and the oracle are the
// whole contract: a diagram walk proves only what the enumeration
// proves, and a residue the diagram cannot decide gets no proof only
// where the enumeration finds none either.
package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/progs"
)

// ddSeeds are the fuzzer streams the catalog differential replays.
var ddSeeds = []uint64{0xde, 0xe1, 0xe5, 0xed}

func loadDD(t *testing.T, p *progs.Program) *core.Specializer {
	t.Helper()
	s, err := p.LoadWith(core.Options{})
	if err != nil {
		t.Fatalf("%s: load: %v", p.Name, err)
	}
	t.Cleanup(s.Close)
	return s
}

// matchesOracle fails the test when any verdict of s differs from the
// enumeration's on the point's residue.
func matchesOracle(t *testing.T, s *core.Specializer, when string) {
	t.Helper()
	if err := core.CheckAgainstPerPointSubst(s); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestDDMatchesSolverCatalog replays a fuzzer stream through the engine
// for every catalog program × seed, holding every verdict to the
// enumeration after every update.
func TestDDMatchesSolverCatalog(t *testing.T) {
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range ddSeeds {
				s := loadDD(t, p)
				matchesOracle(t, s, fmt.Sprintf("seed %#x open", seed))
				for i, u := range makeStream(t, s, seed) {
					s.Apply(u)
					matchesOracle(t, s, fmt.Sprintf("seed %#x update %d (%s)", seed, i, u))
				}
				ddAccounted(t, s, fmt.Sprintf("seed %#x", seed))
			}
		})
	}
}

// TestDDMatchesSolverChurn replays every churn pattern against the
// production-shaped programs, batch-shaped exactly like the controller
// would push it, holding every verdict to the enumeration after the
// representative configuration and after every batch.
func TestDDMatchesSolverChurn(t *testing.T) {
	for _, p := range churnPrograms(t) {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, kind := range fuzz.PatternKinds() {
				t.Run(kind.String(), func(t *testing.T) {
					s := loadDD(t, p)
					if err := p.ApplyRepresentative(s); err != nil {
						t.Fatal(err)
					}
					matchesOracle(t, s, "representative")
					cs, err := fuzz.Churn(s.An, fuzz.ChurnSpec{
						Kind: kind, Table: p.BurstTable, Updates: churnLen, Seed: uint64(kind)*17 + 3,
					})
					if err != nil {
						t.Fatal(err)
					}
					for bi, batch := range cs.Batches() {
						s.ApplyBatch(batch)
						matchesOracle(t, s, fmt.Sprintf("batch %d", bi))
					}
				})
			}
		})
	}
}

// TestDDEngineActuallyUsesDiagrams guards against the diagram stage
// silently deciding nothing: on the catalog's programs the diagram path
// must answer a meaningful share of queries.
func TestDDEngineActuallyUsesDiagrams(t *testing.T) {
	answered := int64(0)
	for _, p := range progs.Catalog() {
		s := loadDD(t, p)
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
// the same variable order — and still matches the enumeration, and the
// engine it was restored from, on a post-restore stream.
func TestDDSnapshotPreservesVariableOrder(t *testing.T) {
	for _, name := range []string{"fig3", "scion", "nat44"} {
		t.Run(name, func(t *testing.T) {
			p, err := progs.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			s := loadDD(t, p)
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
			defer r.Close()
			after := r.VariableOrder()
			if len(before) == 0 || len(after) != len(before) {
				t.Fatalf("variable order: %d atoms before, %d after", len(before), len(after))
			}
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("atom %d: %v before, %v after", i, before[i], after[i])
				}
			}
			matchesOracle(t, r, "restored")
			for i, u := range stream[len(stream)/2:] {
				sameDecision(t, i, r.Apply(u), s.Apply(u))
				matchesOracle(t, r, fmt.Sprintf("update %d after restore (%s)", i, u))
			}
			sameEndState(t, r, s)
		})
	}
}

// Arena suite: the expression-arena garbage collector (arena.go) under
// sustained churn. Hash-consed nodes are immortal without it, so a
// long-lived engine leaks heap proportional to update history — the
// failure mode the long-horizon soak tier (make soak-churn) first
// caught. The test drives enough insert/drain cycles to cross the
// sweep threshold repeatedly and asserts (a) sweeps actually ran,
// (b) the intern table stays bounded by live state rather than
// history, and (c) an engine that swept at per-update boundaries is
// observationally identical to one that swept at per-batch boundaries
// — sweep scheduling must never be visible.
package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/progs"
)

// arenaCycles × arenaCycleLen updates intern roughly a dozen fresh
// nodes each, comfortably crossing the 1<<14-node sweep floor several
// times while keeping the test in single-digit seconds.
const (
	arenaCycles   = 4
	arenaCycleLen = 512
	// arenaNodeBound is the post-run ceiling on interned nodes: after a
	// drain the live set is far below the sweep floor (1<<14), so the
	// re-armed threshold is the floor itself and the table must sit
	// under 2× the floor with room for one cycle of fresh residue.
	arenaNodeBound = 1 << 15
)

func TestArenaSweepBoundsNodes(t *testing.T) {
	p, err := progs.ByName("nat44")
	if err != nil {
		t.Fatal(err)
	}
	seq := loadEngine(t, p)
	bat := loadEngine(t, p)
	for _, s := range []*core.Specializer{seq, bat} {
		if err := p.ApplyRepresentative(s); err != nil {
			t.Fatal(err)
		}
	}
	baseline := seq.Cfg.NumEntries(p.BurstTable)

	for cyc := 0; cyc < arenaCycles; cyc++ {
		cs, err := fuzz.Churn(seq.An, fuzz.ChurnSpec{
			Kind: fuzz.Diurnal, Table: p.BurstTable,
			Updates: arenaCycleLen, Seed: 1000 + uint64(cyc),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range cs.Updates {
			if d := seq.Apply(u); d.Kind == core.Rejected {
				t.Fatalf("cycle %d: sequential update %d (%s) rejected: %v", cyc, i, u, d.Err)
			}
		}
		for _, batch := range cs.Batches() {
			for i, d := range bat.ApplyBatch(batch) {
				if d.Kind == core.Rejected {
					t.Fatalf("cycle %d: batched update %s rejected: %v", cyc, batch[i], d.Err)
				}
			}
		}
		drain := cs.Drain()
		for _, u := range drain {
			if d := seq.Apply(u); d.Kind == core.Rejected {
				t.Fatalf("cycle %d: sequential drain of %s rejected: %v", cyc, u, d.Err)
			}
		}
		for _, d := range bat.ApplyBatch(drain) {
			if d.Kind == core.Rejected {
				t.Fatalf("cycle %d: batched drain rejected: %v", cyc, d.Err)
			}
		}
	}

	for name, s := range map[string]*core.Specializer{"sequential": seq, "batch": bat} {
		st := s.Statistics()
		if st.ArenaSweeps == 0 {
			t.Errorf("%s: no arena sweeps after %d churn updates", name, arenaCycles*arenaCycleLen)
		}
		if st.ArenaSwept == 0 {
			t.Errorf("%s: sweeps ran but reclaimed nothing", name)
		}
		if st.ArenaNodes > arenaNodeBound {
			t.Errorf("%s: %d interned nodes after drain (> %d): arena grows with history, not live state",
				name, st.ArenaNodes, arenaNodeBound)
		}
		if got := s.Cfg.NumEntries(p.BurstTable); got != baseline {
			t.Errorf("%s: %d entries in %s after drain, want baseline %d", name, got, p.BurstTable, baseline)
		}
		t.Logf("%s: sweeps=%d swept=%d live=%d", name, st.ArenaSweeps, st.ArenaSwept, st.ArenaNodes)
	}
	// The two engines swept at different points in history (per update
	// vs per batch); their end states must still be indistinguishable.
	sameEndState(t, seq, bat)
}

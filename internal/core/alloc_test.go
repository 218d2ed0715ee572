package core_test

import (
	"testing"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/progs"
)

// TestSingleUpdateAllocations pins what the single-update path costs in
// allocations, the one cost of routing Apply through the batch steps
// that a benchmark would not resolve: on precise middleblock with 150
// ACL entries a head insert and its delete allocate, together, no more
// than they did when Apply had a path of its own (26), and as a batch of
// one each, no more than that plus the two result slices.
func TestSingleUpdateAllocations(t *testing.T) {
	const entries = 150
	s, err := progs.Middleblock().LoadWith(core.Options{OverapproxThreshold: -1, RepairInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	load := make([]*controlplane.Update, entries)
	for i := range load {
		load[i] = progs.MiddleblockACLEntry(i)
	}
	install(t, s, load)
	probe := progs.MiddleblockACLEntry(entries) // priorities ascend: the head
	unprobe := &controlplane.Update{Kind: controlplane.DeleteEntry, Table: probe.Table, Entry: probe.Entry}
	one, other := []*controlplane.Update{probe}, []*controlplane.Update{unprobe}

	if got := testing.AllocsPerRun(200, func() {
		s.Apply(probe)
		s.Apply(unprobe)
	}); got > 26 {
		t.Errorf("Apply(insert)+Apply(delete) allocates %v times, want <= 26", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		s.ApplyBatch(one)
		s.ApplyBatch(other)
	}); got > 28 {
		t.Errorf("the same pair as batches of one allocates %v times, want <= 28", got)
	}
}

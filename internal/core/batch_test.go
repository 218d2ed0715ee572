package core

import (
	"sync"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/p4/ast"
	"repro/internal/sym"
)

func specSource(s *Specializer) string { return ast.Print(s.SpecializedProgram()) }

// TestApplyBatchEmpty: nil and empty batches are no-ops that still
// count one batch each and leave every observable unchanged.
func TestApplyBatchEmpty(t *testing.T) {
	s := newSpec(t, fig3Src, Options{})
	before := specSource(s)
	if ds := s.ApplyBatch(nil); ds != nil {
		t.Fatalf("nil batch returned %v", ds)
	}
	if ds := s.ApplyBatch([]*controlplane.Update{}); ds != nil {
		t.Fatalf("empty batch returned %v", ds)
	}
	st := s.Statistics()
	if st.Batches != 2 || st.BatchedUpdates != 0 || st.Updates != 0 {
		t.Fatalf("stats after empty batches: %+v", st)
	}
	if got := specSource(s); got != before {
		t.Fatal("empty batch changed the specialized program")
	}
}

// TestApplyBatchMidRejected: a rejected update in the middle of a batch
// contributes nothing — the batch's end state equals sequentially
// applying only the valid updates, and the rejection is reported at its
// position with the error attached.
func TestApplyBatchMidRejected(t *testing.T) {
	good1 := ternaryEntry(0x1, ^uint64(0)>>16, "set", sym.NewBV(16, 1))
	good2 := ternaryEntry(0x2, ^uint64(0)>>16, "set", sym.NewBV(16, 2))
	batch := []*controlplane.Update{
		insert(good1),
		insert(good1), // duplicate: rejected, mid-batch
		insert(good2),
	}

	s := newSpec(t, fig3Src, Options{})
	ds := s.ApplyBatch(batch)
	if ds[0].Kind == Rejected || ds[2].Kind == Rejected {
		t.Fatalf("valid updates rejected: %s / %s", ds[0], ds[2])
	}
	if ds[1].Kind != Rejected || ds[1].Err == nil {
		t.Fatalf("duplicate insert: %s", ds[1])
	}

	// Twin engine, valid updates only, applied sequentially.
	twin := newSpec(t, fig3Src, Options{})
	twin.Apply(insert(good1))
	twin.Apply(insert(good2))
	if specSource(s) != specSource(twin) {
		t.Fatalf("mid-batch rejection leaked state:\n%s\nvs\n%s", specSource(s), specSource(twin))
	}
	if s.Cfg.NumEntries(tbl) != 2 {
		t.Fatalf("entries = %d, want 2", s.Cfg.NumEntries(tbl))
	}
	st := s.Statistics()
	if st.Updates != 3 || st.Rejected != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Forwarded+st.Recompilations+st.Rejected != st.Updates {
		t.Fatalf("outcome partition broken: %+v", st)
	}

	// A call that accepts nothing ends after validation, one update or
	// several: no pass is opened and no analysis time is booked.
	s.ApplyBatch([]*controlplane.Update{insert(good1), insert(good2)})
	s.Apply(insert(good1))
	after := s.Statistics()
	if after.Rejected != st.Rejected+3 {
		t.Fatalf("rejected = %d, want %d", after.Rejected, st.Rejected+3)
	}
	if after.UpdateTime != st.UpdateTime || after.EvalTime != st.EvalTime {
		t.Fatalf("all-rejected calls booked analysis time: update %v→%v, eval %v→%v",
			st.UpdateTime, after.UpdateTime, st.EvalTime, after.EvalTime)
	}
}

// TestApplyBatchCoalescing: a burst targeting one table coalesces to a
// single evaluation pass; the counters record the elided work and keep
// the outcome partition.
func TestApplyBatchCoalescing(t *testing.T) {
	s := newSpec(t, fig3Src, Options{})
	// Two entries to get past the initial recompilations, as in
	// TestBurstForwarding.
	s.Apply(insert(ternaryEntry(0x1, ^uint64(0)>>16, "set", sym.NewBV(16, 1))))
	s.Apply(insert(ternaryEntry(0x2, ^uint64(0)>>16, "set", sym.NewBV(16, 2))))

	var batch []*controlplane.Update
	for i := 0; i < 30; i++ {
		batch = append(batch, insert(ternaryEntry(uint64(0x100+i), ^uint64(0)>>16, "set", sym.NewBV(16, uint64(i)))))
	}
	for i, d := range s.ApplyBatch(batch) {
		if d.Kind != Forward {
			t.Fatalf("batched update %d: %s, want forward", i, d)
		}
	}
	st := s.Statistics()
	if st.Batches != 1 || st.BatchedUpdates != 30 {
		t.Fatalf("batch counters: %+v", st)
	}
	if st.Coalesced != 29 {
		t.Fatalf("coalesced = %d, want 29 (30 accepted updates, 1 evaluation pass)", st.Coalesced)
	}
	if st.Forwarded+st.Recompilations+st.Rejected != st.Updates {
		t.Fatalf("outcome partition broken: %+v", st)
	}
}

// TestStatisticsDuringMutation hammers the read-only entry points from
// several goroutines while the engine mutates — the satellite fix for
// the Statistics torn-read race. The race detector is the assertion;
// the invariant check rides along (it can only be torn if Statistics
// reads mid-update).
func TestStatisticsDuringMutation(t *testing.T) {
	s := newSpec(t, fig3Src, Options{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Statistics()
				if st.Forwarded+st.Recompilations+st.Rejected != st.Updates {
					t.Errorf("torn stats read: %+v", st)
					return
				}
				s.Verdict(0)
				s.SpecializedProgram()
			}
		}()
	}
	for i := 0; i < 40; i++ {
		s.Apply(insert(ternaryEntry(uint64(0x2000+i), ^uint64(0)>>16, "set", sym.NewBV(16, uint64(i)))))
		if i%8 == 0 {
			s.ReevaluateAll()
		}
	}
	close(stop)
	wg.Wait()
}

// TestReevaluateAllConcurrentWithReads: ReevaluateAll (the full
// ablation pass, which clears every per-point cache) must coexist with
// concurrent readers under the race detector, and must find nothing to
// change on a consistent engine.
func TestReevaluateAllConcurrentWithReads(t *testing.T) {
	s := newSpec(t, fig3Src, Options{})
	s.Apply(insert(ternaryEntry(0x1, ^uint64(0)>>16, "set", sym.NewBV(16, 1))))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Statistics()
			}
		}
	}()
	for i := 0; i < 10; i++ {
		if changed := s.ReevaluateAll(); changed != 0 {
			t.Fatalf("ReevaluateAll found %d inconsistent verdicts", changed)
		}
	}
	close(stop)
	wg.Wait()
}

// Cache-differential equivalence suite for the taint-keyed
// specialization-query cache: a cached engine must be observationally
// identical to an uncached one — same per-update decisions, same end
// state, same audit trail — for every catalog program, across
// fuzzer-generated update streams and worker counts. The cache memoizes
// verdicts, which the engine's determinism invariant makes pure
// functions of (point expression, dependency assignments); any
// divergence here is a soundness bug in the cache key or its
// invalidation. Run under -race this also proves the per-point way
// slices really are single-owner during a pass.
//
// The suite also proves warm-start snapshots: an engine resumed from a
// mid-stream snapshot must finish the stream exactly like the engine
// that never stopped, audit tail and sequence numbers included.
package core_test

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/sym"
)

const cacheDiffSeeds = 2

// workerGrid is the engine pool sizes the differential runs over:
// serial, a mid pool, a pool matching the shard cap (single-core
// containers still get real interleaving under -race from these), and
// whatever GOMAXPROCS says. 8 is deliberately left to the GOMAXPROCS
// matrices (torture_test.go) — every grid entry here multiplies the
// two heaviest differential suites.
func workerGrid() []int {
	grid := []int{1, 4, 16}
	if n := runtime.GOMAXPROCS(0); !slices.Contains(grid, n) {
		grid = append(grid, n)
	}
	return grid
}

func loadDiff(t *testing.T, p *progs.Program, workers int, nocache bool) (*core.Specializer, *obs.Trail) {
	t.Helper()
	trail := obs.NewTrail(0)
	s, err := p.LoadWith(core.Options{Workers: workers, NoCache: nocache, Audit: trail})
	if err != nil {
		t.Fatalf("%s: load: %v", p.Name, err)
	}
	return s, trail
}

// normalize strips the audit fields that legitimately differ between
// engines answering the same stream: wall-clock time, the configured
// pool size, and which worker happened to re-prove a point. Everything
// else — sequence, target, decision, affected counts, per-point verdict
// flips, component lists, implementation changes — must match exactly.
func normalize(recs []obs.AuditRecord) []obs.AuditRecord {
	out := make([]obs.AuditRecord, len(recs))
	for i, r := range recs {
		r.ElapsedNS = 0
		r.Workers = 0
		r.Changes = slices.Clone(r.Changes)
		for j := range r.Changes {
			r.Changes[j].Worker = 0
		}
		out[i] = r
	}
	return out
}

func sameAudit(t *testing.T, label string, a, b []obs.AuditRecord) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d audit records vs %d", label, len(a), len(b))
	}
	na, nb := normalize(a), normalize(b)
	for i := range na {
		if na[i].Seq != nb[i].Seq || na[i].Batch != nb[i].Batch ||
			na[i].Target != nb[i].Target || na[i].Update != nb[i].Update ||
			na[i].Decision != nb[i].Decision || na[i].Affected != nb[i].Affected ||
			!slices.Equal(na[i].Changes, nb[i].Changes) ||
			!slices.Equal(na[i].Components, nb[i].Components) ||
			na[i].ImplChange != nb[i].ImplChange || na[i].Err != nb[i].Err {
			t.Fatalf("%s: audit record %d diverged:\n  %+v\nvs\n  %+v", label, i, na[i], nb[i])
		}
	}
}

func sameStats(t *testing.T, label string, a, b core.Stats) {
	t.Helper()
	if a.Updates != b.Updates || a.Forwarded != b.Forwarded ||
		a.Recompilations != b.Recompilations || a.Rejected != b.Rejected {
		t.Fatalf("%s: outcome counters diverged: %+v vs %+v", label, a, b)
	}
}

// TestCacheMatchesUncached is the core differential: the same fuzzer
// stream through a cached and an uncached engine, per-update decisions
// compared field for field, audit trails record for record, end states
// byte for byte — for every catalog program, seed, and pool size.
func TestCacheMatchesUncached(t *testing.T) {
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			for _, workers := range workerGrid() {
				for seed := uint64(1); seed <= cacheDiffSeeds; seed++ {
					cached, cachedTrail := loadDiff(t, p, workers, false)
					plain, plainTrail := loadDiff(t, p, workers, true)
					for i, u := range makeStream(t, cached, seed) {
						sameDecision(t, i, cached.Apply(u), plain.Apply(u))
					}
					sameEndState(t, cached, plain)
					sameAudit(t, p.Name, cachedTrail.Records(), plainTrail.Records())
					cs, ps := cached.Statistics(), plain.Statistics()
					sameStats(t, p.Name, cs, ps)
					if ps.CacheHits != 0 || ps.CacheMisses != 0 {
						t.Fatalf("NoCache engine reports cache traffic: %+v", ps)
					}
					if cs.CacheHits+cs.CacheMisses == 0 {
						t.Fatalf("cached engine issued no cache queries")
					}
				}
			}
		})
	}
}

// TestCacheMatchesUncachedBatched runs the differential through the
// coalescing batch path, which reuses the same evaluation hot path and
// must therefore hit the same cache soundly.
func TestCacheMatchesUncachedBatched(t *testing.T) {
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			for _, workers := range workerGrid() {
				cached, _ := loadDiff(t, p, workers, false)
				plain, _ := loadDiff(t, p, workers, true)
				stream := makeStream(t, cached, 7)
				for start := 0; start < len(stream); start += chunkSize {
					chunk := stream[start:min(start+chunkSize, len(stream))]
					cds := cached.ApplyBatch(chunk)
					pds := plain.ApplyBatch(chunk)
					for i := range chunk {
						sameDecision(t, start+i, cds[i], pds[i])
					}
				}
				sameEndState(t, cached, plain)
				sameStats(t, p.Name, cached.Statistics(), plain.Statistics())
			}
		})
	}
}

// TestSnapshotResumeMatchesUninterrupted proves warm restarts: run half
// a stream, snapshot, restore into a fresh engine, finish the stream —
// and compare against an engine that ran the whole stream without
// stopping. Decisions, end state, outcome counters and the audit tail
// (with continuous sequence numbers) must all match.
func TestSnapshotResumeMatchesUninterrupted(t *testing.T) {
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			for seed := uint64(1); seed <= cacheDiffSeeds; seed++ {
				base, baseTrail := loadDiff(t, p, 1, false)
				stream := makeStream(t, base, seed)
				half := len(stream) / 2

				first, _ := loadDiff(t, p, 1, false)
				for i, u := range stream {
					d := base.Apply(u)
					if i < half {
						sameDecision(t, i, d, first.Apply(u))
					}
				}
				snap, err := first.Snapshot()
				if err != nil {
					t.Fatalf("snapshot: %v", err)
				}

				resumedTrail := obs.NewTrail(0)
				resumed, err := core.Restore(snap, core.Options{Workers: 1, Audit: resumedTrail})
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				baseRecs := baseTrail.Records()
				for i, u := range stream[half:] {
					d := resumed.Apply(u)
					// Replay the base engine's decision for the same
					// update out of its audit record to confirm the kind.
					if want := baseRecs[half+i].Decision; d.Kind.String() != want {
						t.Fatalf("resumed update %d: decision %s, uninterrupted engine decided %s",
							half+i, d.Kind, want)
					}
				}
				sameEndState(t, base, resumed)
				sameStats(t, p.Name, base.Statistics(), resumed.Statistics())
				sameAudit(t, p.Name, baseRecs[half:], resumedTrail.Records())
				for i, r := range resumedTrail.Records() {
					if r.Seq != half+i+1 {
						t.Fatalf("resumed audit record %d has seq %d, want %d (continuity across restore)",
							i, r.Seq, half+i+1)
					}
				}
			}
		})
	}
}

// TestCacheHitsOnStableFingerprints pins the mechanism the burst
// speedup rests on: past the overapproximation threshold a table's
// compiled fragment — and therefore its assignment fingerprint — stops
// changing with further inserts, so the taint map still routes the
// update to its points but every re-evaluation is answered from the
// cache. A tiny threshold makes the effect immediate.
func TestCacheHitsOnStableFingerprints(t *testing.T) {
	p := progs.Fig3()
	s, err := p.LoadWith(core.Options{OverapproxThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		e := &controlplane.TableEntry{
			Priority: i,
			Matches: []controlplane.FieldMatch{{
				Kind:  controlplane.MatchTernary,
				Value: sym.NewBV(48, uint64(0x1000+i)),
				Mask:  sym.AllOnes(48),
			}},
			Action: "set", Params: []sym.BV{sym.NewBV(16, uint64(i))},
		}
		u := &controlplane.Update{Kind: controlplane.InsertEntry, Table: "Ingress.eth_table", Entry: e}
		if d := s.Apply(u); d.Kind == core.Rejected {
			t.Fatalf("insert %d rejected: %v", i, d.Err)
		}
	}
	st := s.Statistics()
	if st.CacheHits == 0 {
		t.Fatalf("overapproximated inserts produced no cache hits: %+v", st)
	}
	if st.CacheMisses == 0 {
		t.Fatalf("first visits must miss: %+v", st)
	}
	// Ten of the twelve inserts land past the threshold with a stable
	// fingerprint; their passes are all-hit, so hits must dominate.
	if st.CacheHits < st.CacheMisses {
		t.Fatalf("threshold-stable workload should be hit-dominated: %d hits vs %d misses",
			st.CacheHits, st.CacheMisses)
	}
}

// TestSnapshotUnderConcurrentBatches proves snapshot prefix
// consistency against a live writer: snapshots are taken from a
// separate goroutine while ApplyBatch churns the engine, and every
// captured snapshot must (a) land exactly on a batch boundary — the
// update count of the restored engine equals the cumulative length of
// some schedule prefix, never a torn mid-batch state — and (b) restore
// into an engine that, after replaying the remaining schedule suffix,
// is observationally identical to the uninterrupted engine, with the
// resumed audit trail continuing the sequence without a gap.
func TestSnapshotUnderConcurrentBatches(t *testing.T) {
	p, err := progs.ByName("nat44")
	if err != nil {
		t.Fatal(err)
	}
	scratch := loadEngine(t, p, 1)
	schedule := tortureSchedule(t, p, scratch, 1, 128)
	scratch.Close()

	// boundaries[k] is the schedule index whose prefix holds k updates.
	boundaries := make(map[int]int, len(schedule)+1)
	boundaries[0] = 0
	total := 0
	for i, b := range schedule {
		total += len(b)
		boundaries[total] = i + 1
	}

	live, liveTrail := loadDiff(t, p, 4, false)
	done := make(chan struct{})
	var snaps [][]byte
	var wg sync.WaitGroup
	wg.Add(1)
	// running is closed once the snapshotter has captured (or failed) for
	// the first time: the whole schedule takes a few milliseconds, and on
	// a loaded box it was over before the goroutine had been scheduled.
	running := make(chan struct{})
	go func() {
		defer wg.Done()
		var once sync.Once
		up := func() { once.Do(func() { close(running) }) }
		defer up()
		for {
			select {
			case <-done:
				return
			default:
			}
			data, err := live.Snapshot()
			if err != nil {
				t.Errorf("snapshot mid-churn: %v", err)
				return
			}
			snaps = append(snaps, data)
			up()
			runtime.Gosched()
		}
	}()
	<-running
	for _, batch := range schedule {
		for i, d := range live.ApplyBatch(batch) {
			if d.Kind == core.Rejected {
				t.Fatalf("update %s (%d) rejected: %v", batch[i], i, d.Err)
			}
		}
	}
	close(done)
	wg.Wait()
	if len(snaps) == 0 {
		t.Fatal("snapshotter captured nothing")
	}

	// Replay each distinct capture point (bounded: replays are the
	// expensive part, the boundary check is free and runs on all).
	liveRecs := liveTrail.Records()
	replayed := make(map[int]bool)
	for _, data := range snaps {
		resumedTrail := obs.NewTrail(0)
		resumed, err := core.Restore(data, core.Options{Workers: 4, Audit: resumedTrail})
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		k := resumed.Statistics().Updates
		idx, ok := boundaries[k]
		if !ok {
			t.Fatalf("snapshot captured %d updates: not a batch boundary (torn mid-batch state)", k)
		}
		if replayed[k] || len(replayed) >= 4 {
			resumed.Close()
			continue
		}
		replayed[k] = true
		for _, batch := range schedule[idx:] {
			resumed.ApplyBatch(batch)
		}
		sameEndState(t, live, resumed)
		sameStats(t, p.Name, live.Statistics(), resumed.Statistics())
		sameAudit(t, p.Name, liveRecs[k:], resumedTrail.Records())
		for i, r := range resumedTrail.Records() {
			if r.Seq != k+i+1 {
				t.Fatalf("resumed audit record %d has seq %d, want %d (continuity across restore)",
					i, r.Seq, k+i+1)
			}
		}
		resumed.Close()
	}
	t.Logf("checked %d snapshots (%d boundary points replayed)", len(snaps), len(replayed))
}

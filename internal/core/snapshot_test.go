// Snapshot round-trip suite: Snapshot followed by Restore must yield an
// engine indistinguishable from the one that was saved — same installed
// configuration, same per-point verdicts, same specialized source, same
// outcome counters — on every catalog program, and the pair must then
// process further updates identically. An engine resumed from a
// mid-stream snapshot must finish the stream exactly like the engine
// that never stopped, audit tail and sequence numbers included, also
// when the snapshot was cut beside a live writer. FuzzSnapshot feeds the
// loader corrupted, truncated and mutated bytes: Restore must reject
// them with an error, never panic, because snapshots cross process and
// machine boundaries.
package core_test

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/flayerr"
	"repro/internal/obs"
	"repro/internal/p4/ast"
	"repro/internal/progs"
)

const resumeSeeds = 2

// sameAudit compares two trails on everything but wall-clock time:
// sequence, target, decision, affected counts, per-point verdict flips,
// component lists and implementation changes must match exactly.
func sameAudit(t *testing.T, label string, a, b []obs.AuditRecord) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d audit records vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Batch != b[i].Batch ||
			a[i].Target != b[i].Target || a[i].Update != b[i].Update ||
			a[i].Decision != b[i].Decision || a[i].Affected != b[i].Affected ||
			!slices.Equal(a[i].Changes, b[i].Changes) ||
			!slices.Equal(a[i].Components, b[i].Components) ||
			a[i].ImplChange != b[i].ImplChange || a[i].Err != b[i].Err {
			t.Fatalf("%s: audit record %d diverged:\n  %+v\nvs\n  %+v", label, i, a[i], b[i])
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

// TestSnapshotRoundTrip saves each catalog engine mid-stream and
// verifies the restored engine equals the original field for field,
// then replays the rest of the stream through both.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			s, err := p.LoadWith(core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			stream := makeStream(t, s, 11)
			half := len(stream) / 2
			for _, u := range stream[:half] {
				s.Apply(u)
			}

			snap, err := s.Snapshot()
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			r, err := core.Restore(snap, core.Options{})
			if err != nil {
				t.Fatalf("restore: %v", err)
			}

			// State equality at the restore point.
			sameEndState(t, s, r)
			if !reflect.DeepEqual(s.Cfg.State(), r.Cfg.State()) {
				t.Fatal("installed configuration diverged across the round trip")
			}
			ss, rs := s.Statistics(), r.Statistics()
			if ss.Updates != rs.Updates || ss.Forwarded != rs.Forwarded ||
				ss.Recompilations != rs.Recompilations || ss.Rejected != rs.Rejected {
				t.Fatalf("outcome counters diverged: %+v vs %+v", ss, rs)
			}
			if ss.Points != rs.Points || ss.Tables != rs.Tables {
				t.Fatalf("analysis shape diverged: %+v vs %+v", ss, rs)
			}

			// A second snapshot of the restored engine must describe the
			// same engine state (timings differ, so compare via a second
			// restore, not byte equality).
			snap2, err := r.Snapshot()
			if err != nil {
				t.Fatalf("re-snapshot: %v", err)
			}
			r2, err := core.Restore(snap2, core.Options{})
			if err != nil {
				t.Fatalf("re-restore: %v", err)
			}
			sameEndState(t, r, r2)

			// Replaying the remainder must keep the pair in lockstep.
			for i, u := range stream[half:] {
				sameDecision(t, half+i, s.Apply(u), r.Apply(u))
			}
			sameEndState(t, s, r)
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
			for seed := uint64(1); seed <= resumeSeeds; seed++ {
				base, baseTrail := loadAudited(t, p)
				stream := makeStream(t, base, seed)
				half := len(stream) / 2

				first, _ := loadAudited(t, p)
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
				resumed, err := core.Restore(snap, core.Options{Audit: resumedTrail})
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
	scratch := loadEngine(t, p)
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

	live, liveTrail := loadAudited(t, p)
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
		resumed, err := core.Restore(data, core.Options{Audit: resumedTrail})
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

// TestSnapshotRejectsTampering pins the integrity check: flipping any
// single byte of a valid snapshot must fail restore (the payload is
// checksummed), as must truncation at every section boundary class.
func TestSnapshotRejectsTampering(t *testing.T) {
	snap := fig3Snapshot(t)
	if _, err := core.Restore(nil, core.Options{}); err == nil {
		t.Fatal("restore of nil input succeeded")
	}
	for _, n := range []int{0, 1, 4, 11, 12, len(snap) / 2, len(snap) - 9, len(snap) - 1} {
		if n >= len(snap) {
			continue
		}
		if _, err := core.Restore(snap[:n], core.Options{}); err == nil {
			t.Fatalf("restore of %d-byte truncation succeeded", n)
		}
	}
	// Flip one byte in each region: magic, early payload, late payload,
	// checksum.
	for _, off := range []int{0, 13, len(snap) / 2, len(snap) - 4} {
		mut := bytes.Clone(snap)
		mut[off] ^= 0x40
		if _, err := core.Restore(mut, core.Options{}); err == nil {
			t.Fatalf("restore of snapshot with byte %d flipped succeeded", off)
		}
	}
}

// versionByte is where the format version sits in the magic.
const versionByte = len("goflay-snap")

// TestSnapshotRejectsOlderVersions: bytes written by an earlier format
// version are outside input like any other — version 3 carried a
// query-cache section this engine has no reader for. The version byte
// alone must stop them (the checksum does not cover the magic, so
// everything else about these bytes is valid), with the typed error and
// the message an operator greps for, never a panic.
func TestSnapshotRejectsOlderVersions(t *testing.T) {
	snap := fig3Snapshot(t)
	if snap[versionByte] != 4 {
		t.Fatalf("snapshot format version is %d; this test knows 4", snap[versionByte])
	}
	for v := byte(1); v < 4; v++ {
		old := bytes.Clone(snap)
		old[versionByte] = v
		_, err := core.Restore(old, core.Options{})
		if !errors.Is(err, flayerr.ErrSnapshotCorrupt) {
			t.Fatalf("v%d snapshot: restore returned %v, want ErrSnapshotCorrupt", v, err)
		}
		if !strings.Contains(err.Error(), "wrong version") {
			t.Fatalf("v%d snapshot: error %q does not say the version is wrong", v, err)
		}
	}
}

func fig3Snapshot(t *testing.T) []byte {
	t.Helper()
	p := progs.Fig3()
	s, err := p.LoadWith(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range progs.Fig3Updates() {
		s.Apply(u)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// FuzzSnapshot throws arbitrary bytes at the loader. The contract under
// test: Restore returns an error for anything that is not a valid
// snapshot and never panics; when a mutation happens to survive the
// checksum (the fuzzer can recompute it), the restored engine must
// still be fully usable.
func FuzzSnapshot(f *testing.F) {
	p := progs.Fig3()
	s, err := p.LoadWith(core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, u := range progs.Fig3Updates() {
		s.Apply(u)
	}
	valid, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	v3 := bytes.Clone(valid)
	v3[versionByte] = 3
	f.Add(v3)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-8])
	mut := bytes.Clone(valid)
	mut[len(mut)/2] ^= 0xFF
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := core.Restore(data, core.Options{})
		if err != nil {
			return // rejected, as it should be for junk
		}
		// The loader accepted it: the engine must be coherent enough to
		// answer every read-only query and keep processing updates.
		st := r.Statistics()
		if st.Points <= 0 {
			t.Fatalf("restored engine reports %d points", st.Points)
		}
		_ = ast.Print(r.SpecializedProgram())
		for _, u := range progs.Fig3Updates() {
			r.Apply(u)
		}
	})
}

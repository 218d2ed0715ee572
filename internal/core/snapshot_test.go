// Snapshot round-trip suite: Snapshot followed by Restore must yield an
// engine indistinguishable from the one that was saved — same installed
// configuration, same per-point verdicts, same specialized source, same
// outcome counters — on every catalog program, and the pair must then
// process further updates identically. An engine resumed from a
// mid-stream snapshot must finish the stream exactly like the engine
// that never stopped, audit tail and sequence numbers included, also
// when the snapshot was cut beside a live writer. A snapshot holds no
// derived state, so no byte of it can make a restored engine disagree
// with its own configuration. FuzzSnapshot feeds the loader corrupted,
// truncated and mutated bytes: Restore must reject them with an error,
// never panic, because snapshots cross process and machine boundaries.
package core_test

import (
	"bytes"
	"errors"
	"math"
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

			// The restored engine is a function of the bytes and nothing
			// else: its own snapshot is the one it was restored from.
			snap2, err := r.Snapshot()
			if err != nil {
				t.Fatalf("re-snapshot: %v", err)
			}
			if !bytes.Equal(snap, snap2) {
				t.Fatalf("Restore(snap).Snapshot() differs from snap (%d vs %d bytes)", len(snap2), len(snap))
			}
			checkIdeal(t, "restored", r)
			if n := r.ReevaluateAll(); n != 0 {
				t.Fatalf("a full pass over the restored engine moved %d verdicts", n)
			}

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
// checksummed), as must truncation at every section boundary class —
// and so must the fields a checksum cannot vouch for, sealed here under
// a correct one: a negative counter (Updates seeds the audit sequence),
// counters off the documented partition, a flag bit nobody defined.
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

	type edit = func(flags *uint64, counters []int64)
	type tamper struct {
		name string
		edit edit
	}
	cases := []tamper{{"flags/unknown-bit", func(flags *uint64, _ []int64) { *flags |= 2 }}}
	for i, name := range core.SnapshotCounterNames {
		cases = append(cases, tamper{name + "/negative", func(_ *uint64, c []int64) { c[i] = -1 }})
	}
	// The partition Updates == Forwarded + Recompilations + Rejected,
	// broken from each side, and by a sum that wraps.
	for i, name := range core.SnapshotCounterNames[:4] {
		cases = append(cases, tamper{name + "/off-partition", func(_ *uint64, c []int64) { c[i]++ }})
	}
	cases = append(cases, tamper{"forwarded/overflows-partition", func(_ *uint64, c []int64) {
		c[1], c[2] = math.MaxInt64, math.MaxInt64
	}})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut, err := core.EditSnapshot(snap, tc.edit)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := core.Restore(mut, core.Options{}); !errors.Is(err, flayerr.ErrSnapshotCorrupt) {
				t.Fatalf("restore returned %v, want ErrSnapshotCorrupt", err)
			}
		})
	}
	// The harness itself: an edit that changes nothing restores.
	same, err := core.EditSnapshot(snap, func(*uint64, []int64) {})
	if err != nil || !bytes.Equal(same, snap) {
		t.Fatalf("decode + encode + seal of a valid snapshot: %v, %d bytes vs %d", err, len(same), len(snap))
	}
}

// TestSnapshotBytesCannotMoveVerdicts: a snapshot carries what verdicts
// are computed from, never a verdict. Every byte of the Fig. 3
// snapshot's payload is mutated — each bit flipped, then all eight —
// under a correct checksum; whatever
// still restores — a different entry, threshold, counter or variable
// order — is an engine whose installed state is the one a full pass
// over its own configuration produces.
func TestSnapshotBytesCannotMoveVerdicts(t *testing.T) {
	snap := fig3Snapshot(t)
	payload := snapshotPayload(snap)
	restored := 0
	for off := range payload {
		for _, flip := range []byte{1, 2, 4, 8, 16, 32, 64, 128, 0xff} {
			mut := bytes.Clone(payload)
			mut[off] ^= flip
			r, err := core.Restore(core.SealSnapshot(mut), core.Options{RepairInterval: -1})
			if err != nil {
				continue
			}
			restored++
			checkIdeal(t, "mutated snapshot", r)
			if n := r.ReevaluateAll(); n != 0 {
				t.Fatalf("payload byte %d ^ %#x: restored, and a full pass moved %d verdicts", off, flip, n)
			}
			r.Close()
		}
	}
	if restored == 0 {
		t.Fatal("no mutation restored: the test checks nothing")
	}
	t.Logf("%d of %d mutations restored", restored, 9*len(payload))
}

// versionByte is where the format version sits in the magic.
const versionByte = len("goflay-snap")

// TestSnapshotRejectsOlderVersions: bytes written by an earlier format
// version are outside input like any other — versions up to 4 carried
// verdict and witness sections this engine has no reader for. The version byte
// alone must stop them (the checksum does not cover the magic, so
// everything else about these bytes is valid), with the typed error and
// the message an operator greps for, never a panic.
func TestSnapshotRejectsOlderVersions(t *testing.T) {
	snap := fig3Snapshot(t)
	if snap[versionByte] != 5 {
		t.Fatalf("snapshot format version is %d; this test knows 5", snap[versionByte])
	}
	for v := byte(1); v < 5; v++ {
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

// fig3Snapshot is the Fig. 3 engine after the figure's updates.
func fig3Snapshot(t testing.TB) []byte {
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

// snapshotPayload is what sits between the magic and the checksum.
func snapshotPayload(snap []byte) []byte {
	return snap[versionByte+1 : len(snap)-8]
}

// FuzzSnapshot fuzzes the loader behind the frame. A payload goes in
// sealed — magic before, a correct checksum after — so mutations reach
// the section readers, the field checks, the configuration validation
// and the open pass instead of dying at the checksum; a few raw seeds
// keep the frame checks themselves under test. The contract: Restore
// returns an error for anything that is not a valid snapshot and never
// panics, and whatever it accepts is a consistent engine — installed ==
// ideal, a full pass moves nothing, the outcome counters partition —
// that keeps processing updates.
func FuzzSnapshot(f *testing.F) {
	valid := fig3Snapshot(f)
	payload := snapshotPayload(valid)
	f.Add(payload, true)
	f.Add(payload[:len(payload)/2], true)
	f.Add([]byte{}, false)
	f.Add(valid[:len(valid)/2], false)
	v4 := bytes.Clone(valid)
	v4[versionByte] = 4
	f.Add(v4, false)
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-1] ^= 0xFF
	f.Add(flipped, false)

	f.Fuzz(func(t *testing.T, data []byte, seal bool) {
		if seal {
			data = core.SealSnapshot(data)
		}
		r, err := core.Restore(data, core.Options{RepairInterval: -1})
		if err != nil {
			return // rejected, as it should be for junk
		}
		defer r.Close()
		check := func(when string) {
			checkIdeal(t, when, r)
			st := r.Statistics()
			if st.Points <= 0 {
				t.Fatalf("%s: engine reports %d points", when, st.Points)
			}
			if st.Updates != st.Forwarded+st.Recompilations+st.Rejected {
				t.Fatalf("%s: outcome counters do not partition: %+v", when, st)
			}
		}
		check("restored")
		if n := r.ReevaluateAll(); n != 0 {
			t.Fatalf("a full pass over the restored engine moved %d verdicts", n)
		}
		_ = ast.Print(r.SpecializedProgram())
		// The mutation may have changed the program or filled its tables:
		// a Fig. 3 update may be rejected, never mishandled.
		for _, u := range progs.Fig3Updates() {
			r.Apply(u)
		}
		check("after the Fig. 3 updates")
	})
}

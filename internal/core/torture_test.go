// Concurrency torture suite for the epoch/shard engine (epoch.go,
// shard.go): concurrent wait-free readers + batch writers + snapshots
// + arena sweeps + stats monitors, run under -race, proving the two
// properties the lock-free read path stands on:
//
//  1. Every observed epoch corresponds to some sequential state: a
//     sequential oracle replays the same deterministic schedule and
//     records the engine state after every mutating call; every epoch
//     a concurrent reader loads must match the oracle's state at that
//     epoch's update count — verdict-for-verdict, entry-for-entry,
//     generation included. A reader can never see a state "between"
//     two updates of a batch, a torn verdict slice, or counters from a
//     different cut than the verdicts.
//
//  2. Audit sequences stay gap-free: after the run the trail holds
//     exactly one record per update, Seq 1..N consecutive, and at any
//     moment a reader observing an epoch with Updates=k finds at least
//     k records already in the trail (records are appended before the
//     epoch publishes).
//
// The suite also carries the GOMAXPROCS 1/4/8/16 re-runs of the
// equivalence matrix and the property-based linearizability test of
// Specializer.Entries against the audit trail (every entries count
// observed mid-churn must equal replaying the audit prefix up to its
// epoch's update count).
package core_test

import (
	"hash/fnv"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/dpexec"
	"repro/internal/fuzz"
	"repro/internal/obs"
	"repro/internal/progs"
)

// tortureProgram is the default torture workload: nat44's diurnal
// churn interns fresh constants fast enough to cross the arena-sweep
// floor in long mode, so sweeps run concurrently with the readers.
const tortureProgram = "nat44"

// withGOMAXPROCS runs fn at the given GOMAXPROCS, restoring the old
// value afterwards. The sweep is meaningful even on a single-core
// container: GOMAXPROCS>1 lets the runtime preempt and interleave
// goroutines on more Ps, which is what the race detector needs to see.
func withGOMAXPROCS(t *testing.T, n int, fn func(t *testing.T)) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn(t)
}

// tortureSchedule is the deterministic mutating-call schedule both the
// oracle and the live engine replay: the representative configuration
// as singleton batches, then churn cycles (with drains) chunked into
// controller-shaped batches.
func tortureSchedule(t *testing.T, p *progs.Program, s *core.Specializer, cycles, cycleLen int) [][]*controlplane.Update {
	t.Helper()
	var schedule [][]*controlplane.Update
	if p.Representative != nil {
		for _, u := range p.Representative() {
			schedule = append(schedule, []*controlplane.Update{u})
		}
	}
	for cyc := 0; cyc < cycles; cyc++ {
		cs, err := fuzz.Churn(s.An, fuzz.ChurnSpec{
			Kind: fuzz.Diurnal, Table: p.BurstTable,
			Updates: cycleLen, Seed: 7000 + uint64(cyc),
		})
		if err != nil {
			t.Fatal(err)
		}
		schedule = append(schedule, cs.Batches()...)
		schedule = append(schedule, cs.Drain())
	}
	return schedule
}

// oracleEntry is the sequential engine state after one mutating call.
type oracleEntry struct {
	vhash      uint64
	entries    map[string]int
	generation uint64
}

// viewHash folds an epoch view's verdicts into one comparable hash.
func viewHash(v core.EpochView) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	for id := 0; id < v.NumVerdicts(); id++ {
		vd := v.Verdict(id)
		put(uint64(vd.Kind))
		put(uint64(vd.Val.W))
		put(vd.Val.Hi)
		put(vd.Val.Lo)
	}
	return h.Sum64()
}

// captureOracle records one engine state keyed by its update count.
func captureOracle(oracle map[int]oracleEntry, s *core.Specializer, tables []string) {
	v := s.Epoch()
	e := oracleEntry{vhash: viewHash(v), generation: v.Generation,
		entries: make(map[string]int, len(tables))}
	for _, name := range tables {
		e.entries[name] = v.Entries(name)
	}
	oracle[v.Stats.Updates] = e
}

// runOracle replays the schedule sequentially and records
// the state after every mutating call.
func runOracle(t *testing.T, p *progs.Program, schedule [][]*controlplane.Update) map[int]oracleEntry {
	t.Helper()
	s := loadEngine(t, p)
	defer s.Close()
	oracle := make(map[int]oracleEntry, len(schedule)+1)
	captureOracle(oracle, s, s.An.TableOrder)
	for _, batch := range schedule {
		for i, d := range s.ApplyBatch(batch) {
			if d.Kind == core.Rejected {
				t.Fatalf("oracle: update %s (%d) rejected: %v", batch[i], i, d.Err)
			}
		}
		captureOracle(oracle, s, s.An.TableOrder)
		checkIdeal(t, "oracle", s)
	}
	return oracle
}

// checkView asserts one observed epoch view equals the oracle's
// sequential state at the view's update count. Called from reader
// goroutines: uses t.Errorf, never Fatalf.
func checkView(t *testing.T, label string, v core.EpochView, oracle map[int]oracleEntry, tables []string) bool {
	st := v.Stats
	if st.Updates != st.Forwarded+st.Recompilations+st.Rejected {
		t.Errorf("%s: epoch %d: counter partition broken: %+v", label, v.Seq, st)
		return false
	}
	o, ok := oracle[st.Updates]
	if !ok {
		t.Errorf("%s: epoch %d: updates=%d is no sequential state (mid-batch publication?)",
			label, v.Seq, st.Updates)
		return false
	}
	if h := viewHash(v); h != o.vhash {
		t.Errorf("%s: epoch %d (updates=%d): verdicts diverge from sequential state",
			label, v.Seq, st.Updates)
		return false
	}
	if v.Generation != o.generation {
		t.Errorf("%s: epoch %d (updates=%d): generation %d, oracle %d",
			label, v.Seq, st.Updates, v.Generation, o.generation)
		return false
	}
	for _, name := range tables {
		if got, want := v.Entries(name), o.entries[name]; got != want {
			t.Errorf("%s: epoch %d (updates=%d): table %s has %d entries, oracle %d",
				label, v.Seq, st.Updates, name, got, want)
			return false
		}
	}
	return true
}

// tortureRun is the shared body: one live engine under a batch writer,
// concurrent epoch readers, a stats monitor, and a snapshotter, all
// checked against the sequential oracle; then the post-run audit
// continuity and end-state checks.
func tortureRun(t *testing.T, cycles, cycleLen, readers int, snapshots bool) core.Stats {
	p, err := progs.ByName(tortureProgram)
	if err != nil {
		t.Fatal(err)
	}
	scratch := loadEngine(t, p)
	schedule := tortureSchedule(t, p, scratch, cycles, cycleLen)
	scratch.Close()
	oracle := runOracle(t, p, schedule)

	total := 0
	for _, b := range schedule {
		total += len(b)
	}

	trail := obs.NewTrail(0)
	s, err := p.LoadWith(core.Options{Audit: trail})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tables := s.An.TableOrder

	done := make(chan struct{})
	var wg sync.WaitGroup

	// Epoch readers: wait-free loads, each checked against the oracle,
	// with per-reader monotonicity of epoch seq and update count, and
	// the audit-before-publish ordering (observing updates=k implies
	// the trail already holds ≥ k records).
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			label := "reader"
			var lastSeq, lastUpd uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				v := s.Epoch()
				if v.Seq < lastSeq {
					t.Errorf("%s %d: epoch seq went backwards: %d after %d", label, r, v.Seq, lastSeq)
					return
				}
				if uint64(v.Stats.Updates) < lastUpd {
					t.Errorf("%s %d: update count went backwards: %d after %d",
						label, r, v.Stats.Updates, lastUpd)
					return
				}
				lastSeq, lastUpd = v.Seq, uint64(v.Stats.Updates)
				if trail.Total() < int64(v.Stats.Updates) {
					t.Errorf("%s %d: epoch %d published before its audit records (%d < %d)",
						label, r, v.Seq, trail.Total(), v.Stats.Updates)
					return
				}
				if !checkView(t, label, v, oracle, tables) {
					return
				}
				// The scalar wait-free readers must answer without
				// blocking too (values come from whatever epoch each
				// call loads, so only shape is asserted here).
				_ = s.Verdict(0)
				_ = s.Entries(p.BurstTable)
				_ = s.Generation()
				_ = s.DegradedTables()
				runtime.Gosched()
			}
		}(r)
	}

	// Stats monitor: the Statistics() overlay (query-dispatch atomics,
	// unsound count) must keep the counter partition intact.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last int
		for {
			select {
			case <-done:
				return
			default:
			}
			st := s.Statistics()
			if st.Updates != st.Forwarded+st.Recompilations+st.Rejected {
				t.Errorf("stats monitor: partition broken: %+v", st)
				return
			}
			if st.Updates < last {
				t.Errorf("stats monitor: updates went backwards: %d after %d", st.Updates, last)
				return
			}
			last = st.Updates
			if st.UnsoundDegraded != 0 {
				t.Errorf("stats monitor: %d unsound degraded verdicts", st.UnsoundDegraded)
				return
			}
			runtime.Gosched()
		}
	}()

	// Snapshotter: Snapshot taken mid-flight (RLock serializes it
	// against the writer, so it lands on a batch boundary) must restore
	// to a state the oracle recognizes — the prefix-consistency gate.
	if snapshots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				data, err := s.Snapshot()
				if err != nil {
					t.Errorf("snapshotter: %v", err)
					return
				}
				restored, err := core.Restore(data, core.Options{})
				if err != nil {
					t.Errorf("snapshotter: restore: %v", err)
					return
				}
				ok := checkView(t, "snapshotter", restored.Epoch(), oracle, tables)
				restored.Close()
				if !ok {
					return
				}
			}
		}()
	}

	// The batch writer drives the schedule on the main goroutine.
	for _, batch := range schedule {
		for i, d := range s.ApplyBatch(batch) {
			if d.Kind == core.Rejected {
				t.Fatalf("live: update %s (%d) rejected: %v", batch[i], i, d.Err)
			}
		}
	}
	close(done)
	wg.Wait()

	// Post-run: the final epoch equals the oracle's final state, and
	// the audit trail is a gap-free transcript.
	final := s.Epoch()
	if final.Stats.Updates != total {
		t.Fatalf("final update count %d, schedule had %d", final.Stats.Updates, total)
	}
	checkView(t, "final", final, oracle, tables)
	checkIdeal(t, "final", s)
	recs := trail.Records()
	if len(recs) != total {
		t.Fatalf("audit trail has %d records for %d updates", len(recs), total)
	}
	for i, rec := range recs {
		if rec.Seq != i+1 {
			t.Fatalf("audit record %d has seq %d: sequence has a gap", i, rec.Seq)
		}
	}
	st := s.Statistics()
	if st.ArenaSweeps > 0 {
		t.Logf("arena swept %d nodes across %d sweeps under concurrency",
			st.ArenaSwept, st.ArenaSweeps)
	}
	return st
}

// TestTortureConcurrency is the smoke-sized torture run; it is part of
// the race tier (make race promotes it) and cheap enough for tier-1.
func TestTortureConcurrency(t *testing.T) {
	tortureRun(t, 1, 192, 3, true)
}

// TestTortureGOMAXPROCS re-runs the torture body across the
// GOMAXPROCS grid; the long tail of the grid (16) joins in long mode.
func TestTortureGOMAXPROCS(t *testing.T) {
	grid := []int{1, 4, 8}
	if !testing.Short() {
		grid = append(grid, 16)
	}
	for _, g := range grid {
		t.Run(gLabel(g), func(t *testing.T) {
			withGOMAXPROCS(t, g, func(t *testing.T) {
				tortureRun(t, 1, 96, 2, false)
			})
		})
	}
}

// TestTortureLong is the -short-guarded long mode: enough churn to
// cross the arena-sweep floor repeatedly, so sweeps run concurrently
// with the wait-free readers and the snapshotter.
func TestTortureLong(t *testing.T) {
	if testing.Short() {
		t.Skip("long torture mode skipped with -short")
	}
	withGOMAXPROCS(t, 8, func(t *testing.T) {
		// The long run is sized to force arena sweeps under concurrency
		// (the sweep-safety claim exercised, not assumed): 4 diurnal
		// cycles of 512 updates cross the sweep floor per the
		// calibration in arena_test.go.
		st := tortureRun(t, 4, 512, 4, true)
		if st.ArenaSweeps == 0 {
			t.Fatalf("long schedule did not trigger an arena sweep (nodes %d): resize the workload", st.ArenaNodes)
		}
	})
}

func gLabel(g int) string { return "gomaxprocs-" + strconv.Itoa(g) }

// ---------------------------------------------------------------------------
// Satellite: property-based linearizability of Entries vs the audit
// trail. Every (entries, updates) pair observed mid-churn must equal
// replaying the audit prefix up to that epoch: fold insert/delete
// records with Seq ≤ updates over the baseline entry count.

type entriesObservation struct {
	updates int
	entries int
}

// TestEntriesLinearizableAgainstAudit churns one table while readers
// record epoch-consistent (entries, updates) observations, then checks
// every observation against an audit-prefix replay.
func TestEntriesLinearizableAgainstAudit(t *testing.T) {
	p, err := progs.ByName(tortureProgram)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		trail := obs.NewTrail(0)
		s, err := p.LoadWith(core.Options{Audit: trail})
		if err != nil {
			t.Fatal(err)
		}
		// Representative config lands before the trail baseline is
		// taken, so the replay folds over a known starting count.
		if err := p.ApplyRepresentative(s); err != nil {
			t.Fatal(err)
		}
		baseUpdates := s.Epoch().Stats.Updates
		baseEntries := s.Entries(p.BurstTable)

		cs, err := fuzz.Churn(s.An, fuzz.ChurnSpec{
			Kind: fuzz.FlapStorm, Table: p.BurstTable, Updates: 256, Seed: 40 + seed,
		})
		if err != nil {
			t.Fatal(err)
		}

		done := make(chan struct{})
		var wg, reading sync.WaitGroup
		observations := make([][]entriesObservation, 2)
		for r := range observations {
			wg.Add(1)
			reading.Add(1)
			go func(r int) {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					v := s.Epoch()
					observations[r] = append(observations[r], entriesObservation{
						updates: v.Stats.Updates,
						entries: v.Entries(p.BurstTable),
					})
					if len(observations[r]) == 1 {
						reading.Done()
					}
					runtime.Gosched()
				}
			}(r)
		}
		// The churn is over in a few milliseconds: start it once both
		// readers are observing, not whenever they get scheduled.
		reading.Wait()
		for _, batch := range cs.Batches() {
			for i, d := range s.ApplyBatch(batch) {
				if d.Kind == core.Rejected {
					t.Fatalf("seed %d: update %s (%d) rejected: %v", seed, batch[i], i, d.Err)
				}
			}
		}
		close(done)
		wg.Wait()
		s.Close()

		// Replay the audit prefix: entriesAt[k] is the table's entry
		// count after the first k churn updates, folded purely from the
		// trail's insert/delete records.
		recs := trail.Records()
		entriesAt := make(map[int]int, len(recs)+1)
		entriesAt[baseUpdates] = baseEntries
		count := baseEntries
		for _, rec := range recs {
			if rec.Seq <= baseUpdates {
				continue // representative-config prefix
			}
			if rec.Target == p.BurstTable && rec.Decision != "rejected" {
				switch kind, _, _ := strings.Cut(rec.Update, " "); kind {
				case "insert":
					count++
				case "delete":
					count--
				}
			}
			entriesAt[rec.Seq] = count
		}
		checked := 0
		for r, obsv := range observations {
			for _, o := range obsv {
				want, ok := entriesAt[o.updates]
				if !ok {
					t.Fatalf("seed %d reader %d: observed updates=%d matches no audit prefix",
						seed, r, o.updates)
				}
				if o.entries != want {
					t.Fatalf("seed %d reader %d: at updates=%d observed %d entries, audit replay says %d",
						seed, r, o.updates, o.entries, want)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("seed %d: readers recorded no observations", seed)
		}
	}
}

// ---------------------------------------------------------------------------
// Satellite: hot-swap torture. With the executor enabled, every epoch
// publication also compiles and hot-swaps an executable image. The
// property: concurrent packet executors racing the batch writer must
// only ever observe an image matching a published epoch — the image
// hash an executor loads must equal the sequential oracle's image hash
// at that epoch's update count (a torn or mid-batch swap would hash to
// a state the oracle never produced), and every packet must execute
// against the observed image without error.

// runImageOracle replays the schedule sequentially with the executor
// enabled and records the published image hash after every mutating
// call, keyed by update count.
func runImageOracle(t *testing.T, p *progs.Program, schedule [][]*controlplane.Update) map[int]uint64 {
	t.Helper()
	s, err := p.LoadWith(core.Options{Exec: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	oracle := make(map[int]uint64, len(schedule)+1)
	record := func() {
		v := s.Epoch()
		img := v.Image()
		if img == nil {
			t.Fatalf("image oracle: epoch %d has no image with Exec enabled", v.Seq)
		}
		oracle[v.Stats.Updates] = img.Hash()
	}
	record()
	for _, batch := range schedule {
		for i, d := range s.ApplyBatch(batch) {
			if d.Kind == core.Rejected {
				t.Fatalf("image oracle: update %s (%d) rejected: %v", batch[i], i, d.Err)
			}
		}
		record()
	}
	return oracle
}

// TestTortureHotSwap races packet executors against the batch writer
// and checks every observed image against the sequential image oracle.
func TestTortureHotSwap(t *testing.T) {
	p, err := progs.ByName(tortureProgram)
	if err != nil {
		t.Fatal(err)
	}
	scratch := loadEngine(t, p)
	schedule := tortureSchedule(t, p, scratch, 1, 128)
	scratch.Close()
	oracle := runImageOracle(t, p, schedule)

	s, err := p.LoadWith(core.Options{Exec: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A plausible-looking frame plus junk: execution outcome is not
	// asserted (the oracle covers semantics), only that every packet
	// runs to completion against a coherent image.
	packets := [][]byte{
		{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 0x00, 0x01, 0x02, 0x03,
			0x04, 0x05, 0x08, 0x00, 0x45, 0x00, 0x00, 0x14, 0x00, 0x00,
			0x00, 0x00, 0x40, 0x11, 0x00, 0x00, 0x0A, 0x00, 0x00, 0x01,
			0x0A, 0x00, 0x00, 0x02, 0x12, 0x34, 0x56, 0x78},
		{0xDE, 0xAD},
		{},
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m := dpexec.NewMachine()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				v := s.Epoch()
				img := v.Image()
				if img == nil {
					t.Errorf("executor %d: epoch %d has no image", r, v.Seq)
					return
				}
				want, ok := oracle[v.Stats.Updates]
				if !ok {
					t.Errorf("executor %d: epoch %d: updates=%d is no sequential state", r, v.Seq, v.Stats.Updates)
					return
				}
				if got := img.Hash(); got != want {
					t.Errorf("executor %d: epoch %d (updates=%d): image hash %x, oracle %x",
						r, v.Seq, v.Stats.Updates, got, want)
					return
				}
				if _, err := m.Run(img, packets[i%len(packets)], uint16(i%512)); err != nil {
					t.Errorf("executor %d: packet execution trapped: %v", r, err)
					return
				}
				// The facade exec path must stay usable mid-churn too.
				if _, err := s.Exec(packets[0], 1); err != nil {
					t.Errorf("executor %d: Exec: %v", r, err)
					return
				}
				runtime.Gosched()
			}
		}(r)
	}

	for _, batch := range schedule {
		for i, d := range s.ApplyBatch(batch) {
			if d.Kind == core.Rejected {
				t.Fatalf("live: update %s (%d) rejected: %v", batch[i], i, d.Err)
			}
		}
	}
	close(done)
	wg.Wait()

	final := s.Epoch()
	img := final.Image()
	if img == nil {
		t.Fatal("final epoch has no image")
	}
	if want := oracle[final.Stats.Updates]; img.Hash() != want {
		t.Fatalf("final image hash %x, oracle %x", img.Hash(), want)
	}
}

// ---------------------------------------------------------------------------
// The GOMAXPROCS 1/4/8/16 equivalence re-run: a compact version of the
// equivalence matrix at each GOMAXPROCS value — the batch engine
// against per-update Apply, end-state equality plus matching rejection
// pattern (the batch theorems).

func TestMatricesAtGOMAXPROCS(t *testing.T) {
	names := []string{"fig3"}
	if !testing.Short() {
		names = append(names, "scion")
	}
	for _, g := range []int{1, 4, 8, 16} {
		t.Run(gLabel(g), func(t *testing.T) {
			withGOMAXPROCS(t, g, func(t *testing.T) {
				for _, name := range names {
					p, err := progs.ByName(name)
					if err != nil {
						t.Fatal(err)
					}
					seq := loadEngine(t, p)
					bat := loadEngine(t, p)
					stream := makeStream(t, seq, uint64(g))
					for start := 0; start < len(stream); start += chunkSize {
						chunk := stream[start:min(start+chunkSize, len(stream))]
						batDs := bat.ApplyBatch(chunk)
						for i, u := range chunk {
							if d := seq.Apply(u); (d.Kind == core.Rejected) != (batDs[i].Kind == core.Rejected) {
								t.Fatalf("%s: update %d: rejection mismatch: %s vs %s", name, start+i, d, batDs[i])
							}
						}
					}
					sameEndState(t, seq, bat)
					seq.Close()
					bat.Close()
				}
			})
		})
	}
}

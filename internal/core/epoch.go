// Epoch-based copy-on-write read state. The engine's mutable fields
// (verdicts, stats, entry counts, the degraded set) stay guarded by the
// write lock, but they are never read directly by the query-path
// readers anymore: every mutating call ends by publishing an immutable
// epoch — a consistent snapshot of everything the read API serves —
// through one atomic pointer swap. Readers (Verdict, Statistics,
// Entries, Generation, DegradedTables, EpochSeq) load the pointer and
// walk the frozen copy: no lock, no retry loop, no blocking on a
// writer mid-batch. Wait-free, in the strict sense that a reader
// finishes in a bounded number of its own steps regardless of writer
// activity.
//
// Publication order (the memory model DESIGN.md §4.12 documents):
//
//  1. the writer mutates engine state under the write lock;
//  2. it appends this update's audit records to the trail;
//  3. it runs the arena-sweep trigger (coord.sweep);
//  4. it builds the epoch — copying the verdict slice only when a
//     verdict actually changed, otherwise re-using the previous
//     epoch's (already frozen) copy — and atomically stores it.
//
// So a reader that observes epoch N is guaranteed (a) the audit trail
// already contains every record with Seq ≤ N's update count, and (b)
// every value in the epoch comes from the single sequential state the
// engine was in when that epoch was cut. Readers never observe a state
// "between" two updates of a batch: batches publish once, at the end.
//
// Sweep safety: epochs hold only value types (Verdict carries a sym.BV
// by value, never an *Expr), so the arena garbage collector — which
// reassigns expression ids under the write lock — cannot invalidate
// anything a lock-free reader is holding.
package core

import (
	"sync/atomic"

	"repro/internal/dpexec"
)

// epoch is one immutable published read-state. Everything in it is
// frozen at publication: readers may share it, hold it across sweeps,
// and compare fields from one load knowing they form a consistent cut.
type epoch struct {
	// seq numbers epochs monotonically from 1 (the open-time epoch).
	seq uint64
	// verdicts is a frozen copy of the verdict map (shared with the
	// previous epoch when no verdict changed — copy-on-write).
	verdicts []Verdict
	// entries maps each table to its live entry count.
	entries map[string]int
	// degraded lists the currently degraded tables, sorted.
	degraded []string
	// stats is the fully resolved counter snapshot (including the
	// degraded-table count and the arena node count at publication;
	// the query-dispatch, diagram and unsound counts are overlaid live
	// from their atomics by Statistics).
	stats Stats
	// generation is Forwarded+Recompilations — the snapshot-dirtiness
	// cursor served by Generation().
	generation uint64
	// img is the executable data-plane image of the specialized program
	// under this epoch's configuration (exec.go); nil when the engine
	// runs without Options.Exec. Hot-swapped here so packet execution is
	// wait-free under control-plane churn, and retired with the epoch.
	img *dpexec.Image
}

// coord is the state that orders mutating calls against each other and
// against readers: the published epoch pointer, the update/audit
// sequence allocator and the arena-sweep trigger. Everything here is
// either atomic or only written under the engine write lock; sweep and
// snapshot therefore always observe a consistent cut (both run with the
// engine lock held — Snapshot under RLock excludes writers, sweep under
// the write lock excludes everyone else).
type coord struct {
	// cur is the published epoch; nil only during construction.
	cur atomic.Pointer[epoch]
	// epochSeq is the last published epoch number (write-lock writes).
	epochSeq uint64
	// seq allocates update/audit sequence numbers. It is written under
	// the write lock (allocation order is the audit order) but read
	// lock-free by monitors.
	seq atomic.Int64
	// arenaNext is the Builder node count at which the next arena sweep
	// runs; 0 until the first mutating call establishes the baseline.
	arenaNext int
}

// nextSeq allocates the next update/audit sequence number. Caller holds
// the write lock; the atomic exists so monitors can sample it lock-free.
func (c *coord) nextSeq() int { return int(c.seq.Add(1)) }

// publish cuts a new epoch from the engine's current state and installs
// it. Caller holds the write lock (or is inside open, before the
// engine escapes). verdictsDirty tracks whether any verdict changed
// since the last publication; when clean, the previous epoch's frozen
// verdict copy is re-used instead of re-copied — the Forward fast path
// publishes in O(tables), not O(points). Being the one place every
// mutating call ends in, it is also where the diagram store is held to
// its bound.
func (s *Specializer) publish() {
	s.ddBoundStore()
	prev := s.co.cur.Load()
	e := &epoch{
		seq:      s.co.epochSeq + 1,
		degraded: sortedNames(s.degraded),
	}
	if prev != nil && !s.verdictsDirty {
		e.verdicts = prev.verdicts
	} else {
		e.verdicts = append([]Verdict(nil), s.verdicts...)
		s.verdictsDirty = false
	}
	e.entries = make(map[string]int, len(s.An.Tables))
	for name := range s.An.Tables {
		e.entries[name] = s.Cfg.NumEntries(name)
	}
	e.img = s.buildImageLocked(prev) // before the counter copy: it counts itself
	st := s.stats
	st.DegradedTables = len(s.degraded)
	st.ArenaNodes = s.An.Builder.LiveNodes()
	e.stats = st
	e.generation = uint64(st.Forwarded) + uint64(st.Recompilations)
	s.co.epochSeq = e.seq
	s.co.cur.Store(e)
	s.met.epoch.Set(int64(e.seq))
}

// loadEpoch returns the current epoch. It never returns nil: open
// publishes before the engine escapes it.
func (s *Specializer) loadEpoch() *epoch { return s.co.cur.Load() }

// EpochSeq returns the sequence number of the currently published
// epoch. Monotone; every mutating call (including rejected updates and
// no-op batches) publishes a fresh epoch.
func (s *Specializer) EpochSeq() uint64 { return s.loadEpoch().seq }

// EpochView is a consistent wait-free view of one published epoch:
// every accessor answers from the same frozen cut, so a monitor can
// correlate verdicts, entry counts and counters without a lock and
// without torn reads across calls. Views stay valid indefinitely
// (epochs are immutable and sweep-safe); holding one simply keeps that
// epoch's memory alive.
type EpochView struct {
	// Seq is the epoch sequence number (monotone across publications).
	Seq uint64
	// Generation is the snapshot-dirtiness cursor at this epoch.
	Generation uint64
	// Stats is the counter snapshot at this epoch (no live atomic
	// overlays — pure sequential state).
	Stats Stats
	e     *epoch
}

// Verdict returns the verdict of a point in this epoch.
func (v EpochView) Verdict(id int) Verdict { return v.e.verdicts[id] }

// NumVerdicts returns the number of program points in this epoch.
func (v EpochView) NumVerdicts() int { return len(v.e.verdicts) }

// Entries returns a table's live entry count in this epoch.
func (v EpochView) Entries(table string) int { return v.e.entries[table] }

// Degraded lists the degraded tables in this epoch, sorted.
func (v EpochView) Degraded() []string { return append([]string(nil), v.e.degraded...) }

// Image returns this epoch's executable data-plane image, or nil when
// the engine runs without Options.Exec. Images are immutable; a view's
// image stays runnable indefinitely.
func (v EpochView) Image() *dpexec.Image { return v.e.img }

// Epoch returns a consistent view of the currently published epoch —
// one atomic load, wait-free against writers.
func (s *Specializer) Epoch() EpochView {
	e := s.loadEpoch()
	return EpochView{Seq: e.seq, Generation: e.generation, Stats: e.stats, e: e}
}

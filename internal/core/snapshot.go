package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/controlplane"
	"repro/internal/dd"
	"repro/internal/flayerr"
	"repro/internal/sym"
)

// Engine snapshots: what an engine is a function of, serialized to
// bytes, so a controller can checkpoint a stream and warm-restart it —
// in another process — without replaying the control-plane history.
//
// A snapshot carries the program source, the engine options that shape
// verdicts (quality, overapproximation threshold, parser skipping),
// whether the data-plane executor runs, the installed configuration (controlplane.State), the degraded-table set,
// the diagram variable order and the cumulative decision counters. It
// holds nothing derived: verdicts, residues and installed
// implementations are functions of (program, configuration), and Restore
// computes them the way NewFromSource does — by the open pass (open,
// specializer.go) — with the snapshot's configuration installed first.
// Bytes a loader cannot check therefore never decide what the device
// runs, and the pass is a few per cent of a restore that re-runs
// parsing, type-checking and the data-plane analysis (DESIGN §4.9 has
// the table).
//
// Wire format: magic, then uvarint/varint-packed sections in fixed
// order, then an FNV-64a checksum of everything between. The loader
// re-validates every field against the freshly built analysis (a
// snapshot is untrusted input) and returns errors — never panics — on
// corruption; FuzzSnapshot holds it to that.

// snapMagic identifies snapshot bytes; the trailing byte is the format
// version. Version 6 is version 5 with the executor flag; version 5 was
// version 4 without the verdict section, the witness section and the
// two open-time timings. Older bytes fail the magic check.
var snapMagic = []byte("goflay-snap\x06")

// The cumulative counters a snapshot carries, in wire order.
const (
	snapUpdates = iota
	snapForwarded
	snapRecompilations
	snapRejected
	snapBatches
	snapBatchedUpdates
	snapCoalesced
	snapUpdateTime
	snapEvalTime
	snapDegradations
	snapPromotions
	snapUnsound
	numSnapCounters
)

var snapCounterNames = [numSnapCounters]string{
	"updates", "forwarded", "recompilations", "rejected", "batches",
	"batched_updates", "coalesced", "update_ns", "eval_ns",
	"degradations", "promotions", "unsound",
}

// Snapshot flag bits: the analysis skipped the parser; the engine runs
// the data-plane executor.
const (
	snapSkipParser = 1 << iota
	snapExec
)

// image is a snapshot decoded: the program, the options that shape
// verdicts, and what the open pass starts from.
type image struct {
	name, source string
	flags        uint64
	quality      Quality
	threshold    int
	boot         boot
}

// boot is what a snapshot adds to an open (open, specializer.go): the
// configuration to install before the first pass, the tables to re-pin
// to the overapproximation, the diagram variable order (Explain's
// narrative is a function of it) and the cumulative counters, so
// sequence numbers — and with them audit records — continue where the
// snapshotting engine stopped.
type boot struct {
	state    controlplane.State
	degraded map[string]string
	order    []dd.Atom
	counters [numSnapCounters]int64
}

// snapWriter appends the primitive wire types.
type snapWriter struct{ buf []byte }

func (w *snapWriter) u(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *snapWriter) i(v int64)  { w.buf = binary.AppendVarint(w.buf, v) }
func (w *snapWriter) n(v int)    { w.u(uint64(v)) }
func (w *snapWriter) str(s string) {
	w.n(len(s))
	w.buf = append(w.buf, s...)
}
func (w *snapWriter) bv(v sym.BV) {
	w.u(uint64(v.W))
	w.u(v.Hi)
	w.u(v.Lo)
}

// snapReader walks snapshot bytes with sticky error state.
type snapReader struct {
	buf []byte
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("core: %w: "+format,
			append([]any{flayerr.ErrSnapshotCorrupt}, args...)...)
	}
}

func (r *snapReader) u() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("truncated or malformed varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *snapReader) i() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail("truncated or malformed varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// n reads a length prefix, refusing anything the remaining buffer
// cannot possibly hold (each element costs at least one byte).
func (r *snapReader) n() int {
	v := r.u()
	if r.err == nil && v > uint64(len(r.buf)) {
		r.fail("length prefix %d exceeds remaining input", v)
		return 0
	}
	return int(v)
}

func (r *snapReader) str() string {
	n := r.n()
	if r.err != nil {
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// bv reads a bitvector and enforces the package invariant that bits
// above the width are zero (arithmetic downstream depends on it).
func (r *snapReader) bv() sym.BV {
	w, hi, lo := r.u(), r.u(), r.u()
	if r.err != nil {
		return sym.BV{}
	}
	if w == 0 {
		if hi != 0 || lo != 0 {
			r.fail("zero-width bitvector with nonzero value")
		}
		return sym.BV{}
	}
	if w > sym.MaxWidth {
		r.fail("bitvector width %d exceeds %d", w, sym.MaxWidth)
		return sym.BV{}
	}
	v := sym.NewBV2(uint16(w), hi, lo)
	if v.Hi != hi || v.Lo != lo {
		r.fail("bitvector %x:%x overflows width %d", hi, lo, w)
		return sym.BV{}
	}
	return v
}

// Generation counts the state-changing updates the engine has applied
// (forwarded + recompiled; rejected updates leave state untouched). A
// session host snapshots on shutdown only when the generation moved
// since its last checkpoint — the snapshot-on-shutdown dirtiness hook.
// Restore preserves the counter, so generations are comparable across
// a warm restart.
func (s *Specializer) Generation() uint64 {
	return s.loadEpoch().generation
}

// Snapshot serializes what the engine is a function of. It takes the
// read lock, so it can run concurrently with other readers (and
// coherently between updates).
func (s *Specializer) Snapshot() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	img := image{
		name:      s.Prog.Name,
		source:    s.source,
		quality:   s.quality,
		threshold: s.Cfg.OverapproxThreshold,
		boot: boot{
			state:    s.Cfg.State(),
			degraded: s.degraded,
			order:    s.variableOrder(),
			counters: [numSnapCounters]int64{
				snapUpdates:        int64(st.Updates),
				snapForwarded:      int64(st.Forwarded),
				snapRecompilations: int64(st.Recompilations),
				snapRejected:       int64(st.Rejected),
				snapBatches:        int64(st.Batches),
				snapBatchedUpdates: int64(st.BatchedUpdates),
				snapCoalesced:      int64(st.Coalesced),
				snapUpdateTime:     int64(st.UpdateTime),
				snapEvalTime:       int64(st.EvalTime),
				snapDegradations:   int64(st.Degradations),
				snapPromotions:     int64(st.Promotions),
				snapUnsound:        s.unsound.Load(),
			},
		},
	}
	if s.An.SkippedParser {
		img.flags |= snapSkipParser
	}
	if s.exec {
		img.flags |= snapExec
	}
	return sealSnapshot(img.encode()), nil
}

// sealSnapshot frames a payload: the magic before it, its checksum
// after.
func sealSnapshot(payload []byte) []byte {
	sum := fnv.New64a()
	sum.Write(payload)
	out := make([]byte, 0, len(snapMagic)+len(payload)+sum.Size())
	return sum.Sum(append(append(out, snapMagic...), payload...))
}

// encode writes the payload sections in wire order. Map-held sections
// are written sorted and the State is already deterministically
// ordered, so identical engines serialize identically.
func (img *image) encode() []byte {
	w := &snapWriter{}
	w.str(img.name)
	w.str(img.source)
	w.u(img.flags)
	w.u(uint64(img.quality))
	w.i(int64(img.threshold))
	degraded := sortedNames(img.boot.degraded)
	w.n(len(degraded))
	for _, name := range degraded {
		w.str(name)
		w.str(img.boot.degraded[name])
	}
	// Diagrams are rebuilt from the residues; only the order — which
	// fixes their canonical form — travels. Empty when the core is
	// disabled.
	w.n(len(img.boot.order))
	for _, a := range img.boot.order {
		w.str(a.Name)
		w.u(uint64(a.Width))
	}
	writeConfigState(w, img.boot.state)
	for _, v := range img.boot.counters {
		w.i(v)
	}
	return w.buf
}

// decodeSnapshot checks the frame and every field that can be checked
// without the program: the checksum catches accidents, the field checks
// what a writer other than Snapshot could have produced.
func decodeSnapshot(data []byte) (*image, error) {
	if len(data) < len(snapMagic)+8 {
		return nil, fmt.Errorf("core: %w: input too short", flayerr.ErrSnapshotCorrupt)
	}
	if !bytes.Equal(data[:len(snapMagic)], snapMagic) {
		return nil, fmt.Errorf("core: %w: bad magic (not a goflay snapshot, or wrong version)",
			flayerr.ErrSnapshotCorrupt)
	}
	payload := data[len(snapMagic) : len(data)-8]
	sum := fnv.New64a()
	sum.Write(payload)
	if got := binary.BigEndian.Uint64(data[len(data)-8:]); got != sum.Sum64() {
		return nil, fmt.Errorf("core: %w: checksum mismatch", flayerr.ErrSnapshotCorrupt)
	}

	r := &snapReader{buf: payload}
	img := &image{name: r.str(), source: r.str(), flags: r.u()}
	quality := r.u()
	img.quality = Quality(quality)
	img.threshold = int(r.i())
	if n := r.n(); n > 0 {
		img.boot.degraded = make(map[string]string, n)
		for i := 0; i < n && r.err == nil; i++ {
			img.boot.degraded[r.str()] = r.str()
		}
	}
	for i, n := 0, r.n(); i < n && r.err == nil; i++ {
		name, width := r.str(), r.u()
		if r.err == nil && (width < 1 || width > sym.MaxWidth) {
			r.fail("atom %q has width %d", name, width)
		}
		img.boot.order = append(img.boot.order, dd.Atom{Name: name, Width: uint16(width)})
	}
	img.boot.state = readConfigState(r)
	c := &img.boot.counters
	for i := range c {
		c[i] = r.i()
		if r.err == nil && c[i] < 0 {
			r.fail("counter %s is %d", snapCounterNames[i], c[i])
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	switch {
	case len(r.buf) != 0:
		r.fail("%d trailing bytes", len(r.buf))
	case img.flags&^(snapSkipParser|snapExec) != 0:
		r.fail("unknown flags %#x", img.flags)
	case quality > uint64(QualityNone):
		r.fail("invalid quality %d", quality)
	// The documented partition, written so that no sum can overflow.
	case c[snapForwarded] > c[snapUpdates] ||
		c[snapRecompilations] > c[snapUpdates]-c[snapForwarded] ||
		c[snapRejected] != c[snapUpdates]-c[snapForwarded]-c[snapRecompilations]:
		r.fail("%d updates are not %d forwarded + %d recompilations + %d rejected",
			c[snapUpdates], c[snapForwarded], c[snapRecompilations], c[snapRejected])
	}
	if r.err != nil {
		return nil, r.err
	}
	return img, nil
}

// writeConfigState serializes a controlplane.State. The State is
// already deterministically ordered, so identical configurations
// serialize identically.
func writeConfigState(w *snapWriter, st controlplane.State) {
	w.n(len(st.Tables))
	for _, ts := range st.Tables {
		w.str(ts.Name)
		w.n(len(ts.Entries))
		for _, e := range ts.Entries {
			w.i(int64(e.Priority))
			w.i(int64(e.Seq))
			w.n(len(e.Matches))
			for _, m := range e.Matches {
				w.u(uint64(m.Kind))
				w.bv(m.Value)
				w.bv(m.Mask)
				w.i(int64(m.PrefixLen))
				b := uint64(0)
				if m.Wildcard {
					b = 1
				}
				w.u(b)
			}
			w.str(e.Action)
			w.n(len(e.Params))
			for _, p := range e.Params {
				w.bv(p)
			}
		}
	}
	w.n(len(st.Defaults))
	for _, d := range st.Defaults {
		w.str(d.Table)
		w.str(d.Action.Name)
		w.n(len(d.Action.Params))
		for _, p := range d.Action.Params {
			w.bv(p)
		}
	}
	w.n(len(st.ValueSets))
	for _, vs := range st.ValueSets {
		w.str(vs.Name)
		w.n(len(vs.Members))
		for _, m := range vs.Members {
			w.bv(m.Value)
			w.bv(m.Mask)
		}
	}
	w.n(len(st.Registers))
	for _, rs := range st.Registers {
		w.str(rs.Name)
		w.bv(rs.Fill)
	}
	w.i(int64(st.Seq))
}

func readConfigState(r *snapReader) controlplane.State {
	var st controlplane.State
	nt := r.n()
	for i := 0; i < nt && r.err == nil; i++ {
		ts := controlplane.TableState{Name: r.str()}
		ne := r.n()
		for j := 0; j < ne && r.err == nil; j++ {
			e := controlplane.EntryState{Priority: int(r.i()), Seq: int(r.i())}
			nm := r.n()
			for k := 0; k < nm && r.err == nil; k++ {
				m := controlplane.FieldMatch{
					Kind:  controlplane.MatchKind(r.u()),
					Value: r.bv(),
					Mask:  r.bv(),
				}
				m.PrefixLen = int(r.i())
				m.Wildcard = r.u() != 0
				e.Matches = append(e.Matches, m)
			}
			e.Action = r.str()
			np := r.n()
			for k := 0; k < np && r.err == nil; k++ {
				e.Params = append(e.Params, r.bv())
			}
			ts.Entries = append(ts.Entries, e)
		}
		st.Tables = append(st.Tables, ts)
	}
	nd := r.n()
	for i := 0; i < nd && r.err == nil; i++ {
		d := controlplane.DefaultState{Table: r.str()}
		d.Action.Name = r.str()
		np := r.n()
		for k := 0; k < np && r.err == nil; k++ {
			d.Action.Params = append(d.Action.Params, r.bv())
		}
		st.Defaults = append(st.Defaults, d)
	}
	nv := r.n()
	for i := 0; i < nv && r.err == nil; i++ {
		vs := controlplane.ValueSetState{Name: r.str()}
		nm := r.n()
		for k := 0; k < nm && r.err == nil; k++ {
			vs.Members = append(vs.Members, controlplane.ValueSetMember{Value: r.bv(), Mask: r.bv()})
		}
		st.ValueSets = append(st.ValueSets, vs)
	}
	nr := r.n()
	for i := 0; i < nr && r.err == nil; i++ {
		st.Registers = append(st.Registers, controlplane.RegisterState{Name: r.str(), Fill: r.bv()})
	}
	st.Seq = int(r.i())
	return st
}

// Restore rebuilds a Specializer from Snapshot bytes: it is
// NewFromSource on the embedded program with the snapshot's
// configuration, degraded set, variable order and counters in place
// before the first pass. The snapshot dictates the verdict-shaping
// options (quality, threshold, parser skipping) and turns the executor
// on if the snapshotting engine ran it; opts.Exec turns it on for one
// that did not. Repair pacing and observability come from opts.
func Restore(data []byte, opts Options) (*Specializer, error) {
	img, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	opts.SkipParser = img.flags&snapSkipParser != 0
	opts.Exec = opts.Exec || img.flags&snapExec != 0
	opts.Quality = img.quality
	opts.OverapproxThreshold = img.threshold
	s, err := open(img.name, img.source, opts, &img.boot)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	return s, nil
}

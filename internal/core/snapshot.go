package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/dd"
	"repro/internal/flayerr"
	"repro/internal/p4/parser"
	"repro/internal/p4/typecheck"
	"repro/internal/sym"
)

// Engine snapshots: the full warm state of a Specializer serialized to
// bytes, so a controller can checkpoint a stream and warm-restart it —
// in another process — without replaying the control-plane history.
//
// A snapshot carries the program source, the engine options that shape
// verdicts (quality, overapproximation threshold, parser skipping), the
// installed configuration (controlplane.State), the cumulative decision
// counters, the verdict map and the per-point liveness witnesses.
// Everything expression-valued travels through the portable encoding
// (sym.EncodeExprs), never builder pointers, which is what makes the
// bytes portable.
//
// Restore re-runs parsing, type-checking and the data-plane analysis —
// all deterministic, so points, taint and placeholders line up with the
// snapshotting engine — then installs the saved state instead of
// recomputing it: the initial-preprocessing query pass, the dominant
// open cost after analysis, is skipped entirely. What a restored engine
// does not have is the per-point residue memo (pointSub): the first
// write to each target re-queries the points it taints once, and the
// width rule, a literal or the diagram memo settle those.
//
// Wire format: magic, then uvarint/varint-packed sections in fixed
// order, then an FNV-64a checksum of everything before it. The loader
// re-validates every field against the freshly built analysis (a
// snapshot is untrusted input) and returns errors — never panics — on
// corruption; FuzzSnapshot holds it to that.

// snapMagic identifies snapshot bytes; the trailing byte is the format
// version. Version 2 added the adaptive-precision sections: the
// degraded-table set (after the threshold) and three more cumulative
// counters (degradations, promotions, unsound degraded verdicts).
// Version 3 added the decision-diagram variable order (after the
// degraded set): atom names and widths in registration order, so a
// restored engine rebuilds its diagrams — they are never serialized —
// under the exact order the snapshotting engine walked. Version 4 is
// version 3 without its last section, the specialization-query cache,
// which left the engine; older bytes fail the magic check.
var snapMagic = []byte("goflay-snap\x04")

// snapMaxWitnessVars bounds decoded witness tables against hostile
// length prefixes.
const snapMaxWitnessVars = 1 << 20

// snapWriter appends the primitive wire types.
type snapWriter struct{ buf []byte }

func (w *snapWriter) u(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *snapWriter) i(v int64)  { w.buf = binary.AppendVarint(w.buf, v) }
func (w *snapWriter) n(v int)    { w.u(uint64(v)) }
func (w *snapWriter) str(s string) {
	w.n(len(s))
	w.buf = append(w.buf, s...)
}
func (w *snapWriter) bytes(b []byte) {
	w.n(len(b))
	w.buf = append(w.buf, b...)
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

func (r *snapReader) bytes() []byte {
	n := r.n()
	if r.err != nil {
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
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

// Snapshot serializes the engine's complete warm state. It takes the
// read lock, so it can run concurrently with other readers (and
// coherently between updates).
func (s *Specializer) Snapshot() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.source == "" {
		return nil, fmt.Errorf("core: snapshot: engine was not opened from source (use NewFromSource)")
	}

	w := &snapWriter{buf: append([]byte(nil), snapMagic...)}
	payloadStart := len(w.buf)

	w.str(s.Prog.Name)
	w.str(s.source)
	flags := uint64(0)
	if s.An.SkippedParser {
		flags |= 1
	}
	w.u(flags)
	w.u(uint64(s.quality))
	w.i(int64(s.Cfg.OverapproxThreshold))

	// The degraded-table set (adaptive precision controller): names with
	// causes, sorted, so a restored engine resumes with the same tables
	// pinned to the overapproximation and the repair loop re-armed.
	degraded := sortedNames(s.degraded)
	w.n(len(degraded))
	for _, name := range degraded {
		w.str(name)
		w.str(s.degraded[name])
	}

	// The diagram core's variable order (dd.go). Diagrams rebuild from
	// the residues on restore; only the order — which fixes canonical
	// form and walk-witness determinism — travels. Empty when the core
	// is disabled.
	order := s.variableOrder()
	w.n(len(order))
	for _, a := range order {
		w.str(a.Name)
		w.u(uint64(a.Width))
	}

	writeConfigState(w, s.Cfg.State())

	// Cumulative counters, so sequence numbers (and with them audit
	// records) continue exactly where the snapshotting engine stopped.
	st := s.stats
	for _, v := range []int64{
		int64(st.Updates), int64(st.Forwarded), int64(st.Recompilations),
		int64(st.Rejected), int64(st.Batches), int64(st.BatchedUpdates),
		int64(st.Coalesced),
		int64(st.AnalysisTime), int64(st.PreprocessTime),
		int64(st.UpdateTime), int64(st.EvalTime),
		int64(st.Degradations), int64(st.Promotions), s.unsound.Load(),
	} {
		w.i(v)
	}

	w.n(len(s.verdicts))
	for _, v := range s.verdicts {
		w.u(uint64(v.Kind))
		w.bv(v.Val)
	}

	writeWitnesses(w, s.witnesses)

	sum := fnv.New64a()
	sum.Write(w.buf[payloadStart:])
	w.buf = sum.Sum(w.buf)
	return w.buf, nil
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

// writeWitnesses serializes the per-point liveness witnesses: one
// shared variable table (canonically encoded, sorted builder-
// independently by class/name/width) followed by per-point assignments
// referencing it by index.
func writeWitnesses(w *snapWriter, witnesses []sym.Env) {
	varIndex := make(map[*sym.Expr]int)
	var vars []*sym.Expr
	for _, env := range witnesses {
		for v := range env {
			if _, ok := varIndex[v]; !ok {
				varIndex[v] = 0 // placeholder; assigned after sorting
				vars = append(vars, v)
			}
		}
	}
	sort.Slice(vars, func(i, j int) bool {
		a, b := vars[i], vars[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Width < b.Width
	})
	for i, v := range vars {
		varIndex[v] = i
	}
	blob, _ := sym.EncodeExprs(vars) // vars are interned nodes, never nil
	w.bytes(blob)

	withWitness := 0
	for _, env := range witnesses {
		if len(env) > 0 {
			withWitness++
		}
	}
	w.n(withWitness)
	for id, env := range witnesses {
		if len(env) == 0 {
			continue
		}
		w.n(id)
		w.n(len(env))
		// Deterministic order via the sorted variable table.
		idxs := make([]int, 0, len(env))
		byIdx := make(map[int]sym.BV, len(env))
		for v, val := range env {
			idxs = append(idxs, varIndex[v])
			byIdx[varIndex[v]] = val
		}
		sort.Ints(idxs)
		for _, ix := range idxs {
			w.n(ix)
			w.bv(byIdx[ix])
		}
	}
}

func readWitnesses(r *snapReader, b *sym.Builder, points int) []sym.Env {
	blob := r.bytes()
	if r.err != nil {
		return nil
	}
	vars, err := sym.DecodeExprs(b, blob)
	if err != nil {
		r.fail("witness variable table: %v", err)
		return nil
	}
	if len(vars) > snapMaxWitnessVars {
		r.fail("witness variable table too large")
		return nil
	}
	for _, v := range vars {
		if v.Op != sym.OpVar {
			r.fail("witness table entry is not a variable")
			return nil
		}
	}
	out := make([]sym.Env, points)
	n := r.n()
	for i := 0; i < n && r.err == nil; i++ {
		id := int(r.u())
		if r.err != nil {
			return nil
		}
		if id >= points {
			r.fail("witness references point %d of %d", id, points)
			return nil
		}
		nv := r.n()
		env := make(sym.Env, nv)
		for k := 0; k < nv && r.err == nil; k++ {
			ix := int(r.u())
			val := r.bv()
			if r.err != nil {
				return nil
			}
			if ix >= len(vars) {
				r.fail("witness references variable %d of %d", ix, len(vars))
				return nil
			}
			if val.W != vars[ix].Width {
				r.fail("witness value width %d for variable of width %d", val.W, vars[ix].Width)
				return nil
			}
			env[vars[ix]] = val
		}
		out[id] = env
	}
	return out
}

// Restore rebuilds a Specializer from Snapshot bytes. Parsing,
// type-checking and the data-plane analysis re-run (they are
// deterministic functions of the embedded source); the configuration,
// verdicts and witnesses are installed from the snapshot, skipping the
// initial query pass. The snapshot dictates the verdict-shaping options
// (quality, threshold, parser skipping); runtime options — the
// executor, repair pacing, observability — come from opts.
func Restore(data []byte, opts Options) (*Specializer, error) {
	if len(data) < len(snapMagic)+8 {
		return nil, fmt.Errorf("core: %w: input too short", flayerr.ErrSnapshotCorrupt)
	}
	for i, b := range snapMagic {
		if data[i] != b {
			return nil, fmt.Errorf("core: %w: bad magic (not a goflay snapshot, or wrong version)",
				flayerr.ErrSnapshotCorrupt)
		}
	}
	payload := data[len(snapMagic) : len(data)-8]
	sum := fnv.New64a()
	sum.Write(payload)
	if got := binary.BigEndian.Uint64(data[len(data)-8:]); got != sum.Sum64() {
		return nil, fmt.Errorf("core: %w: checksum mismatch", flayerr.ErrSnapshotCorrupt)
	}

	r := &snapReader{buf: payload}
	name := r.str()
	source := r.str()
	flags := r.u()
	quality := Quality(r.u())
	threshold := int(r.i())
	ndeg := r.n()
	degraded := make(map[string]string, ndeg)
	for i := 0; i < ndeg && r.err == nil; i++ {
		degraded[r.str()] = r.str()
	}
	norder := r.n()
	order := make([]dd.Atom, 0, norder)
	for i := 0; i < norder && r.err == nil; i++ {
		a := dd.Atom{Name: r.str(), Width: uint16(r.u())}
		if a.Width < 1 || a.Width > sym.MaxWidth {
			return nil, fmt.Errorf("core: %w: atom %q has width %d",
				flayerr.ErrSnapshotCorrupt, a.Name, a.Width)
		}
		order = append(order, a)
	}
	if r.err != nil {
		return nil, r.err
	}
	if quality > QualityNone {
		return nil, fmt.Errorf("core: %w: invalid quality %d", flayerr.ErrSnapshotCorrupt, quality)
	}

	root := opts.Trace.Start("restore", 0)
	defer opts.Trace.End(root)
	t0 := time.Now()
	sp := opts.Trace.Start("parse", root)
	prog, err := parser.Parse(name, source)
	opts.Trace.End(sp)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: embedded program: %w", err)
	}
	sp = opts.Trace.Start("typecheck", root)
	info, err := typecheck.Check(prog)
	opts.Trace.End(sp)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: embedded program: %w", err)
	}
	an, err := dataplane.Analyze(prog, info, dataplane.Options{
		SkipParser: flags&1 != 0,
		Trace:      opts.Trace,
		Parent:     root,
		Metrics:    opts.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: embedded program: %w", err)
	}
	analysisTime := time.Since(t0)

	cfg := controlplane.NewConfig(an)
	cfg.OverapproxThreshold = threshold
	cfg.SetObserver(opts.Metrics)
	if err := cfg.SetState(readConfigState(r)); err != nil {
		if r.err != nil {
			return nil, r.err
		}
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}

	// Re-pin the degraded tables before initState so their assignments
	// compile overapproximated — the state the saved verdicts were
	// computed under.
	for tname := range degraded {
		if an.Tables[tname] == nil {
			return nil, fmt.Errorf("core: %w: degraded table %q not in program",
				flayerr.ErrSnapshotCorrupt, tname)
		}
		cfg.ForceOverapprox(tname, true)
	}

	s := &Specializer{
		Prog:     prog,
		Info:     info,
		An:       an,
		Cfg:      cfg,
		source:   source,
		impls:    make(map[string]*tableImpl),
		quality:  quality,
		exec:     opts.Exec,
		trace:    opts.Trace,
		audit:    opts.Audit,
		met:      newCoreMetrics(opts.Metrics),
		symMet:   sym.NewSolverMetrics(opts.Metrics),
		repair:   opts.RepairInterval,
		closedCh: make(chan struct{}),
	}
	if len(degraded) > 0 {
		s.degraded = degraded
	}
	if !opts.NoDD {
		if len(order) > 0 {
			s.ddc = newDDCore(an, order)
		} else {
			// Snapshot from a core-disabled engine: derive a fresh order.
			s.ddc = newDDCore(an, nil)
		}
		s.roDD.Store(s.ddc)
	}

	var counters [14]int64
	for i := range counters {
		counters[i] = r.i()
	}
	if r.err != nil {
		return nil, r.err
	}

	t1 := time.Now()
	rsp := s.trace.Start("reinstall", root)
	if err := s.initState(); err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}

	nv := r.n()
	if r.err != nil {
		return nil, r.err
	}
	if nv != len(an.Points) {
		return nil, fmt.Errorf("core: %w: %d verdicts for %d program points",
			flayerr.ErrSnapshotCorrupt, nv, len(an.Points))
	}
	for i := 0; i < nv; i++ {
		kind := VerdictKind(r.u())
		val := r.bv()
		if r.err != nil {
			return nil, r.err
		}
		if kind > VerdictVaries {
			return nil, fmt.Errorf("core: %w: invalid verdict kind %d", flayerr.ErrSnapshotCorrupt, kind)
		}
		s.verdicts[i] = Verdict{Kind: kind, Val: val}
	}

	s.witnesses = readWitnesses(r, an.Builder, len(an.Points))
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("core: %w: %d trailing bytes", flayerr.ErrSnapshotCorrupt, len(r.buf))
	}

	// Installed implementations: at rest the engine's invariant is
	// cur.equal(ideal) (Apply adopts the ideal on every change and
	// equal() compares every field), so rebuilding from the restored
	// verdicts reproduces them exactly.
	for tname := range an.Tables {
		s.impls[tname] = s.idealImpl(tname)
	}
	s.trace.End(rsp)

	s.met.points.Set(int64(len(an.Points)))
	s.met.tables.Set(int64(len(an.Tables)))
	s.stats = Stats{
		Points:         len(an.Points),
		Tables:         len(an.Tables),
		AnalysisTime:   analysisTime,
		PreprocessTime: time.Since(t1),
		Updates:        int(counters[0]),
		Forwarded:      int(counters[1]),
		Recompilations: int(counters[2]),
		Rejected:       int(counters[3]),
		Batches:        int(counters[4]),
		BatchedUpdates: int(counters[5]),
		Coalesced:      int(counters[6]),
		UpdateTime:     time.Duration(counters[9]),
		EvalTime:       time.Duration(counters[10]),
		Degradations:   int(counters[11]),
		Promotions:     int(counters[12]),
		DegradedTables: len(degraded),
	}
	s.unsound.Store(counters[13])
	s.met.degradedTables.Set(int64(len(degraded)))
	// Sequence numbers continue where the snapshotting engine stopped,
	// and the restored state is published as the engine's first epoch
	// before it escapes.
	s.co.seq.Store(int64(s.stats.Updates))
	s.publish()
	// A restored engine with degraded tables resumes repair where the
	// snapshotting one left off.
	s.ensureRepairLocked()
	return s, nil
}

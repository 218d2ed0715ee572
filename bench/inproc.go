package main

import (
	"context"
	"fmt"
	"time"

	goflay "repro"
	"repro/internal/bmv2"
	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/dpexec"
	"repro/internal/fuzz"
	"repro/internal/p4/ast"
	"repro/internal/p4/parser"
	"repro/internal/p4/typecheck"
	"repro/internal/progs"
)

// world is the harness's own view of one workload's program: a front
// end of its own (the churn generators need an Analysis, the reference
// interpreter the original AST), the baseline configuration as a list
// of updates, a shadow controlplane.Config holding that baseline, and
// the frames derived from it. The engine under test never sees any of
// this — it receives only the generated updates and frames.
type world struct {
	prog *progs.Program
	ast  *ast.Program
	info *typecheck.Info
	an   *dataplane.Analysis

	// representative and preload are the baseline configuration every
	// round returns to; opts are the options every build opens with.
	representative []*controlplane.Update
	preload        []*controlplane.Update
	opts           []goflay.Option

	// cfg shadows the baseline for the reference interpreter and the
	// layer probes (the facade does not expose the engine's Config).
	cfg        *controlplane.Config
	lay        *layout
	hitEntries []*controlplane.TableEntry
	frames     *frameSet
}

// newWorld parses and analyses the catalog program on the harness side
// and derives the baseline and the traffic from it.
func newWorld(e *env, catalog string, threshold int, preload []*controlplane.Update, opts ...goflay.Option) (*world, error) {
	p, err := progs.ByName(catalog)
	if err != nil {
		return nil, err
	}
	w := &world{prog: p, representative: p.Representative(), preload: preload, opts: opts}

	sp := e.rec.begin("p4.parse", 0)
	t0 := time.Now()
	if w.ast, err = parser.Parse(p.Name, p.Source); err != nil {
		return nil, err
	}
	if w.info, err = typecheck.Check(w.ast); err != nil {
		return nil, err
	}
	e.set("p4.parse_ms", ms(time.Since(t0)))
	e.rec.end(sp)

	sp = e.rec.begin("dataplane.analyze", 0)
	w.an, err = dataplane.Analyze(w.ast, w.info, dataplane.Options{SkipParser: p.SkipParser})
	e.rec.end(sp)
	if err != nil {
		return nil, err
	}

	w.cfg = controlplane.NewConfig(w.an)
	w.cfg.OverapproxThreshold = threshold
	lay, ok := layouts[catalog]
	if !ok {
		return nil, fmt.Errorf("no frame layout for %s", catalog)
	}
	w.lay = &lay
	for _, u := range w.baseline() {
		if err := w.cfg.Apply(u); err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
		if u.Kind == controlplane.InsertEntry && u.Table == lay.table {
			w.hitEntries = append(w.hitEntries, u.Entry)
		}
	}
	if len(w.hitEntries) == 0 {
		return nil, fmt.Errorf("baseline installs nothing in %s", lay.table)
	}
	w.frames = buildFrames(w.lay, w.hitEntries, e.seed)
	e.set("dpexec.fastpath_share", w.frames.fastpathShare(w.lay, w.hitEntries))
	return w, nil
}

func (w *world) baseline() []*controlplane.Update {
	return append(append([]*controlplane.Update(nil), w.representative...), w.preload...)
}

// built is one cold build of the workload's initial state, with the
// stage times the harness saw from outside.
type built struct {
	pipe                          *goflay.Pipeline
	open, representative, preload time.Duration
	// reg is the registry the state was opened with (nil in plain runs).
	reg *goflay.Metrics
	// entries is the baseline entry count per table, which every round
	// must return to.
	entries map[string]int
}

func (b *built) total() time.Duration { return b.open + b.representative + b.preload }

// build opens the program and installs the baseline: the representative
// configuration one Apply at a time (as cmd/flay does), the preload as
// one ApplyBatch.
func (w *world) build(rec *recorder, extra ...goflay.Option) (*built, error) {
	root := rec.begin("bench.build", 0)
	defer rec.end(root)
	b := &built{}

	sp := rec.begin("core.OpenCatalog", root)
	t0 := time.Now()
	pipe, err := goflay.OpenCatalog(w.prog.Name, append(append([]goflay.Option(nil), w.opts...), extra...)...)
	b.open = time.Since(t0)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	b.pipe = pipe

	sp = rec.begin("core.Apply(representative)", root)
	t0 = time.Now()
	for _, u := range w.representative {
		if d := pipe.Apply(u); d.Kind == goflay.Rejected {
			return nil, fmt.Errorf("representative config rejected: %v", d.Err)
		}
	}
	b.representative = time.Since(t0)
	rec.end(sp)

	sp = rec.begin("core.ApplyBatch(preload)", root)
	t0 = time.Now()
	if len(w.preload) > 0 {
		for _, d := range pipe.ApplyBatch(w.preload) {
			if d.Kind == goflay.Rejected {
				return nil, fmt.Errorf("preload rejected: %v", d.Err)
			}
		}
	}
	b.preload = time.Since(t0)
	rec.end(sp)

	b.entries = make(map[string]int)
	for _, t := range pipe.Tables() {
		b.entries[t] = pipe.Entries(t)
	}
	return b, nil
}

// setupSamples is how many set-up samples a run takes; setup_s is their
// median. One sample is a fixed number of cold builds back to back —
// enough of them, per workload, to take at least half a second, so that
// a tenth of the metric is never a millisecond or two of scheduling.
const setupSamples = 3

// measureSetup is the end-to-end set-up measurement. build makes one
// cold build of the workload's initial state and returns what it took;
// discard tears the previous build down (outside the clock, as is the
// collection before every build). The last build is the one the run
// goes on to use. builds is the workload's count at scale 1.0.
func measureSetup(e *env, builds int, build func() (time.Duration, error), discard func()) error {
	builds = scaled(builds, e.scale, 1)
	totals := make([]float64, setupSamples)
	first := true
	for i := range totals {
		var sum time.Duration
		for j := 0; j < builds; j++ {
			if !first {
				discard()
			}
			first = false
			settle()
			d, err := build()
			if err != nil {
				return err
			}
			sum += d
		}
		totals[i] = sum.Seconds()
	}
	e.setQ("setup_s", median(totals), len(totals))
	e.set("bench.spread.setup_s", spread(totals))
	return nil
}

// setup measures set-up on the in-process state and reports the stage
// times of the build the run uses.
func (w *world) setup(e *env, builds int) (*built, error) {
	var b *built
	err := measureSetup(e, builds, func() (d time.Duration, err error) {
		if b, err = w.build(e.rec); err != nil {
			return 0, err
		}
		return b.total(), nil
	}, func() { b.pipe.Close() })
	if err != nil {
		return nil, err
	}
	st := b.pipe.Statistics()
	e.set("dataplane.analyze_ms", ms(st.AnalysisTime))
	e.set("core.preprocess_ms", ms(st.PreprocessTime))
	e.set("core.representative_ms", ms(b.representative))
	e.set("core.preload_ms", ms(b.preload))
	return b, nil
}

// target is the state a write phase runs against — the in-process
// pipeline or the fleet — as far as the round loop needs to see it.
type target interface {
	// stats are the engine statistics, summed over the write sessions.
	stats() (goflay.Stats, error)
	// registry is the obs registry of the state (empty when it has none).
	registry() (goflay.MetricsSnapshot, error)
	// offBaseline names every table that does not hold its baseline
	// entry count.
	offBaseline() []string
}

func (b *built) stats() (goflay.Stats, error) { return b.pipe.Statistics(), nil }

func (b *built) registry() (goflay.MetricsSnapshot, error) { return b.reg.Snapshot(), nil }

func (b *built) offBaseline() []string {
	var off []string
	for t, want := range b.entries {
		if got := b.pipe.Entries(t); got != want {
			off = append(off, fmt.Sprintf("%s holds %d entries, baseline %d", t, got, want))
		}
	}
	return off
}

// call is one write call: the updates a controller pushes together.
type call []*controlplane.Update

// mark checks a churn stream's declared steady-state invariant after
// the call that ends the stream (before its drain).
type mark struct {
	after int
	cs    *fuzz.ChurnStream
}

// roundPlan is the operation sequence of one round. Every round ends in
// the baseline configuration.
type roundPlan struct {
	calls []call
	marks []mark
	// single pushes each call's updates one ApplyCtx at a time; otherwise
	// a call is one ApplyBatchCtx.
	single bool
}

func (p *roundPlan) updates() int {
	n := 0
	for _, c := range p.calls {
		n += len(c)
	}
	return n
}

// apply pushes one call the way the plan's caller would.
func (p *roundPlan) apply(ctx context.Context, pipe *goflay.Pipeline, c call) []*goflay.Decision {
	if p.single {
		return pipe.ApplyAllCtx(ctx, c)
	}
	return pipe.ApplyBatchCtx(ctx, c)
}

// span names the span around a call by the function called.
func (p *roundPlan) span() string {
	if p.single {
		return "core.ApplyCtx"
	}
	return "core.ApplyBatchCtx"
}

// checkCall gates one answered call, outside its clock pair: one
// decision per update, none rejected, and — after the call that ends a
// churn stream — the stream's declared invariant. mi is the next mark
// to check; the new value is returned.
func (p *roundPlan) checkCall(e *env, b *built, round, ci int, ds []*goflay.Decision, mi int) int {
	e.attempted++
	if len(ds) != len(p.calls[ci]) {
		e.gate("round %d call %d: %d decisions for %d updates", round, ci, len(ds), len(p.calls[ci]))
	}
	for _, dec := range ds {
		if dec.Kind == goflay.Rejected {
			e.gate("round %d call %d: rejected %s: %v", round, ci, dec.Update, dec.Err)
		}
	}
	for ; mi < len(p.marks) && p.marks[mi].after == ci; mi++ {
		cs := p.marks[mi].cs
		if err := cs.CheckInvariant(b.pipe.Entries(cs.Spec.Table) - b.entries[cs.Spec.Table]); err != nil {
			e.gate("round %d: %v", round, err)
		}
	}
	return mi
}

// round is what pushing one round yields: a write part and a packet
// part. The push functions reuse one round (and its buffers) for every
// round of a phase, so nothing here outlives the next push.
type round struct {
	updates int             // updates issued
	wall    time.Duration   // of the write part
	lat     []time.Duration // one per write call
	late    []float64       // open loop: ms each call started after it was due

	chunks  []time.Duration // one per 256-frame chunk: its ExecBatch or /exec time
	pktWall time.Duration   // of the packet part
	mallocs uint64          // heap allocations during the packet part
	swaps   int             // image swaps the packet part saw
}

func (rd *round) reset() {
	*rd = round{lat: rd.lat[:0], late: rd.late[:0], chunks: rd.chunks[:0]}
}

// pktStats summarises a packet part. A packet sample is the mean time
// per packet over pktWindow consecutive chunks.
type pktStats struct {
	samples int
	p50     float64 // median sample, ns per packet
	p99     float64 // 99th-percentile chunk, ns per packet
	perSec  float64 // packets per wall second
	allocs  float64 // heap allocations per packet
}

func (rd *round) packets() pktStats {
	if len(rd.chunks) == 0 {
		return pktStats{}
	}
	windows := windowMeans(rd.chunks)
	per := make([]float64, len(rd.chunks))
	for i, d := range rd.chunks {
		per[i] = float64(d) / chunk
	}
	n := float64(len(rd.chunks) * chunk)
	return pktStats{
		samples: len(windows), p50: median(windows), p99: quantile(per, 0.99),
		perSec: share(n, rd.pktWall.Seconds()), allocs: share(float64(rd.mallocs), n),
	}
}

// measured is what a sequence of timed rounds yields.
type measured struct {
	lat   [][]float64 // per round: ms per write call
	rates []float64   // per round: decided updates per second
	walls []float64   // per round: wall of the write part, s
	heaps []float64   // per round: live heap after it, MB
	pkt   []pktStats  // per round: its packet part
	late  []float64   // open loop, pooled: ms a call started late
	swaps int

	before, after goflay.Stats
	mem0, mem1    memCounters
	// reg0 and reg1 are registry snapshots around the timed rounds
	// (empty when the state was opened without WithMetrics).
	reg0, reg1 goflay.MetricsSnapshot
}

func (m *measured) wall() time.Duration {
	var s float64
	for _, w := range m.walls {
		s += w
	}
	return time.Duration(s * float64(time.Second))
}

// runRounds is the write-and-packets phase of every workload: one
// discarded warm-up round, then the timed rounds. push pushes round r
// (its spans hang under parent) — closed loop, open loop or over the
// fleet's wires; everything around it is the same for all three: the
// counter snapshots around the timed rounds and, after every round and
// outside every timed span, the gates that it returned to the baseline
// and the collection that also reads the live heap. Work is counted,
// never clocked.
func runRounds(e *env, rec *recorder, t target, rounds int, push func(r, parent int, rd *round)) (*measured, error) {
	m := &measured{}
	rd := &round{}
	var err error
	settle()
	for r := 0; r <= rounds; r++ {
		if r == 1 {
			if m.before, err = t.stats(); err != nil {
				return nil, err
			}
			if m.reg0, err = t.registry(); err != nil {
				return nil, err
			}
			m.mem0 = readMem()
		}
		st0, err := t.stats()
		if err != nil {
			return nil, err
		}
		rec.setRound(r)
		sp := rec.begin("bench.round", 0)
		rd.reset()
		push(r, sp, rd)
		rec.end(sp)

		st, err := t.stats()
		if err != nil {
			return nil, err
		}
		if got := st.Updates - st0.Updates; got != rd.updates {
			e.gate("round %d: engine decided %d updates, %d issued", r, got, rd.updates)
		}
		if st.Rejected != st0.Rejected {
			e.gate("round %d: %d rejected decisions", r, st.Rejected-st0.Rejected)
		}
		for _, off := range t.offBaseline() {
			e.gate("round %d: %s", r, off)
		}
		heap := heapLiveMB() // also the collection between rounds
		if r == 0 {
			continue
		}
		m.lat = append(m.lat, durationsMS(rd.lat))
		m.rates = append(m.rates, float64(rd.updates)/rd.wall.Seconds())
		m.walls = append(m.walls, rd.wall.Seconds())
		m.heaps = append(m.heaps, heap)
		m.pkt = append(m.pkt, rd.packets())
		m.late = append(m.late, rd.late...)
		m.swaps += rd.swaps
	}
	rec.setRound(0)
	if m.after, err = t.stats(); err != nil {
		return nil, err
	}
	if m.reg1, err = t.registry(); err != nil {
		return nil, err
	}
	m.mem1 = readMem()
	return m, nil
}

// pushClosed is the closed-loop in-process round: the plan's calls back
// to back, one clock pair per call, then the round's slice of packets.
func (w *world) pushClosed(e *env, rec *recorder, b *built, plans []*roundPlan, chunks int) func(r, parent int, rd *round) {
	ctx := context.Background()
	return func(r, parent int, rd *round) {
		p := plans[r]
		rd.updates = p.updates()
		t0 := time.Now()
		mi := 0
		for ci, c := range p.calls {
			sp := rec.begin(p.span(), parent)
			c0 := time.Now()
			ds := p.apply(ctx, b.pipe, c)
			d := time.Since(c0)
			rec.end(sp)
			rd.lat = append(rd.lat, d)
			mi = p.checkCall(e, b, r, ci, ds, mi)
		}
		rd.wall = time.Since(t0)
		w.packetPart(e, rec, parent, b.pipe, r*chunks, chunks, rd)
	}
}

// packetPart is a closed-loop packet part: n chunks of 256 frames
// starting at chunk first, one ExecBatch call and one clock pair each.
func (w *world) packetPart(e *env, rec *recorder, parent int, pipe *goflay.Pipeline, first, n int, rd *round) {
	mem0 := readMem()
	sp := rec.begin("bench.packets", parent)
	t0 := time.Now()
	for i := first; i < first+n; i++ {
		frames, ports := w.frames.chunkAt(i)
		csp := rec.begin("dpexec.ExecBatch", sp)
		c0 := time.Now()
		res, err := pipe.ExecBatch(frames, ports)
		d := time.Since(c0)
		rec.end(csp)
		e.attempted++
		if err != nil || len(res) != len(frames) {
			e.gate("packet chunk %d: %d results, err %v", i, len(res), err)
			continue
		}
		rd.chunks = append(rd.chunks, d)
	}
	rd.pktWall = time.Since(t0)
	rec.end(sp)
	rd.mallocs = readMem().mallocs - mem0.mallocs
}

// report turns the timed rounds into the four clocked end-to-end
// metrics — each the quietest round's value, the tail rescaled to it —
// and the spread of each over the rounds.
func report(e *env, m *measured) {
	samples := 0
	p50s, p95s, pkts := make([]float64, len(m.lat)), make([]float64, len(m.lat)), make([]float64, len(m.pkt))
	for i, r := range m.lat {
		samples += len(r)
		p50s[i], p95s[i] = median(r), quantile(r, 0.95)
	}
	for i, p := range m.pkt {
		pkts[i] = p.p50
	}
	// The sample count beside a figure is what that figure stands on: the
	// rounds chosen from, the quietest round's samples, all samples.
	e.setQ("update_per_s", best(m.rates, "higher"), len(m.rates))
	e.setQ("update_p50_ms", best(p50s, "lower"), len(m.lat[quietest(p50s, "lower")]))
	e.setQ("update_p95_ms", rescaledQuantile(m.lat, 0.95), samples)
	e.setQ("pkt_ns_p50", best(pkts, "lower"), m.pkt[quietest(pkts, "lower")].samples)
	for name, perRound := range map[string][]float64{
		"update_per_s": m.rates, "update_p50_ms": p50s, "update_p95_ms": p95s, "pkt_ns_p50": pkts, "heap_live_mb": m.heaps,
	} {
		e.rounds[name] = perRound
		e.set("bench.spread."+name, spread(perRound))
	}
}

// diffGate is the packet-differential correctness gate: 512 sampled
// frames must leave the pipeline's executor exactly as they leave the
// bmv2 reference interpreter running the original program under the
// baseline configuration.
func (w *world) diffGate(e *env, pipe *goflay.Pipeline, when string) {
	frames, ports := w.frames.sample(512)
	got, err := pipe.ExecBatch(frames, ports)
	e.attempted++
	if err != nil {
		e.gate("differential %s: ExecBatch: %v", when, err)
		return
	}
	ref := bmv2.New(w.ast, w.info, w.cfg)
	bad := 0
	for i, f := range frames {
		want, err := ref.Run(bmv2.Packet{Data: f, IngressPort: ports[i]})
		if err != nil || !got[i].Equal(dpexec.Result{
			Dropped: want.Dropped, EgressPort: want.EgressPort, McastGrp: want.McastGrp, Emitted: want.Emitted,
		}) {
			bad++
		}
	}
	if bad > 0 {
		e.gate("differential %s: %d of %d frames differ from bmv2", when, bad, len(frames))
	}
}

// finalGates are the end-of-run checks on the engine's own counters.
func finalGates(e *env, pipe *goflay.Pipeline) {
	if st := pipe.Statistics(); st.UnsoundDegraded != 0 {
		e.gate("UnsoundDegraded = %d", st.UnsoundDegraded)
	}
}

// specQuality reports how specialized the end state is: the numbers
// that guard against a speed-up bought by specializing less. They are
// pure counts, so the plain run prints them too.
func specQuality(e *env, pipe *goflay.Pipeline) error {
	sp := e.rec.begin("devcompiler.Compile", 0)
	rep, err := pipe.Compile()
	e.rec.end(sp)
	if err != nil {
		return fmt.Errorf("device compile of the end state: %w", err)
	}
	e.set("devcompiler.spec_stages", float64(rep.Stages))
	e.set("devcompiler.spec_stmts", float64(rep.Statements))
	points := pipe.Statistics().Points
	dead := 0
	sp = e.rec.begin("core.Explain", 0)
	defer e.rec.end(sp)
	for id := 0; id < points; id++ {
		x, err := pipe.Explain("", id)
		if err != nil {
			return err
		}
		if x.Verdict == "dead" {
			dead++
		}
	}
	e.set("core.dead_points_share", share(float64(dead), float64(points)))
	return nil
}

package main

import (
	"fmt"
	"time"

	goflay "repro"
	"repro/internal/bmv2"
	"repro/internal/controlplane"
	"repro/internal/dpexec"
	"repro/internal/p4/typecheck"
)

// Per-layer numbers, all taken from outside the program: C-metrics are
// deltas of counters it already exports (Pipeline.Statistics, the
// obs.Registry handed over with WithMetrics), S-metrics are spans the
// harness records around calls into a layer's public functions on
// inputs sampled from the workload.

// engineCounters fills the C-metrics of the update path from the deltas
// over a set of timed rounds. The registry snapshots around the rounds
// are empty in the plain run, which leaves the registry-only metrics at
// zero (the plain run prints only the counters that repeat exactly).
func engineCounters(e *env, m *measured) {
	d := func(a, b int64) float64 { return float64(b - a) }
	wall := float64(m.wall())
	updates := float64(m.after.Updates - m.before.Updates)
	e.set("core.eval_share", share(float64(m.after.EvalTime-m.before.EvalTime), wall))
	e.set("core.update_share", share(float64(m.after.UpdateTime-m.before.UpdateTime), wall))
	e.set("core.forwarded_share", share(float64(m.after.Forwarded-m.before.Forwarded), updates))
	e.set("core.coalesced_share", share(float64(m.after.Coalesced-m.before.Coalesced), updates))
	hits := d(m.before.CacheHits, m.after.CacheHits)
	e.set("core.cache_hit_share", share(hits, hits+d(m.before.CacheMisses, m.after.CacheMisses)))
	answered := d(m.before.DDQueries, m.after.DDQueries)
	e.set("dd.answered_share", share(answered, answered+d(m.before.DDFallbacks, m.after.DDFallbacks)))
	e.set("dd.compiles", d(m.before.DDCompiles, m.after.DDCompiles))
	e.set("dd.nodes", float64(m.after.DDNodes))
	e.set("core.arena_sweeps", float64(m.after.ArenaSweeps-m.before.ArenaSweeps))
	e.set("core.arena_nodes", float64(m.after.ArenaNodes))
	e.set("rt.alloc_kb_per_update", share(float64(m.mem1.totalAlloc-m.mem0.totalAlloc)/1024, updates))
	e.set("rt.gc_cycles", float64(m.mem1.numGC-m.mem0.numGC))

	c := func(name string) float64 { return d(m.reg0.Counters[name], m.reg1.Counters[name]) }
	e.set("core.points_per_update", share(c("core.points_evaluated"), updates))
	e.set("sym.solver_queries_per_update", share(c("sym.solver.queries"), updates))
	e.set("controlplane.overapprox_share", share(c("cp.table_compiles_overapprox"), c("cp.table_compiles")))
}

// buildTraced is build with the engine's own instruments switched on.
func (w *world) buildTraced(rec *recorder) (*built, error) {
	reg := goflay.NewMetrics()
	tb, err := w.build(rec, goflay.WithMetrics(reg), goflay.WithTracer(goflay.NewTrace()))
	if err != nil {
		return nil, err
	}
	tb.reg = reg
	return tb, nil
}

// tracedHalf is the -trace run's second half: the same rounds on a
// state opened with WithMetrics and WithTracer, every write call inside
// a harness span. It fills the update path's C-metrics from that state
// and the tracing overhead from the difference to the plain half.
func (w *world) tracedHalf(e *env, plain *measured, plans []*roundPlan) (*built, error) {
	tb, err := w.buildTraced(e.rec)
	if err != nil {
		return nil, err
	}
	tm, err := runRounds(e, e.rec, tb, len(plans)-1, w.pushClosed(e, e.rec, tb, plans, packetChunks))
	if err != nil {
		return nil, err
	}
	engineCounters(e, tm)
	e.set("bench.trace_overhead_share", 1-share(median(tm.rates), median(plain.rates)))
	return tb, nil
}

// probeReps is how many times a probe repeats the call it times; the
// reported number is the median.
const probeReps = 9

// medianSpan times reps calls of fn, each inside its own span, and
// returns the median.
func medianSpan(rec *recorder, name string, reps int, fn func() error) (time.Duration, error) {
	xs := make([]float64, reps)
	for i := range xs {
		sp := rec.begin(name, 0)
		t0 := time.Now()
		err := fn()
		xs[i] = float64(time.Since(t0))
		rec.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return time.Duration(median(xs)), nil
}

// probeSnapshot times the warm-state checkpoint and its restore (the
// base-ship leg of a fleet, a warm restart elsewhere).
func probeSnapshot(e *env, pipe *goflay.Pipeline, opts []goflay.Option) error {
	var data []byte
	d, err := medianSpan(e.rec, "core.Snapshot", 3, func() (err error) {
		data, err = pipe.Snapshot()
		return err
	})
	if err != nil {
		return err
	}
	e.set("core.snapshot_ms", ms(d))
	e.set("core.snapshot_kb", float64(len(data))/1024)
	d, err = medianSpan(e.rec, "core.Restore", 3, func() error {
		p, err := goflay.Restore(data, opts...)
		if err == nil {
			p.Close()
		}
		return err
	})
	if err != nil {
		return err
	}
	e.set("core.restore_ms", ms(d))
	return nil
}

// probeLayers times the layers below the facade on the workload's
// baseline: one table compile of a burst update, the executable image's
// full compile and single-table retarget, Machine.Run per frame class,
// pinning, and the reference interpreter.
func (w *world) probeLayers(e *env, pipe *goflay.Pipeline, burst *controlplane.Update) error {
	rec := e.rec
	// controlplane: compile the burst table's assignment with one more
	// entry installed, on the shadow configuration, then take it out.
	undo := *burst
	undo.Kind = controlplane.DeleteEntry
	d, err := medianSpan(rec, "controlplane.CompileTable", probeReps, func() error {
		if err := w.cfg.Apply(burst); err != nil {
			return err
		}
		_, _, err := w.cfg.CompileTable(w.an.Builder, burst.Table)
		if uerr := w.cfg.Apply(&undo); err == nil {
			err = uerr
		}
		return err
	})
	if err != nil {
		return err
	}
	e.set("controlplane.compile_us", us(d))

	// dpexec: what a publication does when the program's shape changed
	// (full compile of the specialized program) and when it did not
	// (rebuild one table of the previous image).
	spec := pipe.SpecializedProgram()
	info, err := typecheck.Check(spec)
	if err != nil {
		return fmt.Errorf("specialized program does not typecheck: %w", err)
	}
	var img *dpexec.Image
	if d, err = medianSpan(rec, "dpexec.Compile", probeReps, func() (err error) {
		img, err = dpexec.Compile(spec, info, w.cfg)
		return err
	}); err != nil {
		return err
	}
	e.set("dpexec.compile_us", us(d))
	e.set("dpexec.image_instrs", float64(img.NumInstrs()))
	e.set("dpexec.image_slots", float64(img.NumSlots()))
	if d, err = medianSpan(rec, "dpexec.WithTarget", probeReps, func() error {
		_, err := img.WithTarget(w.cfg, burst.Table)
		return err
	}); err != nil {
		return err
	}
	e.set("dpexec.retarget_us", us(d))

	// Machine.Run on the pinned image, per frame class.
	m := dpexec.NewMachine()
	runClass := func(name string, keep func(i int) bool) {
		var frames [][]byte
		var ports []uint16
		for i, f := range w.frames.frames {
			if keep(i) && len(frames) < chunk {
				frames, ports = append(frames, f), append(ports, w.frames.ports[i])
			}
		}
		sp := rec.begin("dpexec.Run", 0)
		d := medianLoop(probeReps, 8*chunk, func(i int) {
			_, _ = m.Run(img, frames[i%len(frames)], ports[i%len(frames)])
		})
		rec.end(sp)
		e.set(name, float64(d))
	}
	small := func(i int) bool { return len(w.frames.frames[i]) < bigFrame }
	runClass("dpexec.run_ns_hit", func(i int) bool { return w.frames.class[i] == classHit && small(i) })
	runClass("dpexec.run_ns_miss", func(i int) bool { return w.frames.class[i] == classMiss && small(i) })
	runClass("dpexec.run_ns_reject", func(i int) bool { return w.frames.class[i] == classTruncated })
	runClass("dpexec.run_ns_1500", func(i int) bool { return w.frames.class[i] == classHit && !small(i) })

	sp := rec.begin("dpexec.PinExec", 0)
	var pinErr error
	d = medianLoop(probeReps, 8*chunk, func(int) {
		p, err := pipe.PinExec()
		if err != nil {
			pinErr = err
			return
		}
		p.Close()
	})
	rec.end(sp)
	if pinErr != nil {
		return pinErr
	}
	e.set("dpexec.pin_ns", float64(d))

	// The reference interpreter and the executor on the same 64 frames
	// (the interpreter takes milliseconds per packet on a full table).
	frames, ports := w.frames.sample(64)
	ref := bmv2.New(w.ast, w.info, w.cfg)
	sp = rec.begin("bmv2.Run", 0)
	slow := medianLoop(3, len(frames), func(i int) {
		_, _ = ref.Run(bmv2.Packet{Data: frames[i], IngressPort: ports[i]})
	})
	rec.end(sp)
	sp = rec.begin("dpexec.Run", 0)
	fast := medianLoop(probeReps, len(frames), func(i int) { _, _ = m.Run(img, frames[i], ports[i]) })
	rec.end(sp)
	e.set("bmv2.run_ns", float64(slow))
	e.set("dpexec.speedup_vs_bmv2", share(float64(slow), float64(fast)))
	return nil
}

// probeRebuild is the share of the write path spent rebuilding the
// executable image: one round replayed closed-loop on the state with
// the executor and on a twin opened without WithExec (same options
// otherwise; twinOpts is w.opts minus WithExec).
func (w *world) probeRebuild(e *env, withExec *built, twinOpts []goflay.Option, plans []*roundPlan) error {
	twin := *w
	twin.opts = twinOpts
	tb, err := twin.build(e.rec)
	if err != nil {
		return err
	}
	defer tb.pipe.Close()
	// Warm-up + one timed round on each, spans and packets off: only the
	// two walls are compared.
	exec, err := runRounds(e, nil, withExec, 1, w.pushClosed(e, nil, withExec, plans, 0))
	if err != nil {
		return err
	}
	bare, err := runRounds(e, nil, tb, 1, twin.pushClosed(e, nil, tb, plans, 0))
	if err != nil {
		return err
	}
	e.set("dpexec.rebuild_share", 1-share(bare.walls[0], exec.walls[0]))
	return nil
}

// packetLayers fills the packet-path metrics every workload reports
// from the packet parts of its timed rounds; quiet are packet parts
// without a concurrent writer — the same ones on the workloads that have
// none. The two medians are the quietest part's, like pkt_ns_p50; the
// rest are medians over the rounds.
func packetLayers(e *env, m *measured, quiet []pktStats) {
	col := func(ps []pktStats, f func(pktStats) float64) []float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return xs
	}
	p50 := func(p pktStats) float64 { return p.p50 }
	quietP50 := best(col(quiet, p50), "lower")
	e.setQ("dpexec.quiet_pkt_ns_p50", quietP50, len(quiet))
	e.set("dpexec.churn_penalty", share(best(col(m.pkt, p50), "lower"), quietP50))
	e.setQ("dpexec.pkt_ns_p99", median(col(m.pkt, func(p pktStats) float64 { return p.p99 })), len(m.pkt))
	e.set("dpexec.pkt_per_s", median(col(m.pkt, func(p pktStats) float64 { return p.perSec })))
	e.set("dpexec.allocs_per_pkt", median(col(m.pkt, func(p pktStats) float64 { return p.allocs })))
	e.set("dpexec.swaps_seen", float64(m.swaps))
}

// zeroFleetLayers reports the fleet's wire metrics as zero: the
// in-process workloads cross no wire.
func zeroFleetLayers(e *env) {
	for _, m := range perLayer {
		switch layerOf(m.Name) {
		case "binproto", "wire", "client", "cluster", "server":
			e.set(m.Name, 0)
		}
	}
	e.set("bench.budget_residual_share", 0)
}

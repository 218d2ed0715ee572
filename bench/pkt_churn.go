package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	goflay "repro"
	"repro/internal/controlplane"
	"repro/internal/fuzz"
	"repro/internal/progs"
)

// pkt_churn sizes at scale 1.0 (-seconds 20).
const (
	natPreloaded = 500 // forward sessions in the baseline (ids 0..499)
	// The open-loop writer pushes one 4-update batch every 20 ms: 200
	// updates/s, fixed, so that a faster update path cannot slow packets
	// by publishing more epochs.
	pktChurnBatch  = 4
	pktChurnPeriod = 20 * time.Millisecond
	// One round is one diurnal stream (256 updates) plus its drain, 70
	// calls, 1.4 s; 15 timed rounds = 1050 write samples.
	pktChurnRounds = 15
	// The -trace run's quiet phase: 16 parts of 1024 chunks, 4 M packets
	// without a writer.
	quietParts  = 16
	quietChunks = 16 * pktWindow
	// natSetupBuilds: a nat44 cold build with 500 sessions takes 15 ms.
	natSetupBuilds = 36
)

// natPreload is the nat44 workloads' preload: forward sessions up to
// natPreloaded (the representative configuration already holds 0..3).
func natPreload() []*controlplane.Update {
	var preload []*controlplane.Update
	for i := 4; i < natPreloaded; i++ {
		preload = append(preload, progs.Nat44SessionEntry(i))
	}
	return preload
}

// rechunk cuts a stream into calls of n updates (the last may be short).
func rechunk(updates []*controlplane.Update, n int) []call {
	var out []call
	for len(updates) > n {
		out = append(out, updates[:n])
		updates = updates[n:]
	}
	if len(updates) > 0 {
		out = append(out, updates)
	}
	return out
}

// pktChurnPlans builds rounds+1 plans: each the diurnal stream of its
// own seed on the session table, then its drain, both re-chunked into
// 4-update batches.
func pktChurnPlans(w *world, seed uint64, rounds int) ([]*roundPlan, error) {
	plans := make([]*roundPlan, rounds+1)
	for r := range plans {
		cs, err := fuzz.Churn(w.an, fuzz.ChurnSpec{
			Kind: fuzz.Diurnal, Table: w.prog.BurstTable, Updates: churnPatternUpdates,
			Seed: streamSeed(seed, r, fuzz.Diurnal),
		})
		if err != nil {
			return nil, err
		}
		p := &roundPlan{calls: rechunk(cs.Updates, pktChurnBatch)}
		p.marks = []mark{{after: len(p.calls) - 1, cs: cs}}
		p.calls = append(p.calls, rechunk(cs.Drain(), pktChurnBatch)...)
		plans[r] = p
	}
	return plans, nil
}

// traffic is the packet goroutine of one open-loop round: ExecBatch on
// 256-frame chunks starting at chunk next, one clock pair per chunk,
// until stop is set. It fills the round's packet part.
func (w *world) traffic(rec *recorder, parent int, pipe *goflay.Pipeline, next int, stop *atomic.Bool, rd *round) (problem string) {
	epoch := pipe.Epoch()
	mem0 := readMem()
	t0 := time.Now()
	for i := next; !stop.Load(); i++ {
		frames, ports := w.frames.chunkAt(i)
		sp := rec.begin("dpexec.ExecBatch", parent)
		c0 := time.Now()
		res, err := pipe.ExecBatch(frames, ports)
		d := time.Since(c0)
		rec.end(sp)
		if err != nil || len(res) != len(frames) {
			return fmt.Sprintf("packet chunk %d: %d results, err %v", i, len(res), err)
		}
		rd.chunks = append(rd.chunks, d)
		if now := pipe.Epoch(); now != epoch {
			epoch = now
			rd.swaps++
		}
	}
	rd.pktWall = time.Since(t0)
	rd.mallocs = readMem().mallocs - mem0.mallocs // the writer's too
	return ""
}

// pushOpen is the open-loop round. Every call is due at start + i·period
// whether or not the previous one has returned; its time is counted
// from when it was due, so a stall is charged to every call it delays.
// The traffic goroutine runs for exactly the span of the round's write
// calls, so the gates and the collection between rounds see a quiescent
// engine.
func (w *world) pushOpen(e *env, rec *recorder, b *built, plans []*roundPlan, period time.Duration) func(r, parent int, rd *round) {
	ctx := context.Background()
	nextChunk := 0
	return func(r, parent int, rd *round) {
		p := plans[r]
		rd.updates = p.updates()
		var stop atomic.Bool
		var problem string
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			problem = w.traffic(rec, parent, b.pipe, nextChunk, &stop, rd)
		}()

		start := time.Now()
		mi := 0
		for ci, c := range p.calls {
			due := start.Add(time.Duration(ci) * period)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			sp := rec.begin(p.span(), parent)
			began := time.Now()
			ds := p.apply(ctx, b.pipe, c)
			end := time.Now()
			rec.end(sp)
			rd.lat = append(rd.lat, end.Sub(due))
			rd.late = append(rd.late, ms(began.Sub(due)))
			mi = p.checkCall(e, b, r, ci, ds, mi)
		}
		rd.wall = time.Since(start)
		stop.Store(true)
		wg.Wait()

		e.attempted += len(rd.chunks)
		if problem != "" {
			e.gate("round %d: %s", r, problem)
		}
		nextChunk += len(rd.chunks)
	}
}

func runPktChurn(e *env) error {
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		return fmt.Errorf("pkt_churn needs one core per thread: NumCPU=%d GOMAXPROCS=%d, want >= 2",
			runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	workers := goflay.WithWorkers(1)
	w, err := newWorld(e, "nat44", 0, natPreload(), goflay.WithExec(), workers)
	if err != nil {
		return err
	}
	plans, err := pktChurnPlans(w, e.seed, scaled(pktChurnRounds, e.scale, 1))
	if err != nil {
		return err
	}
	b, err := w.setup(e, natSetupBuilds)
	if err != nil {
		return err
	}
	defer b.pipe.Close()
	if e.traced() {
		plans = plans[:1+len(plans)/2]
	}

	w.diffGate(e, b.pipe, "before")
	m, err := runRounds(e, nil, b, len(plans)-1, w.pushOpen(e, nil, b, plans, pktChurnPeriod))
	if err != nil {
		return err
	}
	report(e, m)
	engineCounters(e, m)

	w.diffGate(e, b.pipe, "after")
	finalGates(e, b.pipe)
	if err := specQuality(e, b.pipe); err != nil {
		return err
	}
	e.set("heap_live_mb", heapLiveMB())
	runtime.KeepAlive(w)

	if !e.traced() {
		return nil
	}
	// Traced half: the same open loop on an instrumented state.
	tb, err := w.buildTraced(e.rec)
	if err != nil {
		return err
	}
	defer tb.pipe.Close()
	tm, err := runRounds(e, e.rec, tb, len(plans)-1, w.pushOpen(e, e.rec, tb, plans, pktChurnPeriod))
	if err != nil {
		return err
	}
	engineCounters(e, tm)
	// The offered rate is fixed, so the overhead shows in the call time.
	e.set("bench.trace_overhead_share", share(median(flatten(tm.lat)), median(flatten(m.lat)))-1)
	e.set("bench.writer_late_ms_p95", quantile(tm.late, 0.95))

	// The quiet phase: the same traffic without a writer.
	quiet := make([]pktStats, scaled(quietParts, e.scale, 1))
	rd := &round{}
	for i := range quiet {
		rd.reset()
		w.packetPart(e, e.rec, 0, tb.pipe, i*quietChunks, quietChunks, rd)
		quiet[i] = rd.packets()
	}
	packetLayers(e, tm, quiet)
	if err := probeSnapshot(e, tb.pipe, w.opts); err != nil {
		return err
	}
	if err := w.probeLayers(e, tb.pipe, plans[1].calls[0][0]); err != nil {
		return err
	}
	if err := w.probeRebuild(e, tb, []goflay.Option{workers}, plans); err != nil {
		return err
	}
	zeroFleetLayers(e)
	finalGates(e, tb.pipe)
	return nil
}

package main

import (
	"runtime"

	goflay "repro"
	"repro/internal/controlplane"
	"repro/internal/fuzz"
	"repro/internal/progs"
)

// Sizes at scale 1.0 (-seconds 20). They are operation counts, never
// time windows; the scale multiplies the round counts only.
const (
	// packetChunks is a round's packet part on the closed-loop workloads:
	// seven packet samples; nine rounds make 4032 chunks, 1.0 M packets.
	packetChunks = 7 * pktWindow

	churnRounds         = 9   // x 116 calls >= 1000 write samples
	churnPatternUpdates = 256 // per fuzz.Churn pattern, four patterns a round
	churnSetupBuilds    = 1   // a scion cold build takes 0.8 s

	aclRounds      = 10  // x 200 single updates
	aclPreloaded   = 150 // ACL entries in the baseline (ids 0..149)
	aclPerRound    = 100 // inserted (ids 150..249), then deleted in reverse
	aclSetupBuilds = 6   // a middleblock cold build takes 0.1 s
)

// runClosed is the flow the two closed-loop in-process workloads share:
// set-up, differential gate, warm-up + timed rounds (each its write
// calls, then its slice of packets), gates, live heap — and, in the
// -trace run, the same rounds again on an instrumented state plus the
// layer probes.
func (w *world) runClosed(e *env, plans []*roundPlan, setupBuilds int, twinOpts []goflay.Option) error {
	b, err := w.setup(e, setupBuilds)
	if err != nil {
		return err
	}
	defer b.pipe.Close()
	if e.traced() {
		// The traced run splits its rounds between a plain and an
		// instrumented state; the difference is the tracing overhead.
		plans = plans[:1+(len(plans))/2]
	}

	w.diffGate(e, b.pipe, "before")
	m, err := runRounds(e, nil, b, len(plans)-1, w.pushClosed(e, nil, b, plans, packetChunks))
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
	tb, err := w.tracedHalf(e, m, plans)
	if err != nil {
		return err
	}
	defer tb.pipe.Close()
	packetLayers(e, m, m.pkt)
	if err := probeSnapshot(e, tb.pipe, w.opts); err != nil {
		return err
	}
	if err := w.probeLayers(e, tb.pipe, plans[1].calls[0][0]); err != nil {
		return err
	}
	if err := w.probeRebuild(e, tb, twinOpts, plans); err != nil {
		return err
	}
	zeroFleetLayers(e)
	e.set("bench.writer_late_ms_p95", 0)
	finalGates(e, tb.pipe)
	return nil
}

// streamSeed derives the seed of one churn stream from the run's seed,
// the round and the pattern, so a run covers many streams and the same
// -seed always replays the same ones. fuzz.Churn treats 0 as "default",
// hence the +1.
func streamSeed(seed uint64, round int, kind fuzz.PatternKind) uint64 {
	return seed*1_000_003 + uint64(round)*16 + uint64(kind) + 1
}

// churnPlans builds rounds+1 plans (the first is the warm-up) of the
// four fuzz.Churn patterns on the burst table, each pushed as its
// controller-shaped batches and followed by its drain, so every round
// ends in the baseline configuration.
func churnPlans(w *world, seed uint64, rounds, updates int) ([]*roundPlan, error) {
	plans := make([]*roundPlan, rounds+1)
	for r := range plans {
		p := &roundPlan{}
		for _, kind := range fuzz.PatternKinds() {
			cs, err := fuzz.Churn(w.an, fuzz.ChurnSpec{
				Kind: kind, Table: w.prog.BurstTable, Updates: updates, Seed: streamSeed(seed, r, kind),
			})
			if err != nil {
				return nil, err
			}
			for _, batch := range cs.Batches() {
				p.calls = append(p.calls, batch)
			}
			p.marks = append(p.marks, mark{after: len(p.calls) - 1, cs: cs})
			if drain := cs.Drain(); len(drain) > 0 {
				p.calls = append(p.calls, drain)
			}
		}
		plans[r] = p
	}
	return plans, nil
}

func runChurnBatch(e *env) error {
	workers := goflay.WithWorkers(2)
	w, err := newWorld(e, "scion", 0, nil, goflay.WithExec(), workers)
	if err != nil {
		return err
	}
	plans, err := churnPlans(w, e.seed, scaled(churnRounds, e.scale, 1), churnPatternUpdates)
	if err != nil {
		return err
	}
	return w.runClosed(e, plans, churnSetupBuilds, []goflay.Option{workers})
}

// aclUpdate is the i-th Pre-Ingress ACL entry as an insert or a delete.
func aclUpdate(i int, kind controlplane.UpdateKind) *controlplane.Update {
	u := progs.MiddleblockACLEntry(i)
	u.Kind = kind
	return u
}

func runACLPrecise(e *env) error {
	// The representative configuration already holds ACL entries 0..3.
	var preload []*controlplane.Update
	for i := 4; i < aclPreloaded; i++ {
		preload = append(preload, aclUpdate(i, controlplane.InsertEntry))
	}
	precise := goflay.WithOverapproxThreshold(-1)
	w, err := newWorld(e, "middleblock", -1, preload, goflay.WithExec(), precise)
	if err != nil {
		return err
	}
	// Every round is the same plan: the ACL ids do not depend on -seed
	// (only the frames do), each update is its own ApplyCtx call.
	p := &roundPlan{single: true}
	for i := aclPreloaded; i < aclPreloaded+aclPerRound; i++ {
		p.calls = append(p.calls, call{aclUpdate(i, controlplane.InsertEntry)})
	}
	for i := aclPreloaded + aclPerRound - 1; i >= aclPreloaded; i-- {
		p.calls = append(p.calls, call{aclUpdate(i, controlplane.DeleteEntry)})
	}
	plans := make([]*roundPlan, scaled(aclRounds, e.scale, 1)+1)
	for r := range plans {
		plans[r] = p
	}
	return w.runClosed(e, plans, aclSetupBuilds, []goflay.Option{precise})
}

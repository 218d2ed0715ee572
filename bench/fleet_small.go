package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	goflay "repro"
	"repro/internal/bmv2"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/progs"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/wire/binproto"
)

// fleet_small sizes at scale 1.0 (-seconds 20). All traffic is loopback
// TCP inside one process.
const (
	fleetConns  = 2   // BinClient connections, one write session each
	fleetRounds = 16  // timed rounds
	fleetCalls  = 500 // write calls per connection per round
	fleetBatch  = 8   // updates per call: 4 inserts + 4 deletes
	// fleetExecReqs is a round's packet part: four packet samples of 64
	// /exec requests; 16 rounds make 4096 requests, 1.0 M packets.
	fleetExecReqs  = 4 * pktWindow
	fleetStatReads = 2000
	fleetPings     = 2000
	// fleetFirstID keeps the churned session ids clear of the preload.
	fleetFirstID = 1_000_000
	// fleetSetupBuilds: a fleet cold build takes 75 ms.
	fleetSetupBuilds = 8
)

// fleetShard is one shard: an active server and its ship-before-ack
// standby.
type fleetShard struct {
	cfg        cluster.ShardConfig
	active     *server.Server
	standby    *server.Server
	standbyURL string
}

// fleet is one cold build of the fleet_small state: front door, two
// shards with standbys, two attached write sessions and one exec
// session, all preloaded.
type fleet struct {
	front    *cluster.Front
	frontURL string
	shards   []*fleetShard
	conns    []*client.BinClient
	names    []string // write session per connection
	owner    []int    // shard index owning each write session
	execName string
	http     *client.Client // through the front's HTTP side
	exec     *client.Client // straight to the shard owning the exec session

	up, attach, preload time.Duration
	// baseline is the session table's entry count after preload.
	baseline int

	serving sync.WaitGroup
	closers []func()
}

// listen opens a loopback listener the fleet closes on teardown.
func (f *fleet) listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		f.closers = append(f.closers, func() { ln.Close() })
	}
	return ln, err
}

// serveHTTP serves h on a fresh loopback listener and returns its URL.
func (f *fleet) serveHTTP(h http.Handler) (string, error) {
	ln, err := f.listen()
	if err != nil {
		return "", err
	}
	web := &http.Server{Handler: h}
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = web.Serve(ln) // returns when close() closes the server
	}()
	f.closers = append(f.closers, func() { web.Close() })
	return "http://" + ln.Addr().String(), nil
}

// serveBin runs a binary-protocol accept loop until its listener closes.
func (f *fleet) serveBin(serve func(net.Listener) error) (string, error) {
	ln, err := f.listen()
	if err != nil {
		return "", err
	}
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = serve(ln) // returns when close() closes the listener
	}()
	return ln.Addr().String(), nil
}

// close tears the fleet down and waits for every accept loop to end.
func (f *fleet) close() {
	for _, c := range f.conns {
		c.Close()
	}
	if f.front != nil {
		f.front.Close()
	}
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
	for _, sh := range f.shards {
		_ = sh.active.Shutdown()  // no snapshot dir: nothing to persist
		_ = sh.standby.Shutdown() // likewise
	}
	f.serving.Wait()
}

// buildFleet is one cold build: servers and standbys up, front routing,
// sessions attached (each base-shipped to its standby on create) and
// preloaded through the write path (shipped as a round).
func buildFleet(rec *recorder, baseline []*controlplane.Update, sessionTable string) (f *fleet, err error) {
	root := rec.begin("bench.build", 0)
	defer rec.end(root)
	f = &fleet{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()

	sp := rec.begin("server.New", root)
	t0 := time.Now()
	f.front = cluster.New(cluster.Config{})
	for i := 0; i < 2; i++ {
		sh := &fleetShard{}
		if sh.standby, err = server.New(server.Config{Standby: true}); err != nil {
			return nil, err
		}
		if sh.standbyURL, err = f.serveHTTP(sh.standby); err != nil {
			return nil, err
		}
		if sh.active, err = server.New(server.Config{ReplicateTo: sh.standbyURL}); err != nil {
			return nil, err
		}
		sh.cfg = cluster.ShardConfig{Name: fmt.Sprintf("shard-%d", i), StandbyAddr: sh.standbyURL}
		if sh.cfg.Addr, err = f.serveHTTP(sh.active); err != nil {
			return nil, err
		}
		if sh.cfg.BinAddr, err = f.serveBin(sh.active.ServeBin); err != nil {
			return nil, err
		}
		if err = f.front.AddShard(sh.cfg); err != nil {
			return nil, err
		}
		f.shards = append(f.shards, sh)
	}
	if f.frontURL, err = f.serveHTTP(f.front); err != nil {
		return nil, err
	}
	frontBin, err := f.serveBin(f.front.ServeBin)
	if err != nil {
		return nil, err
	}
	f.up = time.Since(t0)
	rec.end(sp)

	// One write session per shard: the first names the ring places on
	// distinct shards (the ring is deterministic).
	f.http = client.New(f.frontURL)
	taken := map[string]bool{}
	for i := 0; len(f.names) < fleetConns && i < 1000; i++ {
		name := fmt.Sprintf("fleet-w%d", i)
		addr, _ := f.front.Route(name)
		if !taken[addr] {
			taken[addr] = true
			f.names = append(f.names, name)
			for si, sh := range f.shards {
				if sh.cfg.Addr == addr {
					f.owner = append(f.owner, si)
				}
			}
		}
	}
	if len(f.names) < fleetConns || len(f.owner) < fleetConns {
		return nil, fmt.Errorf("ring did not spread %d sessions over the shards", fleetConns)
	}
	f.execName = "fleet-exec"
	execAddr, _ := f.front.Route(f.execName)
	f.exec = client.New(execAddr)

	sp = rec.begin("client.Attach", root)
	t0 = time.Now()
	for _, name := range f.names {
		c, err := client.DialBin(frontBin)
		if err != nil {
			return nil, err
		}
		f.conns = append(f.conns, c)
		if _, err := c.Attach(name, "nat44", false); err != nil {
			return nil, fmt.Errorf("attach %s: %w", name, err)
		}
	}
	if _, err := f.http.CreateSession(wire.CreateSessionRequest{Name: f.execName, Catalog: "nat44", Exec: true}); err != nil {
		return nil, fmt.Errorf("create %s: %w", f.execName, err)
	}
	f.attach = time.Since(t0)
	rec.end(sp)

	sp = rec.begin("client.Write(preload)", root)
	t0 = time.Now()
	for _, c := range f.conns {
		resp, err := c.Write(baseline, true)
		if err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		if n := countRejected(resp.Decisions); n > 0 || len(resp.Decisions) != len(baseline) {
			return nil, fmt.Errorf("preload: %d of %d decisions rejected", n, len(resp.Decisions))
		}
	}
	resp, err := f.http.Write(f.execName, wire.ModeBatch, baseline)
	if err != nil {
		return nil, fmt.Errorf("preload %s: %w", f.execName, err)
	}
	if n := countRejected(resp.Decisions); n > 0 {
		return nil, fmt.Errorf("preload %s: %d decisions rejected", f.execName, n)
	}
	f.preload = time.Since(t0)
	rec.end(sp)

	info, err := f.http.Session(f.names[0])
	if err != nil {
		return nil, err
	}
	f.baseline = info.Entries[sessionTable]
	return f, nil
}

func (f *fleet) total() time.Duration { return f.up + f.attach + f.preload }

func countRejected(ds []wire.Decision) int {
	n := 0
	for _, d := range ds {
		if d.Kind == "rejected" {
			n++
		}
	}
	return n
}

// fleetCall is the k-th write call of one connection: four fresh
// session inserts and their four deletes, so the table is unchanged
// after every call and every decision is a forward.
func fleetCall(conn, k int) call {
	c := make(call, 0, fleetBatch)
	base := fleetFirstID + conn*100_000_000 + k*fleetBatch/2
	for j := 0; j < fleetBatch/2; j++ {
		c = append(c, progs.Nat44SessionEntry(base+j))
	}
	for j := 0; j < fleetBatch/2; j++ {
		u := progs.Nat44SessionEntry(base + j)
		u.Kind = controlplane.DeleteEntry
		c = append(c, u)
	}
	return c
}

// fleetStats sums the engine statistics of the write sessions into the
// facade's Stats shape (the fields the wire carries).
func (f *fleet) fleetStats() (goflay.Stats, error) {
	var sum goflay.Stats
	for _, c := range f.conns {
		ws, err := c.Stats()
		if err != nil {
			return sum, err
		}
		sum.Updates += ws.Updates
		sum.Forwarded += ws.Forwarded
		sum.Rejected += ws.Rejected
		sum.Coalesced += ws.Coalesced
		sum.UpdateTime += time.Duration(ws.UpdateNS)
		sum.EvalTime += time.Duration(ws.EvalNS)
		sum.CacheHits += ws.CacheHits
		sum.CacheMisses += ws.CacheMisses
		sum.DDQueries += ws.DDQueries
		sum.DDFallbacks += ws.DDFallbacks
		sum.DDCompiles += ws.DDCompiles
		sum.DDNodes += ws.DDNodes
		sum.UnsoundDegraded += ws.UnsoundDegraded
	}
	return sum, nil
}

// shardMetrics reads every shard's /metrics and sums them.
func (f *fleet) shardMetrics() (goflay.MetricsSnapshot, error) {
	sum := goflay.MetricsSnapshot{Counters: map[string]int64{}, Histograms: map[string]goflay.HistogramSnapshot{}}
	for _, sh := range f.shards {
		snap, err := client.New(sh.cfg.Addr).Metrics()
		if err != nil {
			return sum, err
		}
		for k, v := range snap.Counters {
			sum.Counters[k] += v
		}
		for k, h := range snap.Histograms {
			s := sum.Histograms[k]
			s.Count += h.Count
			s.Sum += h.Sum
			sum.Histograms[k] = s
		}
	}
	return sum, nil
}

func (f *fleet) stats() (goflay.Stats, error) { return f.fleetStats() }

func (f *fleet) registry() (goflay.MetricsSnapshot, error) { return f.shardMetrics() }

// offBaseline: every write session's table must be back at its baseline.
func (f *fleet) offBaseline() []string {
	var off []string
	table := layouts["nat44"].table
	for _, name := range f.names {
		info, err := f.http.Session(name)
		if err != nil {
			off = append(off, fmt.Sprintf("session %s: %v", name, err))
		} else if n := info.Entries[table]; n != f.baseline {
			off = append(off, fmt.Sprintf("%s/%s holds %d entries, baseline %d", name, table, n, f.baseline))
		}
	}
	return off
}

// pushFleet is the fleet's closed-loop round: every connection pushes
// its calls back to back from its own goroutine, the write part ends
// when both are through, then the round's /exec requests follow.
// firstCall keeps the session ids of successive phases apart.
func (f *fleet) pushFleet(e *env, rec *recorder, w *world, calls, firstCall, execReqs int) func(r, parent int, rd *round) {
	per := make([][]time.Duration, len(f.conns))
	for i := range per {
		per[i] = make([]time.Duration, 0, calls)
	}
	return func(r, parent int, rd *round) {
		rd.updates = calls * len(f.conns) * fleetBatch
		problems := make([]string, len(f.conns))
		var wg sync.WaitGroup
		t0 := time.Now()
		for ci, c := range f.conns {
			wg.Add(1)
			go func(ci int, c *client.BinClient) {
				defer wg.Done()
				per[ci] = per[ci][:0]
				for k := 0; k < calls; k++ {
					batch := fleetCall(ci, firstCall+r*calls+k)
					sp := rec.begin("client.Write", parent)
					c0 := time.Now()
					resp, err := c.Write(batch, true)
					d := time.Since(c0)
					rec.end(sp)
					per[ci] = append(per[ci], d)
					if err != nil || len(resp.Decisions) != len(batch) || countRejected(resp.Decisions) > 0 {
						problems[ci] = fmt.Sprintf("conn %d call %d: %d decisions, %d rejected, err %v",
							ci, k, len(resp.Decisions), countRejected(resp.Decisions), err)
						return
					}
				}
			}(ci, c)
		}
		wg.Wait()
		rd.wall = time.Since(t0)
		e.attempted += calls * len(f.conns)
		for ci, p := range problems {
			if p != "" {
				e.gate("round %d: %s", r, p)
			}
			rd.lat = append(rd.lat, per[ci]...)
		}
		f.execPart(e, rec, parent, w, r*execReqs, execReqs, rd)
	}
}

// replicaGate: each session's acknowledged update count equals the
// primary's and the standby's Stats.Updates — no acknowledged write is
// missing from the standby, none was applied twice.
func (f *fleet) replicaGate(e *env, acked int) {
	for i, name := range f.names {
		primary, err := f.conns[i].Stats()
		if err != nil {
			e.gate("replica: primary stats of %s: %v", name, err)
			continue
		}
		standby, err := client.New(f.shards[f.owner[i]].standbyURL).Stats(name)
		if err != nil {
			e.gate("replica: standby stats of %s: %v", name, err)
			continue
		}
		if primary.Updates != acked || standby.Updates != acked {
			e.gate("replica: %s acknowledged %d updates, primary decided %d, standby %d",
				name, acked, primary.Updates, standby.Updates)
		}
		if primary.UnsoundDegraded != 0 {
			e.gate("replica: %s UnsoundDegraded = %d", name, primary.UnsoundDegraded)
		}
	}
}

// execResult turns a wire result back into the executor's shape.
func execResult(r wire.ExecResult) (goflay.ExecResult, error) {
	out := goflay.ExecResult{Dropped: r.Dropped, ParserRejected: r.ParserRejected, EgressPort: r.EgressPort, McastGrp: r.McastGrp}
	if r.Emitted != nil {
		data, err := wire.ToPacket(*r.Emitted)
		if err != nil {
			return out, err
		}
		out.Emitted = data
	}
	return out, nil
}

// diffGate is the packet-differential gate over the wire: 512 sampled
// frames, two /exec requests, against bmv2.
func (f *fleet) diffGate(e *env, w *world, when string) {
	frames, ports := w.frames.sample(512)
	ref := bmv2.New(w.ast, w.info, w.cfg)
	bad := 0
	for lo := 0; lo < len(frames); lo += chunk {
		resp, err := f.exec.ExecBytes(f.execName, frames[lo:lo+chunk], ports[lo:lo+chunk])
		e.attempted++
		if err != nil || len(resp.Results) != chunk {
			e.gate("differential %s: /exec: %d results, err %v", when, len(resp.Results), err)
			return
		}
		for i, r := range resp.Results {
			got, err := execResult(r)
			want, werr := ref.Run(bmv2.Packet{Data: frames[lo+i], IngressPort: ports[lo+i]})
			if err != nil || werr != nil || !got.Equal(goflay.ExecResult{
				Dropped: want.Dropped, EgressPort: want.EgressPort, McastGrp: want.McastGrp, Emitted: want.Emitted,
			}) {
				bad++
			}
		}
	}
	if bad > 0 {
		e.gate("differential %s: %d of %d frames differ from bmv2", when, bad, len(frames))
	}
}

// execPart is a round's packet part over the wire: one /exec request of
// 256 frames per chunk, JSON both ways, to the HTTP side of the shard
// that owns the exec session. A request that fails is a failed
// operation; nothing is repeated.
func (f *fleet) execPart(e *env, rec *recorder, parent int, w *world, first, n int, rd *round) {
	mem0 := readMem()
	sp := rec.begin("bench.packets", parent)
	t0 := time.Now()
	for i := first; i < first+n; i++ {
		frames, ports := w.frames.chunkAt(i)
		csp := rec.begin("client.ExecBytes", sp)
		c0 := time.Now()
		resp, err := f.exec.ExecBytes(f.execName, frames, ports)
		d := time.Since(c0)
		rec.end(csp)
		e.attempted++
		if err != nil || len(resp.Results) != len(frames) {
			e.gate("exec request %d: %d results, err %v", i, len(resp.Results), err)
			continue
		}
		rd.chunks = append(rd.chunks, d)
	}
	rd.pktWall = time.Since(t0)
	rec.end(sp)
	rd.mallocs = readMem().mallocs - mem0.mallocs
}

func runFleetSmall(e *env) error {
	// The harness-side nat44 world supplies the baseline, the frames and
	// the reference interpreter; the fleet itself only sees updates and
	// frames over its wires.
	w, err := newWorld(e, "nat44", 0, natPreload(), goflay.WithExec())
	if err != nil {
		return err
	}
	baseline := w.baseline()

	var f *fleet
	err = measureSetup(e, fleetSetupBuilds, func() (d time.Duration, err error) {
		if f, err = buildFleet(e.rec, baseline, w.lay.table); err != nil {
			return 0, err
		}
		return f.total(), nil
	}, func() { f.close() })
	if err != nil {
		return err
	}
	defer f.close()

	rounds := scaled(fleetRounds, e.scale, 1)
	if e.traced() {
		rounds = (rounds + 1) / 2
	}
	f.diffGate(e, w, "before")
	m, err := runRounds(e, nil, f, rounds, f.pushFleet(e, nil, w, fleetCalls, 0, fleetExecReqs))
	if err != nil {
		return err
	}
	report(e, m)
	engineCounters(e, m)
	f.diffGate(e, w, "after")
	acked := len(baseline) + (rounds+1)*fleetCalls*fleetBatch
	if !e.traced() {
		f.replicaGate(e, acked)
	}
	e.set("heap_live_mb", heapLiveMB())
	runtime.KeepAlive(w)

	// The end state of a write session, restored locally: its
	// specialization quality is a pure count, printed by both runs.
	data, err := f.conns[0].Snapshot()
	if err != nil {
		return err
	}
	restored, err := goflay.Restore(data)
	if err != nil {
		return fmt.Errorf("restoring the session snapshot: %w", err)
	}
	defer restored.Close()
	if err := specQuality(e, restored); err != nil {
		return err
	}
	if !e.traced() {
		return nil
	}
	return f.traceLayers(e, w, m, restored, rounds, acked)
}

// traceLayers is the -trace run's second half on the fleet: the same
// rounds with every client call inside a span, the server-side budget
// from the shards' /metrics, and the wire probes.
func (f *fleet) traceLayers(e *env, w *world, plain *measured, restored *goflay.Pipeline, rounds, acked int) error {
	tm, err := runRounds(e, e.rec, f, rounds, f.pushFleet(e, e.rec, w, fleetCalls, (rounds+1)*fleetCalls, fleetExecReqs))
	if err != nil {
		return err
	}
	f.replicaGate(e, acked+(rounds+1)*fleetCalls*fleetBatch)
	engineCounters(e, tm)
	e.set("bench.trace_overhead_share", 1-share(median(tm.rates), median(plain.rates)))
	e.set("bench.writer_late_ms_p95", 0)
	e.set("dpexec.rebuild_share", 0) // the write sessions carry no executor

	// Set-up stages as the fleet's client saw them, and the engine's own
	// stage times over the wire.
	ws, err := f.conns[0].Stats()
	if err != nil {
		return err
	}
	e.set("dataplane.analyze_ms", float64(ws.AnalysisNS)/1e6)
	e.set("core.preprocess_ms", float64(ws.PreprocessNS)/1e6)
	e.set("core.representative_ms", 0) // shipped inside the preload batch
	e.set("core.preload_ms", ms(f.preload))
	if err := probeSnapshot(e, restored, nil); err != nil {
		return err
	}

	// Server-side budget of one write, from the shards' /metrics.
	hist := func(name string) (sum, count float64) {
		h0, h1 := tm.reg0.Histograms[name], tm.reg1.Histograms[name]
		return float64(h1.Sum - h0.Sum), float64(h1.Count - h0.Count)
	}
	ctr := func(name string) float64 { return float64(tm.reg1.Counters[name] - tm.reg0.Counters[name]) }
	writeNS, writes := hist("server.write_ns")
	applyNS, _ := hist("server.apply_ns")
	shipNS, _ := hist("server.ship_ns")
	e.set("server.apply_share", share(applyNS, writeNS))
	e.set("server.ship_share", share(shipNS, writeNS))
	e.set("server.queue_wait_us", share(writeNS-applyNS-shipNS, writes)/1e3)
	e.set("server.coalesced_share", share(ctr("server.coalesced_requests"), ctr("server.write_requests")))
	e.set("server.queue_full", ctr("server.queue_full"))
	e.set("server.ship_errors", ctr("server.ship_errors"))
	e.set("server.ship_gaps", ctr("server.ship_gaps"))

	// Codecs of one 8-update write, request and response, both wires.
	codecUS, err := probeCodecs(e)
	if err != nil {
		return err
	}

	// Front door: a ping through the front's splice against a ping
	// straight to the owning shard.
	direct, err := client.DialBin(f.shards[f.owner[0]].cfg.BinAddr)
	if err != nil {
		return err
	}
	defer direct.Close()
	if _, err := direct.Attach(f.names[0], "", false); err != nil {
		return err
	}
	pings := scaled(fleetPings, e.scale, 16)
	viaFront, err := medianSpan(e.rec, "cluster.splice(Ping)", pings, f.conns[0].Ping)
	if err != nil {
		return err
	}
	straight, err := medianSpan(e.rec, "client.Ping", pings, direct.Ping)
	if err != nil {
		return err
	}
	e.set("client.ping_us", us(viaFront))
	e.set("cluster.front_overhead_us", us(viaFront-straight))

	// What the client saw of one write, against what the stages above
	// account for.
	seen := mean(flatten(tm.lat)) * 1e3 // us
	covered := codecUS + us(viaFront-straight) + share(writeNS, writes)/1e3
	e.set("bench.budget_residual_share", 1-share(covered, seen))

	// Packets: the same chunks on a local executor give the share of an
	// /exec request that is JSON and HTTP.
	packetLayers(e, tm, tm.pkt)
	overWire := e.metrics["dpexec.quiet_pkt_ns_p50"]
	e.setQ("server.exec_req_us", overWire*chunk/1e3, len(tm.pkt))
	local, err := w.build(e.rec)
	if err != nil {
		return err
	}
	defer local.pipe.Close()
	rd := &round{}
	w.packetPart(e, e.rec, 0, local.pipe, 0, fleetExecReqs, rd)
	e.set("wire.exec_codec_share", 1-share(rd.packets().p50, overWire))
	if err := w.probeLayers(e, local.pipe, fleetCall(0, 0)[0]); err != nil {
		return err
	}

	reads, i := scaled(fleetStatReads, e.scale, 16), 0
	read, err := medianSpan(e.rec, "client.Stats", reads, func() error {
		i++
		_, err := f.http.Stats(f.names[i%len(f.names)])
		return err
	})
	if err != nil {
		return err
	}
	e.attempted += reads
	e.setQ("server.read_p50_us", us(read), reads)
	return nil
}

// probeCodecs times both wires' codecs on one 8-update write and its
// 8-decision response; it returns the binary wire's four legs summed
// (what one BinClient.Write pays in codecs, in us).
func probeCodecs(e *env) (float64, error) {
	c := fleetCall(0, 0)
	loop := func(name string, fn func() error) (float64, error) {
		var ferr error
		sp := e.rec.begin(name, 0)
		d := medianLoop(probeReps, 200, func(int) {
			if err := fn(); err != nil {
				ferr = err
			}
		})
		e.rec.end(sp)
		return us(d), ferr
	}

	req := &binproto.Write{Batch: true, Updates: c}
	payload := binproto.AppendWrite(nil, req)
	binEnc, _ := loop("binproto.AppendWrite", func() error { binproto.AppendWrite(nil, req); return nil })
	binDec, err := loop("binproto.DecodeWrite", func() error { _, err := binproto.DecodeWrite(payload); return err })
	if err != nil {
		return 0, err
	}
	ok := &binproto.WriteOK{Decisions: make([]wire.Decision, len(c))}
	for i, u := range c {
		ok.Decisions[i] = wire.Decision{Kind: "forward", Target: u.Target(), Update: u.String(), AffectedPoints: 9, ElapsedNS: 50_000}
	}
	okPayload := binproto.AppendWriteOK(nil, ok)
	respEnc, _ := loop("binproto.AppendWriteOK", func() error { binproto.AppendWriteOK(nil, ok); return nil })
	respDec, err := loop("binproto.DecodeWriteOK", func() error { _, err := binproto.DecodeWriteOK(okPayload); return err })
	if err != nil {
		return 0, err
	}
	e.set("binproto.encode_us", binEnc)
	e.set("binproto.decode_us", binDec)
	e.set("binproto.bytes_per_update", float64(len(payload))/float64(len(c)))

	jreq := wire.WriteRequest{Mode: wire.ModeBatch, Updates: wire.FromUpdates(c)}
	body, err := json.Marshal(&jreq)
	if err != nil {
		return 0, err
	}
	jsonEnc, err := loop("wire.Marshal", func() error {
		_, err := json.Marshal(&wire.WriteRequest{Mode: wire.ModeBatch, Updates: wire.FromUpdates(c)})
		return err
	})
	if err != nil {
		return 0, err
	}
	jsonDec, err := loop("wire.DecodeBytes", func() error {
		var r wire.WriteRequest
		if err := wire.DecodeBytes(body, &r); err != nil {
			return err
		}
		_, err := r.ToUpdates()
		return err
	})
	if err != nil {
		return 0, err
	}
	e.set("wire.encode_us", jsonEnc)
	e.set("wire.decode_us", jsonDec)
	e.set("wire.bytes_per_update", float64(len(body))/float64(len(c)))
	return binEnc + binDec + respEnc + respDec, nil
}

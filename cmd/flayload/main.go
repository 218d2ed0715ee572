// flayload is a closed-loop load generator for flayd: it creates (or
// reuses) a session, drives a deterministic fuzz.Stream of control-plane
// updates through the HTTP API as a mix of single and batched writes,
// honors 429 backpressure with bounded retries, and reports throughput
// plus the daemon-side latency distribution (p50/p95/p99 of the
// engine's update and apply histograms) scraped from the server's
// metrics endpoint.
//
// Usage:
//
//	flayload [flags]
//
//	-addr HOST:PORT   daemon address (default 127.0.0.1:9444)
//	-session NAME     session to drive (default "load")
//	-program NAME     catalog program to load when creating it (default scion)
//	-n N              updates to send (default 1000)
//	-seed N           fuzz stream seed (default 1)
//	-batch N          updates per batched write (default 16)
//	-single-every N   send every Nth chunk as single-update writes
//	                  (0 = batches only)
//	-workers N        concurrent closed-loop writers (default 4)
//	-timeout DUR      overall run deadline (default 5m)
//	-report DUR       print interval throughput + latency snapshots
//	                  every DUR while running (0 = final report only)
//	-deadline DUR     per-write latency budget; the daemon may degrade
//	                  table precision to honor it, and flayload reports
//	                  the degradation rate alongside p50/p95/p99
//	-churn PATTERN    replay a deterministic trace-driven churn pattern
//	                  (diurnal|flapstorm|acl-rollout|gc) on the program's
//	                  churn table instead of a mixed fuzz stream; the
//	                  pattern's declared batches become the writes, the
//	                  run is forced to -workers 1 (in-order replay), and
//	                  the steady-state invariant is verified over the
//	                  wire from the session's live entry counts
//	-sessions N       swarm mode (cluster soak): create N sessions named
//	                  <session>-00000.. — through a flayfront the names
//	                  consistent-hash across the shard fleet — split -n
//	                  across them, drive each session's stream in order
//	                  from the worker pool with interleaved stats reads,
//	                  and finish with an exact per-session accounting
//	                  check (every session applied its full share, zero
//	                  rejected)
//	-read-every N     swarm mode: issue a stats read after every Nth
//	                  chunk of each session's stream (0 = writes only)
//
// The stream is generated locally against the same catalog program the
// session runs, so every update is valid for the session's evolving
// configuration when replayed in order; across concurrent workers the
// stream is dealt round-robin, which keeps inserts unique but may
// reorder dependent updates — flayd answers those with rejected
// verdicts, which flayload counts and reports rather than treating as
// failures (that is what a real controller racing itself would see).
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/controlplane"
	"repro/internal/fuzz"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "flayload: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flayload", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9444", "daemon address")
	session := fs.String("session", "load", "session name")
	program := fs.String("program", "scion", "catalog program for a fresh session")
	n := fs.Int("n", 1000, "updates to send")
	seed := fs.Uint64("seed", 1, "fuzz stream seed")
	batch := fs.Int("batch", 16, "updates per batched write")
	singleEvery := fs.Int("single-every", 4, "send every Nth chunk as single-update writes (0 = batches only)")
	workers := fs.Int("workers", 4, "concurrent closed-loop writers")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall run deadline")
	report := fs.Duration("report", 0, "interval between progress reports (0 = final report only)")
	writeDeadline := fs.Duration("deadline", 0, "per-write latency budget (0 = none); the daemon may degrade precision to honor it")
	churnPat := fs.String("churn", "", "replay a churn pattern (diurnal|flapstorm|acl-rollout|gc) instead of a mixed fuzz stream")
	sessions := fs.Int("sessions", 1, "swarm mode: drive N concurrent sessions named <session>-00000.. with -n split across them (cluster soak)")
	readEvery := fs.Int("read-every", 3, "swarm mode: issue a stats read after every Nth chunk (0 = writes only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *batch <= 0 || *workers <= 0 || *n <= 0 {
		return fmt.Errorf("-n, -batch and -workers must be positive")
	}
	if *sessions > 1 && *churnPat != "" {
		return fmt.Errorf("-sessions and -churn are mutually exclusive")
	}

	// One pooled transport shared by every worker: each closed loop
	// keeps reusing its connection instead of dialing per write, and the
	// trace counters prove it in the final report.
	c := client.NewPooled("http://"+*addr, *workers)
	if err := c.WaitReady(10 * time.Second); err != nil {
		return err
	}

	if *sessions > 1 {
		return runSwarm(c, *session, *program, *sessions, *n, *seed, *batch, *singleEvery, *workers, *readEvery, *timeout)
	}

	// Create the session if it is not already live.
	if _, err := c.Session(*session); client.IsStatus(err, 404) {
		if _, err := c.CreateSession(wire.CreateSessionRequest{Name: *session, Catalog: *program}); err != nil {
			return fmt.Errorf("creating session: %w", err)
		}
	} else if err != nil {
		return err
	}

	// Generate the stream locally against the same program.
	p, err := progs.ByName(*program)
	if err != nil {
		return err
	}
	local, err := p.Load()
	if err != nil {
		return err
	}
	var (
		stream      []*controlplane.Update
		chunks      []chunk
		churn       *fuzz.ChurnStream
		churnBefore int
	)
	if *churnPat != "" {
		kind, err := fuzz.ParsePattern(*churnPat)
		if err != nil {
			return err
		}
		cs, err := fuzz.Churn(local.An, fuzz.ChurnSpec{
			Kind: kind, Table: p.BurstTable, Updates: *n, Seed: *seed,
		})
		if err != nil {
			return err
		}
		churn, stream = cs, cs.Updates
		for _, b := range cs.Batches() {
			mode := wire.ModeBatch
			if len(b) == 1 {
				mode = wire.ModeSingle
			}
			chunks = append(chunks, chunk{updates: b, mode: mode})
		}
		if *workers != 1 {
			fmt.Printf("flayload: -churn %s forces -workers 1 (patterns replay in declared order)\n", kind)
			*workers = 1
		}
		info, err := c.Session(*session)
		if err != nil {
			return err
		}
		churnBefore = info.Entries[p.BurstTable]
	} else {
		if stream, err = fuzz.New(local.An, *seed).Stream(*n); err != nil {
			return err
		}
		chunks = carve(stream, *batch, *singleEvery)
	}

	fmt.Printf("flayload: %d updates -> %s as %d chunks over %d workers\n",
		len(stream), *session, len(chunks), *workers)

	var (
		sent, retried, rejected, degraded atomic.Int64
		wg                                sync.WaitGroup
		errOnce                           sync.Once
		runErr                            error
		next                              = make(chan chunk, len(chunks))
	)
	for _, ch := range chunks {
		next <- ch
	}
	close(next)

	start := time.Now()
	deadline := start.Add(*timeout)

	// Interval reporter (satellite of the deadline work): scrape the
	// metrics endpoint every -report tick so a long run shows evolving
	// latency distributions and degradation counts instead of a single
	// post-mortem snapshot.
	reportDone := make(chan struct{})
	reportStopped := make(chan struct{})
	if *report > 0 {
		go func() {
			defer close(reportStopped)
			tick := time.NewTicker(*report)
			defer tick.Stop()
			var lastSent int64
			last := start
			for {
				select {
				case <-reportDone:
					return
				case now := <-tick.C:
					cur := sent.Load()
					snap, err := c.Metrics()
					if err != nil {
						fmt.Printf("[%6s] metrics scrape failed: %v\n",
							time.Since(start).Round(time.Second), err)
						continue
					}
					rate := float64(cur-lastSent) / now.Sub(last).Seconds()
					fmt.Printf("[%6s] sent=%d (+%.0f/s) retries=%d degraded=%d repairs=%d\n",
						time.Since(start).Round(time.Second), cur, rate, retried.Load(),
						snap.Counters["core.degradations"], snap.Counters["core.promotions"])
					printHist(snap, "core.update_ns", "  update")
					printHist(snap, "server.apply_ns", "  apply")
					lastSent, last = cur, now
				}
			}
		}()
	} else {
		close(reportStopped)
	}

	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ch := range next {
				if time.Now().After(deadline) {
					errOnce.Do(func() { runErr = fmt.Errorf("deadline %v exceeded", *timeout) })
					return
				}
				resp, retries, err := c.WriteRetryDeadline(*session, ch.mode, ch.updates, *writeDeadline, 50, 5*time.Millisecond)
				if err != nil {
					errOnce.Do(func() { runErr = err })
					return
				}
				sent.Add(int64(len(ch.updates)))
				retried.Add(int64(retries))
				for _, d := range resp.Decisions {
					if d.Kind == "rejected" {
						rejected.Add(1)
					}
					if d.Precision == "degraded" {
						degraded.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(reportDone)
	<-reportStopped
	if runErr != nil {
		return runErr
	}
	elapsed := time.Since(start)

	st, err := c.Stats(*session)
	if err != nil {
		return err
	}
	snap, err := c.Metrics()
	if err != nil {
		return err
	}

	fmt.Printf("sent      %d updates in %v (%.0f updates/s), %d retries after 429\n",
		sent.Load(), elapsed.Round(time.Millisecond),
		float64(sent.Load())/elapsed.Seconds(), retried.Load())
	if cs := c.Conns(); cs != nil {
		total := cs.Dialed() + cs.Reused()
		reuse := float64(0)
		if total > 0 {
			reuse = 100 * float64(cs.Reused()) / float64(total)
		}
		fmt.Printf("conns     dialed=%d reused=%d (%.1f%% reuse over %d requests)\n",
			cs.Dialed(), cs.Reused(), reuse, total)
	}
	fmt.Printf("verdicts  forwarded=%d recompiled=%d rejected=%d (rejected seen by this run: %d)\n",
		st.Forwarded, st.Recompilations, st.Rejected, rejected.Load())
	if *writeDeadline > 0 || degraded.Load() > 0 || st.Degradations > 0 {
		rate := float64(0)
		if s := sent.Load(); s > 0 {
			rate = 100 * float64(degraded.Load()) / float64(s)
		}
		fmt.Printf("precision degraded_verdicts=%d (%.1f%% of sent) degradations=%d promotions=%d degraded_tables=%d unsound=%d\n",
			degraded.Load(), rate, st.Degradations, st.Promotions, st.DegradedTables, st.UnsoundDegraded)
	}
	printHist(snap, "core.update_ns", "update")
	printHist(snap, "server.apply_ns", "apply")
	printHist(snap, "server.write_ns", "write")

	if churn != nil {
		if r := rejected.Load(); r > 0 {
			return fmt.Errorf("churn replay saw %d rejected updates (pattern streams must replay cleanly)", r)
		}
		info, err := c.Session(*session)
		if err != nil {
			return err
		}
		if err := churn.CheckInvariant(info.Entries[p.BurstTable] - churnBefore); err != nil {
			return fmt.Errorf("after replay: %w", err)
		}
		fmt.Printf("churn     pattern=%s batches=%d steady-state invariant holds (%+d live entries in %s)\n",
			*churnPat, len(chunks), churn.WantLive, p.BurstTable)
	}
	return nil
}

// chunk is one write request's worth of the stream.
type chunk struct {
	updates []*controlplane.Update
	mode    string
}

// carve splits the stream into batched writes of size batch, turning
// every singleEvery-th chunk into a run of single-update writes.
func carve(stream []*controlplane.Update, batch, singleEvery int) []chunk {
	var out []chunk
	for i := 0; len(stream) > 0; i++ {
		if singleEvery > 0 && i%singleEvery == singleEvery-1 {
			out = append(out, chunk{updates: stream[:1], mode: wire.ModeSingle})
			stream = stream[1:]
			continue
		}
		n := min(batch, len(stream))
		out = append(out, chunk{updates: stream[:n], mode: wire.ModeBatch})
		stream = stream[n:]
	}
	return out
}

// printHist reports one histogram's daemon-side latency distribution.
func printHist(snap obs.Snapshot, name, label string) {
	h, ok := snap.Histograms[name]
	if !ok || h.Count == 0 {
		return
	}
	fmt.Printf("%-9s p50=%v p95=%v p99=%v (n=%d)\n", label,
		time.Duration(h.P50), time.Duration(h.P95), time.Duration(h.P99), h.Count)
}

package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	goflay "repro"
	"repro/internal/controlplane"
	"repro/internal/flayerr"
	"repro/internal/obs"
	"repro/internal/wire"
)

// The session operations' typed errors. statusOf maps each to the status
// it answers with, on HTTP and in a binary TErr frame alike; the ones
// that wrap a goflay sentinel also carry its wire code, so clients
// classify them with errors.Is across the wire (internal/wire error
// codes).
var (
	// ErrQueueFull is backpressure: the session's bounded in-flight
	// queue is at capacity (429).
	ErrQueueFull = fmt.Errorf("server: session queue full: %w", flayerr.ErrBackpressure)
	// ErrSessionClosed marks a write against a closing session (503).
	ErrSessionClosed = fmt.Errorf("server: session %w", flayerr.ErrClosed)
	// ErrDraining marks a write or create against a server that is
	// shutting down (503).
	ErrDraining = fmt.Errorf("server: %w", flayerr.ErrDraining)

	errStandby    = fmt.Errorf("server: %w", flayerr.ErrStandby) // 503
	errNoSession  = errors.New("no session")                     // 404
	errExists     = errors.New("server: session exists")         // 409
	errBadRequest = errors.New("bad request")                    // 400
	errLoad       = errors.New("loading session")                // 422
)

// statusOf is the status an error answers with. A session that cannot
// be built is 422 whatever the engine's reason; errors nothing here
// classifies are the server's own (500).
func statusOf(err error) int {
	switch {
	case errors.Is(err, errLoad):
		return http.StatusUnprocessableEntity
	case errors.Is(err, flayerr.ErrBackpressure):
		return http.StatusTooManyRequests
	case errors.Is(err, flayerr.ErrStandby), errors.Is(err, flayerr.ErrDraining), errors.Is(err, flayerr.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, errNoSession), errors.Is(err, flayerr.ErrUnknownTable):
		return http.StatusNotFound
	case errors.Is(err, errExists), errors.Is(err, flayerr.ErrExecDisabled):
		return http.StatusConflict
	case errors.Is(err, errBadRequest), errors.Is(err, flayerr.ErrBadPacket):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// writeReq is one write request in flight between admit and the
// session's dispatcher.
type writeReq struct {
	updates []*controlplane.Update
	// batch requests ApplyBatch semantics; otherwise the updates are
	// applied one at a time.
	batch bool
	// deadline is the request's latency budget (zero = none): the
	// dispatcher turns it into a context deadline, under which the
	// engine may degrade table precision rather than miss it.
	deadline time.Time
	// reqID is the client's idempotency key ("" = none): a duplicate is
	// answered from the session's decision cache without re-applying.
	reqID string
	// start is when the request was admitted (server.write_ns).
	start time.Time
	// resp is buffered (capacity 1) so the dispatcher never blocks
	// handing a result back, even if the requester gave up.
	resp chan writeResult
}

type writeResult struct {
	decisions []*goflay.Decision
	// wired, when non-nil, is the response already in wire form (the
	// idempotency-cache hit path); it takes precedence over decisions.
	wired []wire.Decision
	// coalesced is set when the request shared an ApplyBatch with at
	// least one other request.
	coalesced bool
	// replayed is set when the result came from the idempotency cache.
	replayed bool
}

// Session hosts one named Pipeline behind a single dispatcher
// goroutine. Every write is funneled through a bounded queue: the
// dispatcher applies requests in arrival order, folding the requests
// already queued when it picks one up into one ApplyBatch, which
// recompiles per-target assignments once and re-evaluates the union of
// tainted points in a single pass. Reads (stats, audit, snapshot,
// source) go straight to the engine, which is internally
// RWMutex-guarded, so they never queue behind writes.
type Session struct {
	name string
	// restored marks a session opened from a snapshot.
	restored bool

	pipe  *goflay.Pipeline
	audit *obs.Trail
	srv   *Server

	queue chan *writeReq
	stop  chan struct{} // closed by close(); dispatcher drains and exits
	done  chan struct{} // closed when the dispatcher has exited

	// roundMu serializes write rounds against replication: the active
	// holds it across apply+seq+ship so a base snapshot (taken under the
	// same mutex) covers exactly repSeq rounds; the standby holds it
	// while applying incoming rounds. repSeq is the sequence number of
	// the last round applied (active) or absorbed (standby).
	roundMu sync.Mutex
	repSeq  uint64

	// Idempotency cache: reqID → response already answered, bounded
	// FIFO. Guarded by dedupMu (the binary and HTTP paths share it).
	dedupMu    sync.Mutex
	dedup      map[string]cachedWrite
	dedupOrder []string

	// snapGen is the engine generation captured by the last snapshot;
	// genNever means no snapshot has been taken yet. snapMu serializes
	// checkpoints (the HTTP snapshot handler can race shutdown).
	snapMu  sync.Mutex
	snapGen uint64
}

// genNever marks a session that has never been snapshotted, so the
// shutdown path persists it even if it took no updates (otherwise a
// freshly created idle session would not survive a restart).
const genNever = ^uint64(0)

// sessionSpec is what a session is built from, whichever way it comes
// in: exactly one of catalog, source and snapshot names the program.
// A snapshot dictates its own verdict-shaping options and whether the
// executor runs; exec turns the executor on for any of the three.
type sessionSpec struct {
	name, catalog, source string
	snapshot              []byte
	quality               goflay.Quality
	threshold             int
	skipParser, exec      bool
}

// open is the one session constructor: HTTP create, binary
// attach-create, a replica base and a warm restart all build their
// session here, and each caller registers it its own way. The session's
// engine records into the server's registry and a trail bounded by
// AuditLimit; its dispatcher is running when open returns.
func (s *Server) open(spec sessionSpec) (*Session, error) {
	if !nameRE.MatchString(spec.name) {
		return nil, fmt.Errorf("%w: invalid session name %q (want %s)", errBadRequest, spec.name, nameRE)
	}
	trail := obs.NewTrail(s.cfg.AuditLimit)
	opts := []goflay.Option{
		goflay.WithOverapproxThreshold(spec.threshold),
		goflay.WithQuality(spec.quality),
		goflay.WithMetrics(s.met),
		goflay.WithAudit(trail),
	}
	if spec.skipParser {
		opts = append(opts, goflay.WithSkipParser())
	}
	if spec.exec {
		opts = append(opts, goflay.WithExec())
	}
	var (
		pipe *goflay.Pipeline
		err  error
	)
	switch {
	case spec.catalog != "":
		pipe, err = goflay.OpenCatalog(spec.catalog, opts...)
	case spec.source != "":
		pipe, err = goflay.Open(spec.name, spec.source, opts...)
	default:
		pipe, err = goflay.Restore(spec.snapshot, opts...)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errLoad, err)
	}
	sess := &Session{
		name:     spec.name,
		restored: len(spec.snapshot) > 0,
		pipe:     pipe,
		audit:    trail,
		srv:      s,
		queue:    make(chan *writeReq, s.cfg.QueueDepth),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		dedup:    make(map[string]cachedWrite),
		snapGen:  genNever,
	}
	if sess.restored {
		// The snapshot is exactly this state; don't rewrite it on
		// shutdown unless updates arrive.
		sess.snapGen = pipe.Generation()
	}
	go sess.dispatch()
	return sess, nil
}

// admit is the one write admission, for HTTP and binary alike: a
// standby or a draining server refuses, the request's latency budget is
// resolved, and the request enters the session's queue. An explicit
// deadline wins; otherwise, under queue pressure, the configured
// pressure deadline is attached so the engine degrades precision
// (shedding analysis cost) before the queue overflows into 429s.
func (s *Server) admit(sess *Session, updates []*controlplane.Update, batch bool, deadlineMS uint64, reqID string) (*writeReq, error) {
	if err := s.gate(); err != nil {
		return nil, err
	}
	wr := &writeReq{updates: updates, batch: batch, reqID: reqID, start: time.Now(), resp: make(chan writeResult, 1)}
	switch {
	case deadlineMS > 0:
		wr.deadline = wr.start.Add(time.Duration(deadlineMS) * time.Millisecond)
	case s.cfg.PressureDeadline > 0 && sess.pressured():
		wr.deadline = wr.start.Add(s.cfg.PressureDeadline)
		s.met.Counter("server.pressure_deadlines").Inc()
	}
	if err := sess.submit(wr); err != nil {
		return nil, err
	}
	return wr, nil
}

// await waits for the dispatcher's answer to an admitted request,
// accounts it, and puts it in wire form. A result carrying pre-wired
// decisions (idempotency-cache hits, and any request that sent a
// req_id) reuses them verbatim.
func (s *Server) await(sess *Session, wr *writeReq) (wire.WriteResponse, error) {
	res, err := sess.wait(wr)
	if err != nil {
		return wire.WriteResponse{}, err
	}
	s.met.Counter("server.write_requests").Inc()
	s.met.Counter("server.write_updates").Add(int64(len(wr.updates)))
	s.met.Histogram("server.write_ns").ObserveDuration(time.Since(wr.start))
	out := wire.WriteResponse{Decisions: res.wired, Coalesced: res.coalesced, Replayed: res.replayed}
	if out.Decisions == nil {
		out.Decisions = wireDecisions(res.decisions)
	}
	return out, nil
}

// submit enqueues a write without blocking: a full queue is
// backpressure, reported to the caller as ErrQueueFull rather than
// letting requests pile up unboundedly inside the daemon.
func (sess *Session) submit(req *writeReq) error {
	select {
	case <-sess.stop:
		return ErrSessionClosed
	default:
	}
	select {
	case sess.queue <- req:
		return nil
	default:
		sess.srv.met.Counter("server.queue_full").Inc()
		return ErrQueueFull
	}
}

// wait blocks until the dispatcher answers req (or the session shuts
// down underneath it).
func (sess *Session) wait(req *writeReq) (writeResult, error) {
	select {
	case res := <-req.resp:
		return res, nil
	case <-sess.done:
		// The dispatcher may have served the request while we were
		// racing with shutdown; prefer the result if it is there.
		select {
		case res := <-req.resp:
			return res, nil
		default:
			return writeResult{}, ErrSessionClosed
		}
	}
}

// dispatch is the session's single writer loop. Once stopped it still
// serves whatever was accepted before the signal, so "graceful" means
// no accepted update is dropped, and exits when the queue is empty.
func (sess *Session) dispatch() {
	defer close(sess.done)
	for {
		select {
		case req := <-sess.queue:
			sess.serve(sess.collect(req))
		case <-sess.stop:
			select {
			case req := <-sess.queue:
				sess.serve(sess.collect(req))
			default:
				return
			}
		}
	}
}

// collect is the coalescing rule, group commit: a round is the request
// the dispatcher picked up plus whatever is already queued behind it,
// up to MaxBatch updates. Nothing waits for company — a lone write is
// served the moment it arrives, and requests that arrive while a round
// is applying form the next one.
func (sess *Session) collect(first *writeReq) []*writeReq {
	reqs := []*writeReq{first}
	for n := len(first.updates); n < sess.srv.cfg.MaxBatch; {
		select {
		case r := <-sess.queue:
			reqs = append(reqs, r)
			n += len(r.updates)
		default:
			return reqs
		}
	}
	return reqs
}

// serveCtx resolves one round's latency budget: the earliest request
// deadline wins (a coalesced round must honor its most impatient
// member). The returned cancel must be called.
func serveCtx(reqs []*writeReq) (context.Context, context.CancelFunc) {
	var deadline time.Time
	for _, r := range reqs {
		if !r.deadline.IsZero() && (deadline.IsZero() || r.deadline.Before(deadline)) {
			deadline = r.deadline
		}
	}
	if deadline.IsZero() {
		return context.Background(), func() {}
	}
	return context.WithDeadline(context.Background(), deadline)
}

// serve applies one round of requests and distributes decisions back.
// A lone single-mode request keeps sequential Apply semantics; anything
// else — an explicit batch, or several coalesced requests regardless of
// their modes — goes through ApplyBatch as one atomic configuration
// transition, with the decision slice split back per request in order.
//
// Requests carrying an idempotency key that is already in the decision
// cache are answered from it without touching the engine (exactly-once
// under client retries). When replication is configured, the round is
// shipped to the standby before any request is acknowledged: an
// acknowledged write is on the standby, so a shard kill loses nothing
// that was accepted.
func (sess *Session) serve(reqs []*writeReq) {
	met := sess.srv.met
	fresh := reqs[:0]
	for _, r := range reqs {
		if r.reqID != "" {
			if c, ok := sess.dedupGet(r.reqID); ok {
				met.Counter("server.replayed_requests").Inc()
				r.resp <- writeResult{wired: c.decisions, coalesced: c.coalesced, replayed: true}
				continue
			}
		}
		fresh = append(fresh, r)
	}
	if len(fresh) == 0 {
		return
	}
	start := time.Now()
	ctx, cancel := serveCtx(fresh)
	defer cancel()
	batch := len(fresh) > 1 || fresh[0].batch
	if sess.srv.ship != nil {
		sess.roundMu.Lock()
		defer sess.roundMu.Unlock()
	}
	var ds []*goflay.Decision
	if !batch {
		ds = sess.pipe.ApplyAllCtx(ctx, fresh[0].updates)
	} else {
		var all []*controlplane.Update
		for _, r := range fresh {
			all = append(all, r.updates...)
		}
		ds = sess.pipe.ApplyBatchCtx(ctx, all)
	}
	met.Histogram("server.apply_ns").ObserveDuration(time.Since(start))
	coalesced := len(fresh) > 1
	if coalesced {
		met.Counter("server.coalesced_requests").Add(int64(len(fresh)))
	}
	if sess.srv.ship != nil {
		sess.repSeq++
		sess.srv.ship.shipRound(sess, sess.repSeq, batch, fresh)
	}
	off := 0
	for _, r := range fresh {
		slice := ds[off : off+len(r.updates)]
		off += len(r.updates)
		res := writeResult{decisions: slice, coalesced: coalesced}
		if r.reqID != "" {
			res.wired = wireDecisions(slice)
			sess.dedupPut(r.reqID, cachedWrite{decisions: res.wired, coalesced: coalesced})
		}
		r.resp <- res
	}
}

// cachedWrite is one idempotency-cache entry: the wire-form response a
// reqID was originally answered with, replayed verbatim on duplicates.
type cachedWrite struct {
	decisions []wire.Decision
	coalesced bool
}

// dedupCap bounds the idempotency cache: old enough entries age out
// FIFO, which is safe because a client only retries a reqID while the
// original request is unresolved — not dedupCap writes later.
const dedupCap = 512

func (sess *Session) dedupGet(reqID string) (cachedWrite, bool) {
	sess.dedupMu.Lock()
	defer sess.dedupMu.Unlock()
	c, ok := sess.dedup[reqID]
	return c, ok
}

func (sess *Session) dedupPut(reqID string, c cachedWrite) {
	sess.dedupMu.Lock()
	defer sess.dedupMu.Unlock()
	if _, ok := sess.dedup[reqID]; ok {
		return
	}
	for len(sess.dedupOrder) >= dedupCap {
		delete(sess.dedup, sess.dedupOrder[0])
		sess.dedupOrder = sess.dedupOrder[1:]
	}
	sess.dedup[reqID] = c
	sess.dedupOrder = append(sess.dedupOrder, reqID)
}

// wireDecisions converts engine decisions to wire form (the shape the
// idempotency cache stores, so a replayed answer is byte-stable).
func wireDecisions(ds []*goflay.Decision) []wire.Decision {
	out := make([]wire.Decision, len(ds))
	for i, d := range ds {
		out[i] = wire.FromDecision(d)
	}
	return out
}

// close stops the dispatcher, waits for it to drain, and releases the
// pipeline's background resources (the precision repair goroutine).
// Idempotent.
func (sess *Session) close() {
	select {
	case <-sess.stop:
	default:
		close(sess.stop)
	}
	<-sess.done
	sess.pipe.Close()
}

// pressured reports whether the session's write queue is at least half
// full — the load-shedding trigger: rather than waiting for the queue
// to fill and answering 429, the server starts attaching the configured
// pressure deadline so the engine degrades precision first.
func (sess *Session) pressured() bool {
	return len(sess.queue)*2 >= cap(sess.queue)
}

// dirty reports whether the engine state moved past the last snapshot.
func (sess *Session) dirty() bool {
	sess.snapMu.Lock()
	defer sess.snapMu.Unlock()
	return sess.pipe.Generation() != sess.snapGen
}

// snapPath is the session's snapshot file under dir.
func snapPath(dir, name string) string {
	return filepath.Join(dir, name+snapSuffix)
}

const snapSuffix = ".snap"

// persistSnapshot checkpoints the session's warm state to the snapshot
// directory (atomically: temp file + rename) and records the
// generation, so an unchanged session is not rewritten next time.
func (sess *Session) persistSnapshot() (string, error) {
	dir := sess.srv.cfg.SnapshotDir
	if dir == "" {
		return "", nil
	}
	sess.snapMu.Lock()
	defer sess.snapMu.Unlock()
	gen := sess.pipe.Generation()
	data, err := sess.pipe.Snapshot()
	if err != nil {
		return "", fmt.Errorf("snapshot %s: %w", sess.name, err)
	}
	path := snapPath(dir, sess.name)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", fmt.Errorf("snapshot %s: %w", sess.name, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("snapshot %s: %w", sess.name, err)
	}
	sess.snapGen = gen
	sess.srv.met.Counter("server.snapshots_written").Inc()
	return path, nil
}

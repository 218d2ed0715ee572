// White-box tests for the session dispatcher's concurrency edges.
// Timing-sensitive states (a full queue, shutdown racing a reply) are
// constructed directly instead of provoked with sleeps, so the suite is
// deterministic under -race.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/fuzz"
	"repro/internal/p4/ast"
	"repro/internal/progs"
	"repro/internal/sym"
	"repro/internal/wire"
	"repro/internal/wire/binproto"
)

// jammedSession builds a Session whose dispatcher is not running, with
// its bounded queue already at capacity — the backpressure state, held
// still so tests can poke at it.
func jammedSession(srv *Server, depth int) *Session {
	sess := &Session{
		name:  "jam",
		srv:   srv,
		queue: make(chan *writeReq, depth),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i := 0; i < depth; i++ {
		sess.queue <- &writeReq{}
	}
	return sess
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Logf = t.Logf
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestSubmitBackpressure: a full queue rejects the write immediately
// with ErrQueueFull and counts it, instead of blocking the handler.
func TestSubmitBackpressure(t *testing.T) {
	srv := newTestServer(t, Config{QueueDepth: 2})
	sess := jammedSession(srv, 2)
	if err := sess.submit(&writeReq{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit on full queue: %v, want ErrQueueFull", err)
	}
	if n := srv.met.Counter("server.queue_full").Value(); n != 1 {
		t.Fatalf("server.queue_full = %d, want 1", n)
	}
}

// TestSubmitAfterClose: a stopped session refuses writes with
// ErrSessionClosed even if its queue has room.
func TestSubmitAfterClose(t *testing.T) {
	srv := newTestServer(t, Config{})
	sess := jammedSession(srv, 4)
	<-sess.queue // leave room, so only the stop check can reject
	<-sess.queue
	close(sess.stop)
	if err := sess.submit(&writeReq{}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("submit after close: %v, want ErrSessionClosed", err)
	}
}

// TestWaitPrefersServedResult: when shutdown and a served reply race,
// wait must hand back the reply — an accepted, applied update's
// decisions are never dropped on the floor.
func TestWaitPrefersServedResult(t *testing.T) {
	srv := newTestServer(t, Config{})
	sess := jammedSession(srv, 1)
	req := &writeReq{resp: make(chan writeResult, 1)}
	req.resp <- writeResult{coalesced: true}
	close(sess.done) // dispatcher exited after serving req
	res, err := sess.wait(req)
	if err != nil {
		t.Fatalf("wait with buffered result: %v", err)
	}
	if !res.coalesced {
		t.Fatal("wait returned the wrong result")
	}
}

// TestWaitShutdownWithoutResult: if the dispatcher exits without
// serving the request, wait reports ErrSessionClosed.
func TestWaitShutdownWithoutResult(t *testing.T) {
	srv := newTestServer(t, Config{})
	sess := jammedSession(srv, 1)
	req := &writeReq{resp: make(chan writeResult, 1)}
	close(sess.done)
	if _, err := sess.wait(req); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("wait after shutdown: %v, want ErrSessionClosed", err)
	}
}

// TestQueueFullMapsTo429: the HTTP layer translates ErrQueueFull into
// 429 Too Many Requests. The jammed session is injected into the
// registry so the test never depends on winning a race against the
// dispatcher.
func TestQueueFullMapsTo429(t *testing.T) {
	srv := newTestServer(t, Config{QueueDepth: 1})
	sess := jammedSession(srv, 1)
	srv.mu.Lock()
	srv.sessions[sess.name] = sess
	srv.mu.Unlock()

	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := `{"updates":[{"kind":"fill-register","register":"r","fill":{"w":8,"hex":"00"}}]}`
	resp, err := http.Post(ts.URL+"/v1/sessions/jam/updates", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("write against full queue: HTTP %d, want 429", resp.StatusCode)
	}
}

// TestCloseDrainsAcceptedWrites: every write accepted before close()
// is served during the drain — graceful shutdown loses nothing.
func TestCloseDrainsAcceptedWrites(t *testing.T) {
	srv := newTestServer(t, Config{QueueDepth: 16})
	sess, err := srv.open(sessionSpec{name: "drain", catalog: "fig3"})
	if err != nil {
		t.Fatal(err)
	}

	// Stop the dispatcher's main loop from consuming: hold it inside a
	// serve call by submitting one request and not reading the response
	// until the rest are enqueued. The dispatcher is single-threaded, so
	// the remaining requests stay queued until drain.
	reqs := make([]*writeReq, 8)
	for i := range reqs {
		reqs[i] = &writeReq{resp: make(chan writeResult, 1)}
		if err := sess.submit(reqs[i]); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	sess.close()
	for i, r := range reqs {
		select {
		case res := <-r.resp:
			if res.decisions == nil && len(r.updates) > 0 {
				t.Fatalf("request %d drained without decisions", i)
			}
		default:
			t.Fatalf("request %d was accepted but never served", i)
		}
	}
}

// TestServeCtxEarliestDeadlineWins: a coalesced round's context must
// carry the most impatient member's deadline; a round with no deadlines
// gets a plain background context.
func TestServeCtxEarliestDeadlineWins(t *testing.T) {
	ctx, cancel := serveCtx([]*writeReq{{}, {}})
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Fatal("deadline-free round got a context deadline")
	}

	near := time.Now().Add(10 * time.Millisecond)
	far := time.Now().Add(10 * time.Second)
	ctx2, cancel2 := serveCtx([]*writeReq{{deadline: far}, {deadline: near}, {}})
	defer cancel2()
	got, ok := ctx2.Deadline()
	if !ok || !got.Equal(near) {
		t.Fatalf("round deadline = %v (ok=%v), want earliest %v", got, ok, near)
	}
}

// TestPressured: the load-shedding trigger fires at half queue
// occupancy, not before.
func TestPressured(t *testing.T) {
	sess := &Session{queue: make(chan *writeReq, 4)}
	if sess.pressured() {
		t.Fatal("empty queue reported pressure")
	}
	sess.queue <- &writeReq{}
	if sess.pressured() {
		t.Fatal("quarter-full queue reported pressure")
	}
	sess.queue <- &writeReq{}
	if !sess.pressured() {
		t.Fatal("half-full queue did not report pressure")
	}
}

// TestConfigDefaults pins the zero-value Config normalization.
func TestConfigDefaults(t *testing.T) {
	srv := newTestServer(t, Config{})
	if srv.cfg.MaxBatch <= 0 || srv.cfg.QueueDepth <= 0 || srv.cfg.MaxBody <= 0 {
		t.Fatalf("zero config not defaulted: %+v", srv.cfg)
	}
	if srv.cfg.AuditLimit != defaultAuditLimit {
		t.Fatalf("default audit limit = %d, want %d", srv.cfg.AuditLimit, defaultAuditLimit)
	}
	// Negative normalizes to 0 — obs.NewTrail's "keep everything".
	srv2 := newTestServer(t, Config{AuditLimit: -1})
	if srv2.cfg.AuditLimit != 0 {
		t.Fatalf("negative audit limit normalized to %d, want 0", srv2.cfg.AuditLimit)
	}
}

// TestCoalescingFunnelsConcurrentWriters: the writes queued while the
// dispatcher is busy form its next round, one ApplyBatch. The dispatcher
// is held inside a plug request's round — the plug's reply channel is
// unbuffered and not read until the other writes are queued — so the
// round's make-up does not depend on timing.
func TestCoalescingFunnelsConcurrentWriters(t *testing.T) {
	srv := newTestServer(t, Config{})
	sess, err := srv.open(sessionSpec{name: "co", catalog: "fig3"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.close)
	local, err := progs.Fig3().Load()
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	updates, err := fuzz.New(local.An, 9).Updates(local.An.TableOrder[0], 40)
	if err != nil {
		t.Fatal(err)
	}

	plug := &writeReq{updates: updates[:1], resp: make(chan writeResult)}
	if err := sess.submit(plug); err != nil {
		t.Fatal(err)
	}
	// Once the engine has applied the plug, the dispatcher is past its
	// collect and blocks handing the plug its reply.
	for sess.pipe.Statistics().Updates == 0 {
		time.Sleep(time.Millisecond)
	}
	queued := make([]*writeReq, 0, len(updates)-1)
	for _, u := range updates[1:] {
		wr, err := srv.admit(sess, []*controlplane.Update{u}, false, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, wr)
	}
	if res := <-plug.resp; res.coalesced {
		t.Fatal("the plug shared its round")
	}
	for i, wr := range queued {
		resp, err := srv.await(sess, wr)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Coalesced || len(resp.Decisions) != 1 {
			t.Fatalf("queued write %d: coalesced=%v with %d decisions", i, resp.Coalesced, len(resp.Decisions))
		}
	}
	st := sess.pipe.Statistics()
	if st.Batches != 1 || st.Updates != len(updates) || st.Coalesced == 0 {
		t.Fatalf("%d batches, %d updates, %d coalesced; want the %d queued writes in one batch",
			st.Batches, st.Updates, st.Coalesced, len(queued))
	}
	if n := srv.met.Counter("server.coalesced_requests").Value(); n != int64(len(queued)) {
		t.Fatalf("server.coalesced_requests = %d, want %d", n, len(queued))
	}

	// End state: a local engine applying the same updates as one batch
	// (insertion order is irrelevant: unique priorities).
	local.ApplyBatch(updates)
	if got, want := sess.pipe.SpecializedSource(), ast.Print(local.SpecializedProgram()); got != want {
		t.Fatalf("coalesced end state diverged from local batch:\n%.400s\nvs\n%.400s", got, want)
	}
}

// TestDrainingAnswersOneWay: once Shutdown has begun, a create and a
// write answer 503 with code "draining" over HTTP and in a binary TErr
// frame alike.
func TestDrainingAnswersOneWay(t *testing.T) {
	srv := newTestServer(t, Config{})
	sess, err := srv.create(sessionSpec{name: "s", catalog: "fig3"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	check := func(surface string, status int, code string) {
		t.Helper()
		if status != http.StatusServiceUnavailable || code != wire.CodeDraining {
			t.Errorf("%s while draining: %d %q, want 503 %q", surface, status, code, wire.CodeDraining)
		}
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, c := range []struct{ path, body string }{
		{"/v1/sessions", `{"name":"s2","catalog":"fig3"}`},
		{"/v1/sessions/s/updates", `{"updates":[{"kind":"fill-register","register":"r","fill":{"w":8,"hex":"00"}}]}`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var body wire.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		check("HTTP POST "+c.path, resp.StatusCode, body.Code)
	}

	// A draining server accepts no binary connection, so a frame that
	// races the drain is handed to the frame handlers directly.
	out := make(chan binproto.Frame, 2)
	var attach bytes.Buffer
	if err := binproto.WriteFrame(&attach, binproto.Frame{Type: binproto.TAttach, Corr: 1,
		Payload: binproto.AppendAttach(nil, &binproto.Attach{Name: "s2", Catalog: "fig3"})}); err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.binAttach(bufio.NewReader(&attach), out); ok {
		t.Fatal("binary attach-create succeeded while draining")
	}
	fill := &controlplane.Update{Kind: controlplane.FillRegister, Register: "r", Fill: sym.NewBV(8, 0)}
	srv.binWrite(sess, binproto.Frame{Type: binproto.TWrite, Corr: 2,
		Payload: binproto.AppendWrite(nil, &binproto.Write{Updates: []*controlplane.Update{fill}})}, out, make(chan struct{}, 1))
	for _, surface := range []string{"binary attach-create", "binary write"} {
		f := <-out
		e, err := binproto.DecodeErrMsg(f.Payload)
		if f.Type != binproto.TErr || err != nil {
			t.Fatalf("%s while draining answered frame %#x (%v)", surface, f.Type, err)
		}
		check(surface, e.Status, e.Code)
	}
}

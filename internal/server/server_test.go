// End-to-end suite for the flayd control-plane service: the typed Go
// client replays catalog programs and fuzz.Stream update streams
// against a live (httptest) daemon and asserts the hosted session is
// observationally identical to a local in-process engine fed the same
// chunks — per-request decisions, outcome counters, audit trail
// (sequence numbers included), and byte-identical specialized source.
// It also proves the operational half: kill-and-warm-restart round
// trips through the snapshot directory, coalescing of concurrent
// writers into shared batches, drain semantics, and the Prometheus
// exposition under traffic.
package server_test

import (
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/flayerr"
	"repro/internal/fuzz"
	"repro/internal/obs"
	"repro/internal/p4/ast"
	"repro/internal/progs"
	"repro/internal/server"
	"repro/internal/wire"
)

// testDaemon is one live server plus a client pointed at it.
type testDaemon struct {
	srv *server.Server
	ts  *httptest.Server
	c   *client.Client
}

func startDaemon(t *testing.T, cfg server.Config) *testDaemon {
	t.Helper()
	cfg.Logf = t.Logf
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &testDaemon{srv: srv, ts: ts, c: client.New(ts.URL)}
}

// localEngine loads the catalog program exactly like the server does
// for a create request with default options, with an unbounded audit
// trail.
func localEngine(t *testing.T, prog string) (*core.Specializer, *obs.Trail) {
	t.Helper()
	p, err := progs.ByName(prog)
	if err != nil {
		t.Fatal(err)
	}
	trail := obs.NewTrail(0)
	s, err := p.LoadWith(core.Options{Audit: trail})
	if err != nil {
		t.Fatalf("loading %s locally: %v", prog, err)
	}
	return s, trail
}

// chunk is one client write: its updates and the request mode.
type chunk struct {
	updates []*controlplane.Update
	mode    string
}

// mixedChunks splits a stream into a deterministic mix of single-update
// requests, explicit multi-update single-mode requests (sequential
// Apply semantics), and batches of varying size — the "mixed single +
// batch" shape of the acceptance round trip.
func mixedChunks(stream []*controlplane.Update) []chunk {
	var out []chunk
	sizes := []struct {
		n    int
		mode string
	}{
		{1, wire.ModeSingle}, {17, wire.ModeBatch}, {1, ""}, {3, wire.ModeSingle},
		{8, wire.ModeBatch}, {1, wire.ModeSingle}, {32, ""}, {5, wire.ModeBatch},
	}
	for i := 0; len(stream) > 0; i++ {
		s := sizes[i%len(sizes)]
		n := min(s.n, len(stream))
		out = append(out, chunk{updates: stream[:n], mode: s.mode})
		stream = stream[n:]
	}
	return out
}

// applyLocal mirrors one chunk on the local engine the way the server
// serves it with coalescing disabled: single-mode requests apply one
// update at a time, everything else is one ApplyBatch.
func applyLocal(s *core.Specializer, ch chunk) []*core.Decision {
	batch := ch.mode == wire.ModeBatch || (ch.mode == "" && len(ch.updates) > 1)
	if !batch {
		out := make([]*core.Decision, len(ch.updates))
		for i, u := range ch.updates {
			out[i] = s.Apply(u)
		}
		return out
	}
	return s.ApplyBatch(ch.updates)
}

func sameWireDecision(t *testing.T, label string, i int, got wire.Decision, want *core.Decision) {
	t.Helper()
	if got.Kind != want.Kind.String() {
		t.Fatalf("%s decision %d: kind %s vs local %s", label, i, got.Kind, want.Kind)
	}
	if got.AffectedPoints != want.AffectedPoints {
		t.Fatalf("%s decision %d: affected %d vs local %d", label, i, got.AffectedPoints, want.AffectedPoints)
	}
	if !slices.Equal(got.ChangedPoints, want.ChangedPoints) {
		t.Fatalf("%s decision %d: changed %v vs local %v", label, i, got.ChangedPoints, want.ChangedPoints)
	}
	if !slices.Equal(got.Components, want.Components) {
		t.Fatalf("%s decision %d: components %v vs local %v", label, i, got.Components, want.Components)
	}
	if got.ImplChange != want.ImplementationChange {
		t.Fatalf("%s decision %d: impl change %q vs local %q", label, i, got.ImplChange, want.ImplementationChange)
	}
}

func sameOutcome(t *testing.T, label string, got wire.Stats, want core.Stats) {
	t.Helper()
	if got.Updates != want.Updates || got.Forwarded != want.Forwarded ||
		got.Recompilations != want.Recompilations || got.Rejected != want.Rejected {
		t.Fatalf("%s: outcome counters diverged: server %+v vs local %+v", label, got, want)
	}
	if got.Points != want.Points || got.Batches != want.Batches ||
		got.BatchedUpdates != want.BatchedUpdates || got.Coalesced != want.Coalesced {
		t.Fatalf("%s: engine counters diverged: server %+v vs local %+v", label, got, want)
	}
}

// sameQueries compares the query work counter-for-counter. Only valid
// for uninterrupted runs with mirrored chunking: a restored engine
// starts these counters at zero and re-queries once what the
// snapshotting engine had memoized, so cross-restart comparisons skip
// this.
func sameQueries(t *testing.T, label string, got wire.Stats, want core.Stats) {
	t.Helper()
	if got.DDQueries != want.DDQueries || got.DDFallbacks != want.DDFallbacks || got.DDCompiles != want.DDCompiles {
		t.Fatalf("%s: query counters diverged: server dd queries=%d fallbacks=%d compiles=%d vs local queries=%d fallbacks=%d compiles=%d",
			label, got.DDQueries, got.DDFallbacks, got.DDCompiles, want.DDQueries, want.DDFallbacks, want.DDCompiles)
	}
}

// sameAuditRecords compares two trails on everything but wall time — the
// same contract as the core equivalence suites.
func sameAuditRecords(t *testing.T, label string, got, want []obs.AuditRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d audit records vs local %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Seq != want[i].Seq || got[i].Batch != want[i].Batch ||
			got[i].Target != want[i].Target || got[i].Update != want[i].Update ||
			got[i].Decision != want[i].Decision || got[i].Affected != want[i].Affected ||
			!slices.Equal(got[i].Changes, want[i].Changes) ||
			!slices.Equal(got[i].Components, want[i].Components) ||
			got[i].ImplChange != want[i].ImplChange || got[i].Err != want[i].Err {
			t.Fatalf("%s: audit record %d diverged:\n  server %+v\nvs local %+v", label, i, got[i], want[i])
		}
	}
}

// TestDaemonRoundTripWithWarmRestart is the acceptance round trip:
// start flayd, load a catalog program, drive a 1000-update fuzz.Stream
// through the client as a mix of single and batched writes, and require
// the hosted session to match a local in-process engine decision for
// decision, stat for stat, audit record for audit record — then kill
// the daemon mid-stream, warm-restart from its shutdown snapshot, and
// require the resumed session to finish the stream with audit sequence
// continuity and an identical end state.
func TestDaemonRoundTripWithWarmRestart(t *testing.T) {
	const (
		prog      = "scion"
		streamLen = 1000
		seed      = 42
	)
	dir := t.TempDir()
	d := startDaemon(t, server.Config{SnapshotDir: dir, AuditLimit: -1})

	info, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "acceptance", Catalog: prog})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	if info.Stats.Points == 0 || len(info.Tables) == 0 {
		t.Fatalf("implausible session info: %+v", info)
	}

	local, localTrail := localEngine(t, prog)
	stream, err := fuzz.New(local.An, seed).Stream(streamLen)
	if err != nil {
		t.Fatal(err)
	}
	chunks := mixedChunks(stream)
	half := len(chunks) / 2

	serve := func(ch chunk, idx int) {
		t.Helper()
		resp, err := d.c.Write("acceptance", ch.mode, ch.updates)
		if err != nil {
			t.Fatalf("chunk %d: %v", idx, err)
		}
		if len(resp.Decisions) != len(ch.updates) {
			t.Fatalf("chunk %d: %d decisions for %d updates", idx, len(resp.Decisions), len(ch.updates))
		}
		want := applyLocal(local, ch)
		for i := range want {
			sameWireDecision(t, "chunk", idx, resp.Decisions[i], want[i])
		}
	}

	for i, ch := range chunks[:half] {
		serve(ch, i)
	}

	// Mid-stream, before the restart, the hosted session must match the
	// local engine on every counter — query work included, since both
	// engines are uninterrupted and identically chunked so far.
	preStats, err := d.c.Stats("acceptance")
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "pre-restart", preStats, local.Statistics())
	sameQueries(t, "pre-restart", preStats, local.Statistics())

	// Fetch what the first daemon saw, then kill it gracefully: drains,
	// snapshots the dirty session, and the process would exit 0.
	preAudit, err := d.c.Audit("acceptance", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "acceptance.snap")); err != nil {
		t.Fatalf("shutdown did not snapshot the dirty session: %v", err)
	}
	d.ts.Close()

	// Warm restart: a fresh daemon over the same snapshot directory
	// resumes the session.
	d2 := startDaemon(t, server.Config{SnapshotDir: dir, AuditLimit: -1})
	info2, err := d2.c.Session("acceptance")
	if err != nil {
		t.Fatalf("restored session missing: %v", err)
	}
	if !info2.Restored {
		t.Fatal("restored session not marked Restored")
	}
	d = d2

	for i, ch := range chunks[half:] {
		serve(ch, half+i)
	}

	// End state: specialized source byte-identical to the local engine.
	src, err := d.c.Source("acceptance", "specialized")
	if err != nil {
		t.Fatal(err)
	}
	if want := ast.Print(local.SpecializedProgram()); src != want {
		t.Fatalf("specialized source diverged after %d updates:\n--- daemon ---\n%.400s\n--- local ---\n%.400s", streamLen, src, want)
	}

	// Stats: full engine-counter equality with the uninterrupted local
	// run (outcomes, batch accounting).
	st, err := d.c.Stats("acceptance")
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "acceptance", st, local.Statistics())

	// Audit: pre-shutdown records plus post-restart records must equal
	// the local engine's single uninterrupted trail, with continuous
	// sequence numbers across the restart.
	postAudit, err := d.c.Audit("acceptance", 0)
	if err != nil {
		t.Fatal(err)
	}
	combined := append(slices.Clone(preAudit.Records), postAudit.Records...)
	sameAuditRecords(t, "acceptance", combined, localTrail.Records())
	for i, r := range combined {
		if r.Seq != i+1 {
			t.Fatalf("audit record %d has seq %d: sequence not continuous across restart", i, r.Seq)
		}
	}

	// The metrics endpoint must cover the engine under this traffic.
	text, err := d.c.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"flay_core_update_ns{quantile=\"0.99\"}",
		"# TYPE flay_core_update_ns summary",
		"flay_core_forwarded", "flay_core_recompiled",
		"flay_core_query_literal", "flay_core_query_width",
		"flay_core_query_dd", "flay_core_query_unproven",
		"flay_server_write_ns_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestBootSkipsOlderFormatSnapshot is the upgrade story of a snapshot
// format bump: a daemon that finds a snapshot written in an earlier
// format version logs it, counts it and boots without that session —
// it neither refuses to start nor panics — and the name is free again.
func TestBootSkipsOlderFormatSnapshot(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, server.Config{SnapshotDir: dir})
	if _, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "old", Catalog: "fig3"}); err != nil {
		t.Fatal(err)
	}
	if err := d.srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	d.ts.Close()
	path := filepath.Join(dir, "old.snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("shutdown left no snapshot: %v", err)
	}
	data[len("goflay-snap")]-- // the format version byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	d = startDaemon(t, server.Config{SnapshotDir: dir})
	if _, err := d.c.Session("old"); !client.IsStatus(err, http.StatusNotFound) {
		t.Fatalf("session restored from an older-format snapshot: %v", err)
	}
	text, err := d.c.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "flay_server_restore_failures 1\n") {
		t.Fatalf("/metrics does not count the failed restore:\n%s", text)
	}
	if _, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "old", Catalog: "fig3"}); err != nil {
		t.Fatalf("recreating the session the daemon could not restore: %v", err)
	}
}

// TestSessionFromSnapshotBytes round-trips warm state through the API
// itself: snapshot a session over HTTP, delete it, recreate it from the
// returned bytes, and continue streaming with full equivalence.
func TestSessionFromSnapshotBytes(t *testing.T) {
	d := startDaemon(t, server.Config{AuditLimit: -1})
	if _, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "s1", Catalog: "fig3"}); err != nil {
		t.Fatal(err)
	}
	local, _ := localEngine(t, "fig3")
	stream, err := fuzz.New(local.An, 7).Stream(200)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range stream[:100] {
		if _, err := d.c.Write("s1", wire.ModeSingle, []*controlplane.Update{u}); err != nil {
			t.Fatal(err)
		}
		local.Apply(u)
	}
	snap, err := d.c.Snapshot("s1")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Bytes == 0 || len(snap.Snapshot) != snap.Bytes {
		t.Fatalf("bad snapshot response: bytes=%d len=%d", snap.Bytes, len(snap.Snapshot))
	}
	if err := d.c.DeleteSession("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.c.Session("s1"); !client.IsStatus(err, http.StatusNotFound) {
		t.Fatalf("deleted session still answers: %v", err)
	}
	if _, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "s1", Snapshot: snap.Snapshot}); err != nil {
		t.Fatalf("recreate from snapshot bytes: %v", err)
	}
	for _, u := range stream[100:] {
		resp, err := d.c.Write("s1", wire.ModeSingle, []*controlplane.Update{u})
		if err != nil {
			t.Fatal(err)
		}
		sameWireDecision(t, "resumed", 0, resp.Decisions[0], local.Apply(u))
	}
	st, err := d.c.Stats("s1")
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "snapshot-bytes", st, local.Statistics())
}

// TestDrainRejectsNewWrites: after Shutdown the daemon answers health
// as draining and refuses new writes and sessions without crashing.
func TestDrainRejectsNewWrites(t *testing.T) {
	d := startDaemon(t, server.Config{})
	if _, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "s", Catalog: "fig3"}); err != nil {
		t.Fatal(err)
	}
	local, _ := localEngine(t, "fig3")
	stream, err := fuzz.New(local.An, 3).Stream(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	h, err := d.c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Fatalf("health after shutdown: %q, want draining", h.Status)
	}
	if _, err := d.c.Write("s", "", stream[:1]); !client.IsStatus(err, http.StatusServiceUnavailable) || !errors.Is(err, flayerr.ErrDraining) {
		t.Fatalf("write after shutdown: %v, want 503 draining", err)
	}
	if _, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "s2", Catalog: "fig3"}); !client.IsStatus(err, http.StatusServiceUnavailable) || !errors.Is(err, flayerr.ErrDraining) {
		t.Fatalf("create after shutdown: %v, want 503 draining", err)
	}
	// Reads still work during drain.
	if _, err := d.c.Stats("s"); err != nil {
		t.Fatalf("stats during drain: %v", err)
	}
}

// TestShutdownSkipsCleanSessions: a restored, untouched session is not
// re-snapshotted on the next shutdown.
func TestShutdownSkipsCleanSessions(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, server.Config{SnapshotDir: dir})
	if _, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "clean", Catalog: "fig3"}); err != nil {
		t.Fatal(err)
	}
	if err := d.srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	d.ts.Close()

	met := obs.NewRegistry()
	d2 := startDaemon(t, server.Config{SnapshotDir: dir, Metrics: met})
	if n := met.Counter("server.sessions_restored").Value(); n != 1 {
		t.Fatalf("restored %d sessions, want 1", n)
	}
	if err := d2.srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if n := met.Counter("server.snapshots_written").Value(); n != 0 {
		t.Fatalf("clean session was re-snapshotted %d times", n)
	}
}

// TestAPIErrors pins the HTTP error surface: invalid bodies, names,
// catalogs, duplicate sessions, unknown sessions and bad queries.
func TestAPIErrors(t *testing.T) {
	d := startDaemon(t, server.Config{})
	if _, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "dup", Catalog: "fig3"}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		status int
		run    func() error
	}{
		{"duplicate session", http.StatusConflict, func() error {
			_, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "dup", Catalog: "fig3"})
			return err
		}},
		{"unknown catalog", http.StatusUnprocessableEntity, func() error {
			_, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "x", Catalog: "nope"})
			return err
		}},
		{"bad source", http.StatusUnprocessableEntity, func() error {
			_, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "x", Source: "not p4"})
			return err
		}},
		{"bad name", http.StatusBadRequest, func() error {
			_, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "../evil", Catalog: "fig3"})
			return err
		}},
		{"no program", http.StatusBadRequest, func() error {
			_, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "x"})
			return err
		}},
		{"future version", http.StatusBadRequest, func() error {
			_, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "x", Catalog: "fig3", Version: wire.Version + 1})
			return err
		}},
		{"unknown session write", http.StatusNotFound, func() error {
			_, err := d.c.Write("ghost", "", []*controlplane.Update{{Kind: controlplane.FillRegister}})
			return err
		}},
		{"unknown session stats", http.StatusNotFound, func() error {
			_, err := d.c.Stats("ghost")
			return err
		}},
		{"delete unknown", http.StatusNotFound, func() error { return d.c.DeleteSession("ghost") }},
		{"bad source which", http.StatusBadRequest, func() error {
			_, err := d.c.Source("dup", "annotated")
			return err
		}},
	}
	for _, c := range cases {
		if err := c.run(); !client.IsStatus(err, c.status) {
			t.Errorf("%s: got %v, want HTTP %d", c.name, err, c.status)
		}
	}

	// Raw malformed bodies (the client can't produce these).
	for _, body := range []string{`{"updates":[],"bogus":1}`, `{"updates":[`, `[]`} {
		resp, err := http.Post(d.ts.URL+"/v1/sessions/dup/updates", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("malformed body %q: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	// A create request carrying a removed engine option is refused, not
	// silently served without it.
	for _, removed := range []string{`"workers":4`, `"no_dd":true`} {
		body := `{"name":"gone","catalog":"fig3",` + removed + `}`
		resp, err := http.Post(d.ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("create with %s: HTTP %d, want 400", removed, resp.StatusCode)
		}
	}
	// Oversized bodies.
	d2 := startDaemon(t, server.Config{MaxBody: 1024})
	if _, err := d2.c.CreateSession(wire.CreateSessionRequest{Name: "dup", Catalog: "fig3"}); err != nil {
		t.Fatal(err)
	}
	// The second body breaks inside the decoder's first read, well
	// before the cap: over the cap is 413 whatever the bytes.
	for _, big := range []string{
		`{"updates":[` + strings.Repeat(`{"kind":"insert"},`, 100000) + `{}]}`,
		`{"updates":]` + strings.Repeat("x", 4096),
	} {
		resp, err := http.Post(d2.ts.URL+"/v1/sessions/dup/updates", "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized body %.16q: HTTP %d, want 413", big, resp.StatusCode)
		}
	}
}

// TestAuditSincePagination: the ?since cursor returns exactly the tail.
func TestAuditSincePagination(t *testing.T) {
	d := startDaemon(t, server.Config{AuditLimit: -1})
	if _, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "a", Catalog: "fig3"}); err != nil {
		t.Fatal(err)
	}
	local, _ := localEngine(t, "fig3")
	stream, err := fuzz.New(local.An, 5).Stream(30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.c.Write("a", wire.ModeSingle, stream); err != nil {
		t.Fatal(err)
	}
	all, err := d.c.Audit("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Records) != 30 || all.Total != 30 {
		t.Fatalf("got %d records (total %d), want 30", len(all.Records), all.Total)
	}
	tail, err := d.c.Audit("a", 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail.Records) != 5 || tail.Records[0].Seq != 26 {
		t.Fatalf("since=25: got %d records starting at seq %d", len(tail.Records), tail.Records[0].Seq)
	}
}

// TestMetricsServedUnderTraffic polls /metrics concurrently with a
// write stream and requires every poll to be a valid exposition
// carrying the engine's update-latency summary.
func TestMetricsServedUnderTraffic(t *testing.T) {
	d := startDaemon(t, server.Config{})
	if _, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "m", Catalog: "fig3"}); err != nil {
		t.Fatal(err)
	}
	local, _ := localEngine(t, "fig3")
	stream, err := fuzz.New(local.An, 13).Stream(120)
	if err != nil {
		t.Fatal(err)
	}
	stopPoll := make(chan struct{})
	pollErr := make(chan error, 1)
	typeLine := regexp.MustCompile(`(?m)^# TYPE flay_core_update_ns summary$`)
	go func() {
		defer close(pollErr)
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			text, err := d.c.MetricsText()
			if err != nil {
				pollErr <- err
				return
			}
			if !typeLine.MatchString(text) {
				pollErr <- &client.APIError{Status: 200, Msg: "exposition missing update_ns summary"}
				return
			}
		}
	}()
	for i := 0; i < len(stream); i += 8 {
		if _, err := d.c.Write("m", wire.ModeBatch, stream[i:min(i+8, len(stream))]); err != nil {
			t.Fatal(err)
		}
	}
	close(stopPoll)
	if err := <-pollErr; err != nil {
		t.Fatal(err)
	}
	snap, err := d.c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Histograms["core.update_ns"].Count == 0 {
		t.Fatal("JSON metrics missing core.update_ns samples")
	}
	if snap.Counters["server.write_updates"] != int64(len(stream)) {
		t.Fatalf("server.write_updates = %d, want %d", snap.Counters["server.write_updates"], len(stream))
	}
}

// TestSessionInfoEntriesAndRuntimeGauges: session info reports per-table
// live entry counts — the wire-level hook flayload and flaysoak use to
// verify churn steady-state invariants — and a metrics scrape refreshes
// the process-health gauges the soak harness watches for flat memory.
func TestSessionInfoEntriesAndRuntimeGauges(t *testing.T) {
	d := startDaemon(t, server.Config{})
	if _, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "e", Catalog: "nat44"}); err != nil {
		t.Fatal(err)
	}
	p, err := progs.ByName("nat44")
	if err != nil {
		t.Fatal(err)
	}
	local, _ := localEngine(t, "nat44")
	cs, err := fuzz.Churn(local.An, fuzz.ChurnSpec{
		Kind: fuzz.Diurnal, Table: p.BurstTable, Updates: 48, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range cs.Batches() {
		resp, err := d.c.Write("e", wire.ModeBatch, b)
		if err != nil {
			t.Fatal(err)
		}
		for i, dec := range resp.Decisions {
			if dec.Kind == "rejected" {
				t.Fatalf("churn update %d rejected: %s", i, dec.Error)
			}
		}
	}
	info, err := d.c.Session("e")
	if err != nil {
		t.Fatal(err)
	}
	if info.Entries == nil {
		t.Fatal("session info has no entries map")
	}
	if got := info.Entries[p.BurstTable]; got != cs.WantLive {
		t.Fatalf("entries[%s] = %d over the wire, churn invariant wants %d", p.BurstTable, got, cs.WantLive)
	}
	if len(info.Entries) != len(info.Tables) {
		t.Fatalf("entries map covers %d tables, session has %d", len(info.Entries), len(info.Tables))
	}
	snap, err := d.c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"server.heap_alloc_bytes", "server.heap_sys_bytes", "server.heap_objects", "server.goroutines"} {
		if snap.Gauges[g] <= 0 {
			t.Fatalf("gauge %s = %d after a scrape, want > 0", g, snap.Gauges[g])
		}
	}
}

// TestExplainEndpoint drives the decision-diagram introspection API
// over the wire: a hosted session and a local engine ingest the same
// update stream, then every point of one table is explained through
// GET /v1/sessions/{name}/explain and cross-checked against the local
// engine's Explain. Also pins the query-parameter contract (point-only
// lookup, membership check, and the no-filter error).
func TestExplainEndpoint(t *testing.T) {
	const (
		prog = "fig3"
		seed = 7
	)
	d := startDaemon(t, server.Config{})
	info, err := d.c.CreateSession(wire.CreateSessionRequest{Name: "xp", Catalog: prog})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	if len(info.Tables) == 0 {
		t.Fatal("session reports no tables")
	}

	local, _ := localEngine(t, prog)
	stream, err := fuzz.New(local.An, seed).Stream(200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.c.Write("xp", wire.ModeBatch, stream); err != nil {
		t.Fatalf("write: %v", err)
	}
	local.ApplyBatch(stream)

	table := info.Tables[0]
	resp, err := d.c.Explain("xp", table, -1)
	if err != nil {
		t.Fatalf("explain table %q: %v", table, err)
	}
	if resp.Table != table {
		t.Fatalf("response echoes table %q, want %q", resp.Table, table)
	}
	if len(resp.Points) == 0 {
		t.Fatalf("table %q explained zero points", table)
	}
	for _, ex := range resp.Points {
		if ex.Verdict == "" || ex.Query == "" || ex.Kind == "" {
			t.Fatalf("point %d: incomplete explanation %+v", ex.Point, ex)
		}
		if ex.Source != "literal" && ex.Source != "dd" && ex.Source != "width" && ex.Source != "unproven" {
			t.Fatalf("point %d: source %q, want literal, dd, width or unproven", ex.Point, ex.Source)
		}
		if (ex.Source == "width") != (ex.FreeBits > 0) {
			t.Fatalf("point %d: source %q with %d free bits", ex.Point, ex.Source, ex.FreeBits)
		}
		want, err := local.Explain(ex.Point)
		if err != nil {
			t.Fatalf("local explain %d: %v", ex.Point, err)
		}
		if ex.Verdict != want.Verdict || ex.Query != want.Query {
			t.Fatalf("point %d: wire verdict %s/%s, local %s/%s",
				ex.Point, ex.Query, ex.Verdict, want.Query, want.Verdict)
		}
		// Diagram-backed explanations must carry path evidence when
		// the point is live; the local engine agrees on the source.
		if ex.Source == "dd" && ex.Verdict == "live" && len(ex.Steps) == 0 && len(ex.Witness) == 0 {
			t.Fatalf("point %d: dd-sourced live verdict with no steps or witness", ex.Point)
		}
	}

	// Point-only addressing returns exactly the requested record.
	pt := resp.Points[0].Point
	one, err := d.c.Explain("xp", "", pt)
	if err != nil {
		t.Fatalf("explain point %d: %v", pt, err)
	}
	if len(one.Points) != 1 || one.Points[0].Point != pt {
		t.Fatalf("point query returned %d records (first %+v), want the one point %d",
			len(one.Points), one.Points[0], pt)
	}

	// Contract errors: some filter is mandatory, table names are
	// checked, and table+point enforces membership.
	if _, err := d.c.Explain("xp", "", -1); err == nil {
		t.Fatal("explain with neither filter succeeded")
	}
	if _, err := d.c.Explain("xp", "no-such-table", -1); !client.IsStatus(err, http.StatusNotFound) {
		t.Fatalf("unknown table: %v, want 404", err)
	}
	if _, err := d.c.Explain("xp", table, 1<<30); err == nil {
		t.Fatalf("explain accepted point 2^30 as influenced by %q", table)
	}
}

// TestEveryWayInOpensTheSameSession: HTTP create, binary attach-create,
// a replica base and a warm restart all build their session with one
// constructor, so each serves the same program under the same label,
// runs the executor when asked, keeps the configured audit limit and
// records into the server's registry.
func TestEveryWayInOpensTheSameSession(t *testing.T) {
	const (
		name  = "way"
		limit = 3
	)
	create := func(t *testing.T, c *client.Client) {
		t.Helper()
		if _, err := c.CreateSession(wire.CreateSessionRequest{Name: name, Catalog: "fig3", Exec: true}); err != nil {
			t.Fatal(err)
		}
	}
	ways := []struct {
		name string
		// open serves the session on a daemon configured with cfg.
		open func(t *testing.T, cfg server.Config) *testDaemon
	}{
		{"http-create", func(t *testing.T, cfg server.Config) *testDaemon {
			d := startDaemon(t, cfg)
			create(t, d.c)
			return d
		}},
		{"binary-attach-create", func(t *testing.T, cfg server.Config) *testDaemon {
			d, addr := startBinDaemon(t, cfg)
			bc, err := client.DialBin(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer bc.Close()
			if ok, err := bc.Attach(name, "fig3", true); err != nil || !ok.Created {
				t.Fatalf("attach-create: %+v, %v", ok, err)
			}
			return d
		}},
		{"replica-base", func(t *testing.T, cfg server.Config) *testDaemon {
			cfg.Standby = true
			standby := startDaemon(t, cfg)
			create(t, startDaemon(t, server.Config{ReplicateTo: standby.ts.URL}).c)
			standby.srv.Promote()
			return standby
		}},
		{"warm-restart", func(t *testing.T, cfg server.Config) *testDaemon {
			cfg.SnapshotDir = t.TempDir()
			d := startDaemon(t, server.Config{SnapshotDir: cfg.SnapshotDir})
			create(t, d.c)
			if err := d.srv.Shutdown(); err != nil {
				t.Fatal(err)
			}
			d.ts.Close()
			return startDaemon(t, cfg)
		}},
	}

	p := progs.Fig3()
	local, err := p.LoadWith(core.Options{Exec: true})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	stream, err := fuzz.New(local.An, 17).Stream(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range stream {
		local.Apply(u)
	}
	entries := map[string]int{}
	for _, tbl := range local.An.TableOrder {
		entries[tbl] = local.Entries(tbl)
	}
	packets, ports := randomPackets(3, 32)
	want, err := local.ExecBatch(packets, ports)
	if err != nil {
		t.Fatal(err)
	}

	for _, way := range ways {
		t.Run(way.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			d := way.open(t, server.Config{AuditLimit: limit, Metrics: reg})
			for _, u := range stream {
				if _, err := d.c.Write(name, wire.ModeSingle, []*controlplane.Update{u}); err != nil {
					t.Fatal(err)
				}
			}
			info, err := d.c.Session(name)
			if err != nil {
				t.Fatal(err)
			}
			if info.Program != p.Name || !slices.Equal(info.Tables, local.An.TableOrder) || !maps.Equal(info.Entries, entries) {
				t.Fatalf("session %q with tables %v and entries %v; want %q, %v, %v",
					info.Program, info.Tables, info.Entries, p.Name, local.An.TableOrder, entries)
			}
			resp, err := d.c.ExecBytes(name, packets, ports)
			if err != nil {
				t.Fatalf("exec: %v", err)
			}
			sameExecResults(t, "exec", resp.Results, want)
			audit, err := d.c.Audit(name, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(audit.Records) != limit || audit.Total != int64(len(stream)) {
				t.Fatalf("audit keeps %d of %d records, want %d of %d", len(audit.Records), audit.Total, limit, len(stream))
			}
			c := reg.Snapshot().Counters
			if c["core.updates"] != int64(len(stream)) || c["server.write_requests"] != int64(len(stream)) {
				t.Fatalf("registry counts %d engine updates and %d write requests, want %d each",
					c["core.updates"], c["server.write_requests"], len(stream))
			}
		})
	}
}

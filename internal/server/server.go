// Package server implements flayd's control plane: a session registry
// hosting one goflay.Pipeline per named session behind a
// P4Runtime-flavored HTTP/JSON API (internal/wire). The serving shape
// follows runtime controllers like RBFRT and Morpheus — a long-lived
// daemon on the control-plane update path — built entirely on net/http:
//
//	POST   /v1/sessions                  create/load a session
//	GET    /v1/sessions                  list sessions
//	GET    /v1/sessions/{name}           session info
//	DELETE /v1/sessions/{name}           close a session (and its snapshot)
//	POST   /v1/sessions/{name}/updates   apply updates (single or batched)
//	POST   /v1/sessions/{name}/exec      execute packets (sessions created with exec)
//	GET    /v1/sessions/{name}/stats     engine statistics
//	GET    /v1/sessions/{name}/explain   decision-diagram point explanations
//	GET    /v1/sessions/{name}/audit     decision audit records (?since=seq)
//	POST   /v1/sessions/{name}/snapshot  checkpoint warm state
//	GET    /v1/sessions/{name}/source    specialized/original P4 source
//	GET    /metrics                      Prometheus text exposition
//	GET    /v1/metrics                   metrics snapshot as JSON
//	GET    /healthz                      liveness + drain state
//
// Every session is built by one constructor (open) and every write
// enters through one admission (admit), whether it arrives over HTTP,
// the binary protocol (binserver.go) or the replica channel
// (replica.go); the handlers only decode requests and encode replies.
// Writes are funneled through a per-session dispatcher with a bounded
// queue (full queue = HTTP 429 backpressure) that folds the requests
// already queued into one ApplyBatch. Shutdown drains every queue, then
// snapshots every dirty session into the snapshot directory; New
// warm-restarts from that directory, so a restarted daemon resumes its
// sessions with audit sequence continuity.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dpexec"
	"repro/internal/flayerr"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Config tunes the daemon. The zero value serves with sane defaults
// and no persistence.
type Config struct {
	// SnapshotDir, when non-empty, enables warm restarts: sessions are
	// checkpointed there on shutdown (and on demand) and restored from
	// there on boot. The directory is created if missing.
	SnapshotDir string
	// MaxBatch bounds the updates the dispatcher folds into one round
	// from its queue (default 512).
	MaxBatch int
	// QueueDepth bounds each session's in-flight write requests; a full
	// queue answers 429 (default 64).
	QueueDepth int
	// PressureDeadline, when positive, is the latency budget the server
	// attaches to write requests that carry none while a session's
	// queue is at least half full: the engine degrades table precision
	// to meet it, shedding load before the queue fills and 429s start.
	// Zero disables pressure shedding.
	PressureDeadline time.Duration
	// MaxBody caps request bodies (default wire.DefaultMaxBody).
	MaxBody int64
	// AuditLimit bounds each session's audit ring (default 4096;
	// negative keeps every record).
	AuditLimit int
	// Metrics is the shared registry all sessions and the HTTP layer
	// record into; one is created when nil.
	Metrics *obs.Registry
	// Logf receives operational log lines (default: drop them).
	Logf func(format string, args ...any)

	// Standby boots the server as a replication target: its sessions
	// mutate only through the /v1/replica/* channel (client writes and
	// creates answer 503 with code "standby", reads are served normally)
	// until Promote flips it live.
	Standby bool
	// ReplicateTo, when non-empty, is the base URL of a standby flayd:
	// every session is base-shipped there on create/restore, and every
	// applied write round is forwarded there before it is acknowledged,
	// so a killed shard loses no accepted write.
	ReplicateTo string
	// ReplicaClient overrides the HTTP client used for replication
	// (tests; default is a dedicated pooled client).
	ReplicaClient *http.Client
}

const (
	defaultMaxBatch   = 512
	defaultQueueDepth = 64
	defaultAuditLimit = 4096
)

// Server is the session registry plus its HTTP API. Create one with
// New, serve it (it implements http.Handler), and stop it with
// Shutdown.
type Server struct {
	cfg   Config
	met   *obs.Registry
	mux   *http.ServeMux
	start time.Time

	// standby is the replication role flag; Promote flips it false.
	standby atomic.Bool
	// ship forwards rounds and base snapshots to the standby (nil when
	// replication is not configured).
	ship *shipper

	mu       sync.RWMutex
	sessions map[string]*Session
	draining bool

	// binMu/binConns track live binary-protocol connections so Shutdown
	// can close them (their read loops would otherwise block forever).
	binMu    sync.Mutex
	binConns map[io.Closer]struct{}
}

// nameRE validates session names: path- and filename-safe, no leading
// punctuation (which also rules out "." and "..").
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// New builds a server and, when a snapshot directory is configured,
// warm-restarts every session checkpointed in it. A snapshot that
// fails to restore is logged and skipped (and counted on
// server.restore_failures) rather than blocking boot.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = defaultMaxBatch
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = wire.DefaultMaxBody
	}
	if cfg.AuditLimit == 0 {
		cfg.AuditLimit = defaultAuditLimit
	} else if cfg.AuditLimit < 0 {
		cfg.AuditLimit = 0 // obs.NewTrail: <=0 keeps everything
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:      cfg,
		met:      cfg.Metrics,
		mux:      http.NewServeMux(),
		start:    time.Now(),
		sessions: make(map[string]*Session),
		binConns: make(map[io.Closer]struct{}),
	}
	s.standby.Store(cfg.Standby)
	if cfg.ReplicateTo != "" {
		s.ship = newShipper(cfg.ReplicateTo, cfg.ReplicaClient, s.met, cfg.Logf)
	}
	s.routes()
	if cfg.SnapshotDir != "" {
		if err := os.MkdirAll(cfg.SnapshotDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: snapshot dir: %w", err)
		}
		if err := s.restoreAll(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// restoreAll warm-starts every *.snap session in the snapshot dir.
func (s *Server) restoreAll() error {
	entries, err := os.ReadDir(s.cfg.SnapshotDir)
	if err != nil {
		return fmt.Errorf("server: snapshot dir: %w", err)
	}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), snapSuffix)
		if e.IsDir() || !ok {
			continue
		}
		data, err := os.ReadFile(snapPath(s.cfg.SnapshotDir, name))
		var sess *Session
		if err == nil {
			sess, err = s.open(sessionSpec{name: name, snapshot: data})
		}
		if err != nil {
			s.met.Counter("server.restore_failures").Inc()
			s.cfg.Logf("server: restoring snapshot %s: %v", e.Name(), err)
			continue
		}
		s.sessions[name] = sess
		s.met.Counter("server.sessions_restored").Inc()
		s.cfg.Logf("server: restored session %s (%d updates deep)", name, sess.pipe.Statistics().Updates)
		if s.ship != nil {
			// Seed the standby; a failure here self-heals on the first
			// round ship (409 gap -> base catch-up).
			s.ship.shipBase(sess)
		}
	}
	s.met.Gauge("server.sessions").Set(int64(len(s.sessions)))
	return nil
}

// session looks up a live session.
func (s *Server) session(name string) (*Session, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if sess, ok := s.sessions[name]; ok {
		return sess, nil
	}
	return nil, fmt.Errorf("%w %q", errNoSession, name)
}

// gate refuses client mutations on a standby (until it is promoted) and
// on a draining server.
func (s *Server) gate() error {
	if s.standby.Load() {
		return errStandby
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return ErrDraining
	}
	return nil
}

// create opens a session on a client's behalf, over HTTP or in a binary
// attach, and registers it: the gate, the one constructor, add (refused
// while draining or when the name is taken), and the base ship to the
// standby.
func (s *Server) create(spec sessionSpec) (*Session, error) {
	if err := s.gate(); err != nil {
		return nil, err
	}
	sess, err := s.open(spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	switch {
	case s.draining:
		err = ErrDraining
	case s.sessions[spec.name] != nil:
		err = fmt.Errorf("%w: %q", errExists, spec.name)
	default:
		s.sessions[spec.name] = sess
		s.met.Gauge("server.sessions").Set(int64(len(s.sessions)))
	}
	s.mu.Unlock()
	if err != nil {
		sess.close()
		return nil, err
	}
	if s.ship != nil {
		s.ship.shipBase(sess)
	}
	return sess, nil
}

// removeSession unregisters and stops a session, deleting its snapshot
// file so it does not resurrect on the next boot.
func (s *Server) removeSession(name string) bool {
	s.mu.Lock()
	sess, ok := s.sessions[name]
	if ok {
		delete(s.sessions, name)
		s.met.Gauge("server.sessions").Set(int64(len(s.sessions)))
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	sess.close()
	if s.cfg.SnapshotDir != "" {
		if err := os.Remove(snapPath(s.cfg.SnapshotDir, name)); err != nil && !os.IsNotExist(err) {
			s.cfg.Logf("server: removing snapshot for %s: %v", name, err)
		}
	}
	return true
}

// snapshotList returns the live sessions sorted by name.
func (s *Server) snapshotList() []*Session {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Shutdown gracefully stops the server: new writes are refused, every
// session's queue is drained, and every dirty session is checkpointed
// to the snapshot directory. It returns the first snapshot error (after
// attempting all of them). The HTTP listener is the caller's to close —
// typically before calling Shutdown, so in-flight handlers finish
// first.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	// Unblock binary-protocol read loops; their in-flight writes were
	// already accepted into session queues and drain below.
	s.binMu.Lock()
	for c := range s.binConns {
		c.Close()
	}
	s.binConns = make(map[io.Closer]struct{})
	s.binMu.Unlock()

	var firstErr error
	for _, sess := range s.snapshotList() {
		sess.close() // drains accepted writes
		if s.cfg.SnapshotDir == "" || !sess.dirty() {
			continue
		}
		path, err := sess.persistSnapshot()
		if err != nil {
			s.cfg.Logf("server: %v", err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s.cfg.Logf("server: snapshotted session %s -> %s", sess.name, path)
	}
	return firstErr
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.met.Counter("server.http_requests").Inc()
	s.mux.ServeHTTP(w, r)
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetricsText)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetricsJSON)
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.mux.HandleFunc("GET /v1/sessions/{name}", s.handleInfo)
	s.mux.HandleFunc("DELETE /v1/sessions/{name}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/sessions/{name}/updates", s.handleUpdates)
	s.mux.HandleFunc("POST /v1/sessions/{name}/exec", s.handleExec)
	s.mux.HandleFunc("GET /v1/sessions/{name}/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/sessions/{name}/explain", s.handleExplain)
	s.mux.HandleFunc("GET /v1/sessions/{name}/audit", s.handleAudit)
	s.mux.HandleFunc("POST /v1/sessions/{name}/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/sessions/{name}/source", s.handleSource)
	s.mux.HandleFunc("POST /v1/replica/sessions", s.handleReplicaSession)
	s.mux.HandleFunc("POST /v1/replica/sessions/{name}/rounds", s.handleReplicaRound)
	s.mux.HandleFunc("POST /v1/replica/promote", s.handleReplicaPromote)
}

// Standby reports whether the server is still a replication target.
func (s *Server) Standby() bool { return s.standby.Load() }

// Promote flips a standby live: client writes are accepted from here
// on, replica rounds are refused. Idempotent; returns the names of the
// sessions now serving.
func (s *Server) Promote() []string {
	if s.standby.CompareAndSwap(true, false) {
		s.met.Counter("server.promotions_to_active").Inc()
		s.cfg.Logf("server: promoted to active")
	}
	var names []string
	for _, sess := range s.snapshotList() {
		names = append(names, sess.name)
	}
	return names
}

func (s *Server) info(sess *Session) wire.SessionInfo {
	tables := sess.pipe.Tables()
	entries := make(map[string]int, len(tables))
	for _, tbl := range tables {
		entries[tbl] = sess.pipe.Entries(tbl)
	}
	return wire.SessionInfo{
		Name:       sess.name,
		Program:    sess.pipe.Name(),
		Tables:     tables,
		Entries:    entries,
		Stats:      wire.FromStats(sess.pipe.Statistics()),
		Restored:   sess.restored,
		Dirty:      sess.dirty(),
		AuditTotal: sess.audit.Total(),
		Epoch:      sess.pipe.Epoch(),
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n, draining := len(s.sessions), s.draining
	s.mu.RUnlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, wire.HealthResponse{
		Status:   status,
		Version:  wire.Version,
		Sessions: n,
		UptimeNS: time.Since(s.start).Nanoseconds(),
		Standby:  s.standby.Load(),
	})
}

// sampleRuntime refreshes the process-health gauges scraped alongside
// the engine metrics. Pull-based: sampled when a scrape arrives, so an
// idle daemon burns no cycles and the soak harness sees values that are
// current as of each probe.
func (s *Server) sampleRuntime() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.met.Gauge("server.heap_alloc_bytes").Set(int64(ms.HeapAlloc))
	s.met.Gauge("server.heap_sys_bytes").Set(int64(ms.HeapSys))
	s.met.Gauge("server.heap_objects").Set(int64(ms.HeapObjects))
	s.met.Gauge("server.goroutines").Set(int64(runtime.NumGoroutine()))
}

func (s *Server) handleMetricsText(w http.ResponseWriter, r *http.Request) {
	s.sampleRuntime()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.met.Snapshot().WriteProm(w, "flay"); err != nil {
		s.cfg.Logf("server: writing /metrics: %v", err)
	}
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	s.sampleRuntime()
	writeJSON(w, http.StatusOK, s.met.Snapshot())
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req wire.CreateSessionRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		s.errorf(w, http.StatusBadRequest, "%v", err)
		return
	}
	quality, _ := wire.ParseQuality(req.Quality) // validated above
	start := time.Now()
	sess, err := s.create(sessionSpec{
		name:       req.Name,
		catalog:    req.Catalog,
		source:     req.Source,
		snapshot:   req.Snapshot,
		quality:    quality,
		threshold:  req.OverapproxThreshold,
		skipParser: req.SkipParser,
		exec:       req.Exec,
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	s.cfg.Logf("server: session %s loaded %s in %v", req.Name, sess.pipe.Name(), time.Since(start).Round(time.Millisecond))
	writeJSON(w, http.StatusCreated, s.info(sess))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	var list wire.SessionList
	for _, sess := range s.snapshotList() {
		list.Sessions = append(list.Sessions, s.info(sess))
	}
	writeJSON(w, http.StatusOK, list)
}

// named resolves the {name} path segment to a session or answers 404.
func (s *Server) named(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	sess, err := s.session(r.PathValue("name"))
	if err != nil {
		s.fail(w, err)
		return nil, false
	}
	return sess, true
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	if sess, ok := s.named(w, r); ok {
		writeJSON(w, http.StatusOK, s.info(sess))
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.gate(); err != nil {
		s.fail(w, err)
		return
	}
	name := r.PathValue("name")
	if !s.removeSession(name) {
		s.fail(w, fmt.Errorf("%w %q", errNoSession, name))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.named(w, r)
	if !ok {
		return
	}
	var req wire.WriteRequest
	if !s.decode(w, r, &req) {
		return
	}
	updates, err := req.ToUpdates()
	if err != nil {
		s.errorf(w, http.StatusBadRequest, "%v", err)
		return
	}
	wr, err := s.admit(sess, updates, req.Batch(), uint64(req.DeadlineMS), req.ReqID)
	if err != nil {
		s.fail(w, err)
		return
	}
	resp, err := s.await(sess, wr)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleExec runs a packet burst through the session's current
// specialized program. Packet execution is a wait-free read against
// the published epoch's image, so it bypasses the write dispatcher —
// exec requests are never queued behind control-plane writes and never
// answer 429. The body goes through the exec codec both ways: each
// result is appended to the response as it runs, and the response
// names the epoch of the image the pin ran.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.named(w, r)
	if !ok {
		return
	}
	packets, ports, err := wire.DecodeExecRequest(r.Body, s.cfg.MaxBody)
	switch {
	case err == nil:
	case errors.Is(err, flayerr.ErrBadPacket), errors.Is(err, wire.ErrVersion):
		s.fail(w, fmt.Errorf("%w: %w", errBadRequest, err))
		return
	default:
		s.badBody(w, err)
		return
	}
	pin, err := sess.pipe.PinExec()
	if err != nil {
		s.fail(w, err)
		return
	}
	defer pin.Close()
	enc := wire.NewExecResponseEncoder(packets)
	if err := pin.RunEach(packets, ports, func(_ int, res dpexec.Result) { enc.Add(res) }); err != nil {
		s.fail(w, err)
		return
	}
	s.met.Counter("server.exec_requests").Inc()
	s.met.Counter("server.exec_packets").Add(int64(len(packets)))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(enc.Finish(pin.Epoch()))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if sess, ok := s.named(w, r); ok {
		writeJSON(w, http.StatusOK, wire.FromStats(sess.pipe.Statistics()))
	}
}

// handleExplain reports decision-diagram explanations of program
// points: ?table=NAME explains every point the named table influences;
// adding &point=N narrows to one point (with membership checked);
// ?point=N alone explains one point by ID. Like stats and exec it does
// not go through the session's write queue, but it is not wait-free:
// each point's residue is re-derived under the engine read lock, so it
// waits for the update in flight.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.named(w, r)
	if !ok {
		return
	}
	table := r.URL.Query().Get("table")
	rawPoint := r.URL.Query().Get("point")
	if table == "" && rawPoint == "" {
		s.errorf(w, http.StatusBadRequest, "explain wants ?table=NAME and/or ?point=N")
		return
	}
	resp := wire.ExplainResponse{Table: table}
	var ids []int
	if rawPoint != "" {
		id, err := strconv.Atoi(rawPoint)
		if err != nil || id < 0 {
			s.errorf(w, http.StatusBadRequest, "invalid point=%q", rawPoint)
			return
		}
		ids = []int{id}
	} else {
		var err error
		if ids, err = sess.pipe.Points(table); err != nil {
			s.fail(w, err)
			return
		}
	}
	for _, id := range ids {
		ex, err := sess.pipe.Explain(table, id)
		if err != nil {
			// An unknown table is still 404; the rest is a bad point.
			s.fail(w, fmt.Errorf("%w: %w", errBadRequest, err))
			return
		}
		resp.Points = append(resp.Points, ex)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.named(w, r)
	if !ok {
		return
	}
	since, okQ := intQuery(w, s, r, "since", 0)
	if !okQ {
		return
	}
	limit, okQ := intQuery(w, s, r, "limit", 0)
	if !okQ {
		return
	}
	recs := sess.audit.Records()
	if since > 0 {
		i := sort.Search(len(recs), func(i int) bool { return recs[i].Seq > since })
		recs = recs[i:]
	}
	if limit > 0 && len(recs) > limit {
		recs = recs[:limit]
	}
	writeJSON(w, http.StatusOK, wire.AuditResponse{
		Records: recs,
		Total:   sess.audit.Total(),
		Dropped: sess.audit.Dropped(),
	})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.named(w, r)
	if !ok {
		return
	}
	data, err := sess.pipe.Snapshot()
	if err != nil {
		s.fail(w, fmt.Errorf("snapshot: %w", err))
		return
	}
	resp := wire.SnapshotResponse{Name: sess.name, Bytes: len(data), Snapshot: data}
	if s.cfg.SnapshotDir != "" {
		path, err := sess.persistSnapshot()
		if err != nil {
			s.fail(w, err)
			return
		}
		resp.Path = path
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSource(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.named(w, r)
	if !ok {
		return
	}
	var src string
	switch which := r.URL.Query().Get("which"); which {
	case "", "specialized":
		src = sess.pipe.SpecializedSource()
	case "original":
		src = sess.pipe.OriginalSource()
	default:
		s.errorf(w, http.StatusBadRequest, "unknown source %q (want specialized|original)", which)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, src)
}

// decode strictly parses the request body, answering 400/413 itself.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	err := wire.Decode(r.Body, s.cfg.MaxBody, v)
	if err != nil {
		s.badBody(w, err)
	}
	return err == nil
}

// badBody answers a body wire.Decode refused: 413 over the size cap,
// 400 otherwise.
func (s *Server) badBody(w http.ResponseWriter, err error) {
	if errors.Is(err, wire.ErrTooLarge) {
		s.errorf(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	}
	s.errorf(w, http.StatusBadRequest, "%v", err)
}

func intQuery(w http.ResponseWriter, s *Server, r *http.Request, key string, def int) (int, bool) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		s.errorf(w, http.StatusBadRequest, "invalid %s=%q", key, raw)
		return 0, false
	}
	return n, true
}

func (s *Server) errorf(w http.ResponseWriter, status int, format string, args ...any) {
	s.met.Counter("server.http_errors").Inc()
	writeJSON(w, status, wire.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// fail answers a typed error with statusOf's status and a classified
// body: alongside the message, the sentinel-derived machine-readable
// code travels so clients can errors.Is across the HTTP boundary.
func (s *Server) fail(w http.ResponseWriter, err error) {
	s.met.Counter("server.http_errors").Inc()
	writeJSON(w, statusOf(err), wire.ErrorResponse{Error: err.Error(), Code: wire.CodeOf(err)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

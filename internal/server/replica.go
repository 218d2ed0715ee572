// Replication: snapshot-shipping failover between an active shard and
// its standby.
//
// The active side is the shipper. Every session is base-shipped (full
// warm-state snapshot) when it is created or restored, and after that
// every applied write round is forwarded — synchronously, before the
// round's requests are acknowledged — so an acknowledged write is
// always on the standby. The dispatcher holds the session's roundMu
// across apply+seq+ship, and the base shipper snapshots under the same
// mutex, so a base's Seq covers exactly the rounds applied before it:
// the standby can never double-apply a round that a snapshot already
// contains.
//
// The standby side hosts live pipelines (hot standby): bases restore
// into a running session, rounds apply with the active's exact
// single/batch semantics. The engine is deterministic, so the standby's
// state, audit sequence and decision stream track the active's; a
// promote is a flag flip, not a rebuild — warm restart in milliseconds.
// A round whose Seq does not extend the standby's state (or names an
// unknown session) answers 409 code "replica_gap", and the active
// catches up by re-shipping a base. A round at or below the standby's
// Seq is a duplicate re-send and acks as replayed.
//
// Caveat, documented rather than papered over: a deadline-degraded
// round can diverge (degradation depends on wall-clock budget, which
// the standby does not share). The replica channel therefore ships
// rounds without deadlines; a degraded active round may yield precise
// standby state. State remains conservative-correct, but byte-identical
// audit trails are only guaranteed for undegraded workloads.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	goflay "repro"
	"repro/internal/controlplane"
	"repro/internal/obs"
	"repro/internal/wire"
)

// shipper forwards base snapshots and write rounds to the standby.
type shipper struct {
	base string // standby base URL, e.g. http://127.0.0.1:7071
	hc   *http.Client
	met  *obs.Registry
	logf func(format string, args ...any)
}

func newShipper(base string, hc *http.Client, met *obs.Registry, logf func(string, ...any)) *shipper {
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	return &shipper{base: base, hc: hc, met: met, logf: logf}
}

// shipBase snapshots the session and ships it as a new base. Safe to
// call concurrently with the dispatcher: the snapshot and the covered
// sequence number are read under the session's roundMu.
func (sh *shipper) shipBase(sess *Session) {
	sess.roundMu.Lock()
	defer sess.roundMu.Unlock()
	sh.shipBaseLocked(sess)
}

// shipBaseLocked is shipBase for callers already holding roundMu (the
// dispatcher's gap catch-up path).
func (sh *shipper) shipBaseLocked(sess *Session) {
	data, err := sess.pipe.Snapshot()
	if err != nil {
		sh.fail("snapshot for base ship of %s: %v", sess.name, err)
		return
	}
	status, err := sh.post("/v1/replica/sessions", &wire.ReplicaSession{
		Version:  wire.Version,
		Name:     sess.name,
		Seq:      sess.repSeq,
		Snapshot: data,
	})
	if err != nil || status/100 != 2 {
		sh.fail("base ship of %s: status %d err %v", sess.name, status, err)
		return
	}
	sh.met.Counter("server.ship_bases").Inc()
}

// shipRound forwards one applied round. Called by the dispatcher under
// roundMu, after the round was applied and seq incremented, before any
// request is acknowledged. A gap answer re-ships a base, which subsumes
// the round (it was already applied locally).
func (sh *shipper) shipRound(sess *Session, seq uint64, batch bool, reqs []*writeReq) {
	start := time.Now()
	var updates []*controlplane.Update
	segs := make([]wire.ReplicaSeg, len(reqs))
	for i, r := range reqs {
		updates = append(updates, r.updates...)
		segs[i] = wire.ReplicaSeg{ReqID: r.reqID, N: len(r.updates)}
	}
	round := &wire.ReplicaRound{
		Version: wire.Version,
		Seq:     seq,
		Batch:   batch,
		Segs:    segs,
		Updates: wire.FromUpdates(updates),
	}
	status, err := sh.post("/v1/replica/sessions/"+sess.name+"/rounds", round)
	switch {
	case err == nil && status/100 == 2:
		sh.met.Counter("server.ship_rounds").Inc()
		sh.met.Histogram("server.ship_ns").ObserveDuration(time.Since(start))
	case err == nil && status == http.StatusConflict:
		// Gap: the standby restarted or missed rounds. The round is in
		// local state already, so a fresh base covers it.
		sh.met.Counter("server.ship_gaps").Inc()
		sh.shipBaseLocked(sess)
	default:
		sh.fail("round %d ship of %s: status %d err %v", seq, sess.name, status, err)
	}
}

func (sh *shipper) fail(format string, args ...any) {
	sh.met.Counter("server.ship_errors").Inc()
	sh.logf("server: replication: "+format, args...)
}

func (sh *shipper) post(path string, v any) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	resp, err := sh.hc.Post(sh.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	return resp.StatusCode, nil
}

// --- standby handlers ---

// handleReplicaSession absorbs a base snapshot: the session is restored
// into a live pipeline, superseding any previous incarnation.
func (s *Server) handleReplicaSession(w http.ResponseWriter, r *http.Request) {
	if !s.standby.Load() {
		s.errorf(w, http.StatusConflict, "not a standby")
		return
	}
	var req wire.ReplicaSession
	if !s.decode(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		s.errorf(w, http.StatusBadRequest, "%v", err)
		return
	}
	sess, err := s.open(sessionSpec{name: req.Name, snapshot: req.Snapshot})
	if err != nil {
		s.fail(w, err)
		return
	}
	sess.repSeq = req.Seq
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		sess.close()
		s.fail(w, ErrDraining)
		return
	}
	old := s.sessions[req.Name]
	s.sessions[req.Name] = sess
	s.met.Gauge("server.sessions").Set(int64(len(s.sessions)))
	s.mu.Unlock()
	if old != nil {
		old.close()
	}
	s.met.Counter("server.replica_bases").Inc()
	s.cfg.Logf("server: replica base %s at seq %d (%d updates deep)", req.Name, req.Seq, sess.pipe.Statistics().Updates)
	writeJSON(w, http.StatusCreated, s.info(sess))
}

// handleReplicaRound applies one forwarded round to the standby's live
// pipeline, preserving the active's single/batch semantics and seeding
// the idempotency cache so retried writes stay exactly-once across a
// failover.
func (s *Server) handleReplicaRound(w http.ResponseWriter, r *http.Request) {
	if !s.standby.Load() {
		s.errorf(w, http.StatusConflict, "not a standby")
		return
	}
	sess, err := s.session(r.PathValue("name"))
	if err != nil {
		s.replicaGap(w, err.Error())
		return
	}
	var req wire.ReplicaRound
	if !s.decode(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		s.errorf(w, http.StatusBadRequest, "%v", err)
		return
	}
	updates := make([]*controlplane.Update, len(req.Updates))
	for i := range req.Updates {
		u, err := wire.ToUpdate(&req.Updates[i])
		if err != nil {
			s.errorf(w, http.StatusBadRequest, "update %d: %v", i, err)
			return
		}
		updates[i] = u
	}
	sess.roundMu.Lock()
	defer sess.roundMu.Unlock()
	switch {
	case req.Seq <= sess.repSeq:
		// A re-sent round (the active retried after a partial failure);
		// its state is already absorbed.
		writeJSON(w, http.StatusOK, wire.WriteResponse{Replayed: true})
		return
	case req.Seq != sess.repSeq+1:
		s.replicaGap(w, fmt.Sprintf("round seq %d does not extend %d", req.Seq, sess.repSeq))
		return
	}
	var ds []*goflay.Decision
	if req.Batch {
		ds = sess.pipe.ApplyBatchCtx(context.Background(), updates)
	} else {
		ds = sess.pipe.ApplyAllCtx(context.Background(), updates)
	}
	sess.repSeq = req.Seq
	coalesced := len(req.Segs) > 1
	off := 0
	for _, seg := range req.Segs {
		slice := ds[off : off+seg.N]
		off += seg.N
		if seg.ReqID != "" {
			sess.dedupPut(seg.ReqID, cachedWrite{decisions: wireDecisions(slice), coalesced: coalesced})
		}
	}
	s.met.Counter("server.replica_rounds").Inc()
	writeJSON(w, http.StatusOK, wire.WriteResponse{})
}

// handleReplicaPromote flips the standby live (idempotent).
func (s *Server) handleReplicaPromote(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, wire.ReplicaPromoteResponse{Sessions: s.Promote()})
}

// replicaGap is the standby's "re-ship a base" answer.
func (s *Server) replicaGap(w http.ResponseWriter, msg string) {
	s.met.Counter("server.replica_gaps").Inc()
	writeJSON(w, http.StatusConflict, wire.ErrorResponse{Error: msg, Code: wire.CodeReplicaGap})
}

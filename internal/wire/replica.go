package wire

import "fmt"

// Replication message bodies: the snapshot-shipping channel between an
// active shard and its standby (internal/server's /v1/replica/*
// endpoints). The model is base-plus-rounds:
//
//   - ReplicaSession ships a full warm-state snapshot (the base), which
//     the standby restores into a live pipeline. A base carries the
//     round sequence number its state covers.
//   - ReplicaRound ships one applied write round — the updates of one
//     dispatcher round, with its request segmentation — which the
//     standby applies to its live pipeline with the same single/batch
//     semantics. The engine is deterministic, so the standby's state,
//     audit sequence and decision stream track the active's exactly.
//
// Rounds carry consecutive Seq numbers. A standby that is missing the
// session or sees a gap answers 409 with CodeReplicaGap, and the active
// catches it up with a fresh base (whose state subsumes the gap —
// rounds are shipped after they are applied).

// ReplicaSession ships a base snapshot to a standby.
type ReplicaSession struct {
	Version int    `json:"version,omitempty"`
	Name    string `json:"name"`
	// Seq is the round sequence the snapshot covers: the standby
	// accepts rounds starting at Seq+1.
	Seq uint64 `json:"seq"`
	// Snapshot is the Pipeline.Snapshot checkpoint (base64 in JSON). It
	// carries the program and whether the executor runs.
	Snapshot []byte `json:"snapshot"`
}

// Validate checks a base ship's shape.
func (r *ReplicaSession) Validate() error {
	if err := CheckVersion(r.Version); err != nil {
		return err
	}
	if r.Name == "" {
		return fmt.Errorf("wire: replica session name required")
	}
	if len(r.Snapshot) == 0 {
		return fmt.Errorf("wire: replica session carries no snapshot")
	}
	return nil
}

// ReplicaSeg attributes a slice of a round's updates to one original
// write request, so the standby can populate its idempotency cache
// with per-request decisions (exactly-once across failover).
type ReplicaSeg struct {
	// ReqID is the originating request's idempotency key ("" when the
	// client sent none).
	ReqID string `json:"req_id,omitempty"`
	// N is how many of the round's updates belong to this request.
	N int `json:"n"`
}

// ReplicaRound ships one applied dispatcher round.
type ReplicaRound struct {
	Version int    `json:"version,omitempty"`
	Seq     uint64 `json:"seq"`
	// Batch mirrors the active's apply semantics for the round: one
	// atomic ApplyBatch transition, or sequential single applies.
	Batch   bool         `json:"batch,omitempty"`
	Segs    []ReplicaSeg `json:"segs,omitempty"`
	Updates []Update     `json:"updates"`
}

// Validate checks a round's shape; the per-update validation happens in
// ToUpdates.
func (r *ReplicaRound) Validate() error {
	if err := CheckVersion(r.Version); err != nil {
		return err
	}
	if r.Seq == 0 {
		return fmt.Errorf("wire: replica round seq must be positive")
	}
	if len(r.Updates) == 0 {
		return fmt.Errorf("wire: replica round carries no updates")
	}
	n := 0
	for _, s := range r.Segs {
		if s.N <= 0 {
			return fmt.Errorf("wire: replica segment with %d updates", s.N)
		}
		n += s.N
	}
	if len(r.Segs) > 0 && n != len(r.Updates) {
		return fmt.Errorf("wire: replica segments cover %d of %d updates", n, len(r.Updates))
	}
	return nil
}

// ReplicaPromoteResponse answers a promote call with the sessions that
// went live.
type ReplicaPromoteResponse struct {
	Sessions []string `json:"sessions"`
}

// CodeReplicaGap is the 409 error code a standby answers when a round's
// Seq does not extend its state (or the session is unknown): the active
// must re-ship a base snapshot.
const CodeReplicaGap = "replica_gap"

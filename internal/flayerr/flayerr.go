// Package flayerr holds the typed sentinel errors shared across the
// goflay stack. They live in a leaf package (stdlib imports only) so
// every layer — controlplane validation, the core engine, the wire
// protocol, the HTTP server and the client — can wrap the same
// sentinels without import cycles; the goflay facade re-exports them as
// the public API surface.
//
// Callers classify failures with errors.Is instead of string matching:
//
//	if errors.Is(err, flayerr.ErrUnknownTable) { ... }
//
// The wire protocol carries the classification as a machine-readable
// error code (wire.CodeOf / wire.SentinelOf), so the same errors.Is
// checks work on both sides of the HTTP boundary.
package flayerr

import (
	"context"
	"errors"
	"fmt"
)

var (
	// ErrUnknownTable marks an update (or compile) against a table the
	// program does not declare.
	ErrUnknownTable = errors.New("unknown table")

	// ErrClosed marks an operation against an engine or session that has
	// been shut down.
	ErrClosed = errors.New("closed")

	// ErrDeadlineExceeded marks work abandoned because its latency budget
	// ran out. It wraps context.DeadlineExceeded, so both
	// errors.Is(err, flayerr.ErrDeadlineExceeded) and
	// errors.Is(err, context.DeadlineExceeded) hold.
	ErrDeadlineExceeded = fmt.Errorf("deadline exceeded: %w", context.DeadlineExceeded)

	// ErrSnapshotCorrupt marks snapshot bytes that failed validation:
	// truncation, checksum mismatch, or fields inconsistent with the
	// embedded program.
	ErrSnapshotCorrupt = errors.New("snapshot corrupt")

	// ErrBackpressure marks a write shed because a bounded queue was at
	// capacity (HTTP 429 on the wire).
	ErrBackpressure = errors.New("backpressure")

	// ErrExecDisabled marks a packet-execution request against an engine
	// or session that was opened without the data-plane executor.
	ErrExecDisabled = errors.New("exec disabled")

	// ErrBadPacket marks a malformed packet in a wire exec request:
	// bad hex, an oversized frame, or a missing body.
	ErrBadPacket = errors.New("bad packet")

	// ErrStandby marks a write against a standby replica: its sessions
	// mutate only through the replication channel until promotion
	// (HTTP 503 on the wire; clients re-route or retry).
	ErrStandby = errors.New("standby")

	// ErrDraining marks a write or session create refused because the
	// server is shutting down: accepted writes still drain, new ones are
	// not taken (HTTP 503 on the wire).
	ErrDraining = errors.New("draining")
)

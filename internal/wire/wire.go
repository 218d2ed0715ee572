// Package wire defines flayd's versioned HTTP/JSON wire protocol: the
// request/response bodies exchanged between the daemon
// (internal/server), the typed Go client (internal/client) and any
// curl-wielding operator. The shapes are P4Runtime-flavored — an Update
// is one Write entity, a WriteRequest is one Write RPC with single or
// batched semantics — rendered in plain JSON so the protocol needs
// nothing beyond net/http and encoding/json.
//
// Two properties the package guarantees:
//
//   - Versioned encoding. Requests carry an optional "version" field;
//     zero means "current". A peer speaking a newer major version is
//     rejected up front with ErrVersion instead of being misparsed.
//
//   - Strict decoding. Decode (codec.go) enforces a body size cap,
//     rejects unknown fields and trailing data, and every conversion
//     into engine vocabulary (bitvector widths, match kinds, update
//     shapes) validates before constructing values — malformed input
//     yields an error, never a panic. FuzzWireDecode holds the package
//     to that.
package wire

import (
	"errors"
	"fmt"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/flayerr"
	"repro/internal/obs"
)

// Version is the current protocol version. It is bumped on any change
// an old peer could misinterpret; additive optional fields do not bump
// it.
const Version = 1

// CheckVersion validates a request's version field (0 = current).
func CheckVersion(v int) error {
	if v != 0 && v != Version {
		return fmt.Errorf("%w: got %d, speak %d", ErrVersion, v, Version)
	}
	return nil
}

// ErrVersion marks a protocol version mismatch.
var ErrVersion = fmt.Errorf("wire: unsupported protocol version")

// BV is the wire form of a bitvector: an explicit width plus the value
// in fixed-length lowercase hex ((w+3)/4 nibbles, most significant
// first). {"w":32,"hex":"0a000001"} is 10.0.0.1/32.
type BV struct {
	W   uint16 `json:"w"`
	Hex string `json:"hex"`
}

// FieldMatch is one key component of a table entry.
type FieldMatch struct {
	// Kind is one of "exact", "ternary", "lpm", "optional".
	Kind  string `json:"kind"`
	Value BV     `json:"value"`
	// Mask applies to ternary matches; omitted means match-anything.
	Mask *BV `json:"mask,omitempty"`
	// PrefixLen applies to lpm matches.
	PrefixLen int `json:"prefix_len,omitempty"`
	// Wildcard marks an omitted optional match.
	Wildcard bool `json:"wildcard,omitempty"`
}

// TableEntry is one match-action entry.
type TableEntry struct {
	Priority int          `json:"priority,omitempty"`
	Matches  []FieldMatch `json:"matches"`
	Action   string       `json:"action"`
	Params   []BV         `json:"params,omitempty"`
}

// ActionCall names an action with bound parameters.
type ActionCall struct {
	Name   string `json:"name"`
	Params []BV   `json:"params,omitempty"`
}

// ValueSetMember is one parser value-set member.
type ValueSetMember struct {
	Value BV  `json:"value"`
	Mask  *BV `json:"mask,omitempty"`
}

// Update kind spellings, matching controlplane.UpdateKind.String().
const (
	KindInsert       = "insert"
	KindModify       = "modify"
	KindDelete       = "delete"
	KindSetDefault   = "set-default"
	KindSetValueSet  = "set-value-set"
	KindFillRegister = "fill-register"
)

// Update is one control-plane write. Exactly the fields of its kind
// may be set; ToUpdate rejects chimeras (e.g. an insert that also names
// a register) so a mistyped request fails loudly instead of applying
// half of what the caller meant.
type Update struct {
	Kind     string           `json:"kind"`
	Table    string           `json:"table,omitempty"`
	Entry    *TableEntry      `json:"entry,omitempty"`
	Default  *ActionCall      `json:"default,omitempty"`
	ValueSet string           `json:"value_set,omitempty"`
	Members  []ValueSetMember `json:"members,omitempty"`
	Register string           `json:"register,omitempty"`
	Fill     *BV              `json:"fill,omitempty"`
}

// CreateSessionRequest loads one named session. Exactly one program
// source must be given: Catalog (a progs catalog name), Source (P4
// source text), or Snapshot (Pipeline.Snapshot bytes, base64 in JSON).
type CreateSessionRequest struct {
	Version int    `json:"version,omitempty"`
	Name    string `json:"name"`

	Catalog  string `json:"catalog,omitempty"`
	Source   string `json:"source,omitempty"`
	Snapshot []byte `json:"snapshot,omitempty"`

	// Engine options (zero values = engine defaults).
	SkipParser          bool   `json:"skip_parser,omitempty"`
	OverapproxThreshold int    `json:"overapprox_threshold,omitempty"`
	Quality             string `json:"quality,omitempty"` // full | no-narrowing | dce-only | none
	// Exec enables the data-plane executor for the session, making
	// POST /v1/sessions/{name}/exec available.
	Exec bool `json:"exec,omitempty"`
}

// Stats is the wire form of core.Stats (durations as nanoseconds).
type Stats struct {
	Points         int   `json:"points"`
	Tables         int   `json:"tables"`
	AnalysisNS     int64 `json:"analysis_ns"`
	PreprocessNS   int64 `json:"preprocess_ns"`
	Updates        int   `json:"updates"`
	Forwarded      int   `json:"forwarded"`
	Recompilations int   `json:"recompilations"`
	Rejected       int   `json:"rejected"`
	UpdateNS       int64 `json:"update_ns"`
	Batches        int   `json:"batches"`
	BatchedUpdates int   `json:"batched_updates"`
	Coalesced      int   `json:"coalesced"`
	EvalNS         int64 `json:"eval_ns"`
	// Always zero, like the core.Stats fields they mirror: kept only for
	// bench/fleet_small.go, which still reads them for
	// core.cache_hit_share, until the ROADMAP item that retires the
	// legacy benchmark estate drops the metric and these with it.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`

	// Decision-diagram query-core counters.
	DDQueries   int64 `json:"dd_queries,omitempty"`
	DDFallbacks int64 `json:"dd_fallbacks,omitempty"`
	DDCompiles  int64 `json:"dd_compiles,omitempty"`
	DDNodes     int   `json:"dd_nodes,omitempty"`

	// Adaptive precision controller counters.
	Degradations    int `json:"degradations,omitempty"`
	Promotions      int `json:"promotions,omitempty"`
	DegradedTables  int `json:"degraded_tables,omitempty"`
	UnsoundDegraded int `json:"unsound_degraded,omitempty"`
}

// FromStats converts engine statistics to their wire form.
func FromStats(s core.Stats) Stats {
	return Stats{
		Points:          s.Points,
		Tables:          s.Tables,
		AnalysisNS:      s.AnalysisTime.Nanoseconds(),
		PreprocessNS:    s.PreprocessTime.Nanoseconds(),
		Updates:         s.Updates,
		Forwarded:       s.Forwarded,
		Recompilations:  s.Recompilations,
		Rejected:        s.Rejected,
		UpdateNS:        s.UpdateTime.Nanoseconds(),
		Batches:         s.Batches,
		BatchedUpdates:  s.BatchedUpdates,
		Coalesced:       s.Coalesced,
		EvalNS:          s.EvalTime.Nanoseconds(),
		CacheHits:       s.CacheHits,
		CacheMisses:     s.CacheMisses,
		DDQueries:       s.DDQueries,
		DDFallbacks:     s.DDFallbacks,
		DDCompiles:      s.DDCompiles,
		DDNodes:         s.DDNodes,
		Degradations:    s.Degradations,
		Promotions:      s.Promotions,
		DegradedTables:  s.DegradedTables,
		UnsoundDegraded: s.UnsoundDegraded,
	}
}

// SessionInfo describes one live session.
type SessionInfo struct {
	Name    string   `json:"name"`
	Program string   `json:"program"`
	Tables  []string `json:"tables,omitempty"`
	// Entries maps each table to its live entry count, so clients can
	// verify steady-state invariants (e.g. churn WantLive) over the wire.
	Entries map[string]int `json:"entries,omitempty"`
	Stats   Stats          `json:"stats"`
	// Restored marks a session warm-started from a snapshot.
	Restored bool `json:"restored,omitempty"`
	// Dirty reports state-changing updates since the last snapshot.
	Dirty bool `json:"dirty,omitempty"`
	// AuditTotal is the number of audit records ever appended.
	AuditTotal int64 `json:"audit_total,omitempty"`
	// Epoch is the engine's published epoch sequence number — the
	// wait-free read-state version clients can correlate snapshots and
	// stats against (it advances on every mutating call).
	Epoch uint64 `json:"epoch,omitempty"`
}

// SessionList is the GET /v1/sessions response.
type SessionList struct {
	Sessions []SessionInfo `json:"sessions"`
}

// Explanation is one program point's introspection record. The engine
// type already carries wire-stable json tags, so it travels as-is.
type Explanation = core.Explanation

// ExplainResponse is the GET /v1/sessions/{name}/explain response:
// introspection records for every requested program point, each derived
// under the engine read lock from the published epoch it names.
type ExplainResponse struct {
	// Table echoes the ?table= filter, empty for a point-only query.
	Table  string         `json:"table,omitempty"`
	Points []*Explanation `json:"points"`
}

// Write modes.
const (
	// ModeSingle applies the request's updates one at a time
	// (sequential Apply semantics).
	ModeSingle = "single"
	// ModeBatch applies them as one atomic ApplyBatch transition.
	ModeBatch = "batch"
)

// WriteRequest streams updates into a session. Mode defaults to
// ModeSingle for one update and ModeBatch for several. When the server
// runs a coalescing window, concurrent requests may be funneled into a
// shared ApplyBatch regardless of mode; decisions are still returned
// per request, in order.
type WriteRequest struct {
	Version int      `json:"version,omitempty"`
	Mode    string   `json:"mode,omitempty"`
	Updates []Update `json:"updates"`
	// DeadlineMS is the request's latency budget in milliseconds
	// (optional; 0 = none). The server turns it into a context deadline
	// for the engine, which may degrade table precision to honor it —
	// affected decisions come back with "precision":"degraded".
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// ReqID is an optional idempotency key. A session remembers the
	// decisions of recently served IDs and answers a duplicate from
	// that cache instead of re-applying, so a client retrying a write
	// whose response was lost (crash, failover) lands it exactly once.
	ReqID string `json:"req_id,omitempty"`
}

// Decision is the wire form of one core.Decision.
type Decision struct {
	Kind           string   `json:"kind"` // forward | recompile | rejected
	Target         string   `json:"target,omitempty"`
	Update         string   `json:"update,omitempty"`
	AffectedPoints int      `json:"affected_points"`
	ChangedPoints  []int    `json:"changed_points,omitempty"`
	Components     []string `json:"components,omitempty"`
	ImplChange     string   `json:"impl_change,omitempty"`
	ElapsedNS      int64    `json:"elapsed_ns"`
	// Precision is "degraded" when the verdict was computed under a
	// deadline-forced overapproximated assignment (conservative, never
	// wrong), empty for precise decisions.
	Precision string `json:"precision,omitempty"`
	Error     string `json:"error,omitempty"`
	// ErrorCode is the machine-readable classification of Error (the
	// same code vocabulary as ErrorResponse.Code).
	ErrorCode string `json:"error_code,omitempty"`
}

// FromDecision converts an engine decision to its wire form.
func FromDecision(d *core.Decision) Decision {
	out := Decision{
		Kind:           d.Kind.String(),
		AffectedPoints: d.AffectedPoints,
		ChangedPoints:  d.ChangedPoints,
		Components:     d.Components,
		ImplChange:     d.ImplementationChange,
		ElapsedNS:      d.Elapsed.Nanoseconds(),
	}
	if d.Degraded {
		out.Precision = "degraded"
	}
	if d.Update != nil {
		out.Target = d.Update.Target()
		out.Update = d.Update.String()
	}
	if d.Err != nil {
		out.Error = d.Err.Error()
		out.ErrorCode = CodeOf(d.Err)
	}
	return out
}

// WriteResponse returns one decision per submitted update, in order.
type WriteResponse struct {
	Decisions []Decision `json:"decisions"`
	// Coalesced is set when the server folded this request into a
	// shared batch with at least one other concurrent request.
	Coalesced bool `json:"coalesced,omitempty"`
	// Replayed is set when the response was served from the session's
	// idempotency cache (duplicate req_id) without re-applying.
	Replayed bool `json:"replayed,omitempty"`
}

// AuditResponse is a slice of the session's decision audit trail.
type AuditResponse struct {
	Records []obs.AuditRecord `json:"records"`
	// Total counts records ever appended; Dropped counts ring
	// evictions. Records beyond the ring are gone — a reader that needs
	// everything must poll with ?since= faster than the ring turns over.
	Total   int64 `json:"total"`
	Dropped int64 `json:"dropped"`
}

// SnapshotResponse carries one warm-state checkpoint.
type SnapshotResponse struct {
	Name string `json:"name"`
	// Bytes is len(Snapshot).
	Bytes int `json:"bytes"`
	// Path is the server-side snapshot file, when persistence is on.
	Path string `json:"path,omitempty"`
	// Snapshot is the checkpoint itself (base64 in JSON); feed it to
	// CreateSessionRequest.Snapshot or goflay.Restore.
	Snapshot []byte `json:"snapshot,omitempty"`
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status   string `json:"status"` // "ok" | "draining" | "degraded"
	Version  int    `json:"version"`
	Sessions int    `json:"sessions"`
	UptimeNS int64  `json:"uptime_ns"`
	// Standby marks a replication target that has not been promoted:
	// it serves reads but refuses client writes.
	Standby bool `json:"standby,omitempty"`
	// Shards is the per-shard detail when the responder is a flayfront
	// fronting a fleet; empty for a single daemon. Status is "degraded"
	// while any shard is unhealthy.
	Shards []ShardHealth `json:"shards,omitempty"`
}

// ShardHealth is one shard's row in a front door's health report.
type ShardHealth struct {
	Name       string `json:"name"`
	Addr       string `json:"addr"`
	Healthy    bool   `json:"healthy"`
	FailedOver bool   `json:"failed_over"`
	HasStandby bool   `json:"has_standby"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is the machine-readable error classification (one of the
	// Code* constants), empty for unclassified errors. The client maps
	// it back to the goflay sentinel, so errors.Is works across the
	// HTTP boundary.
	Code string `json:"code,omitempty"`
}

// Machine-readable error codes, the wire form of the goflay sentinel
// errors (internal/flayerr).
const (
	CodeUnknownTable     = "unknown_table"
	CodeClosed           = "closed"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeSnapshotCorrupt  = "snapshot_corrupt"
	CodeBackpressure     = "backpressure"
	CodeExecDisabled     = "exec_disabled"
	CodeBadPacket        = "bad_packet"
	CodeStandby          = "standby"
)

// CodeOf classifies an error against the sentinel set; it returns ""
// for errors outside the classification.
func CodeOf(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, flayerr.ErrUnknownTable):
		return CodeUnknownTable
	case errors.Is(err, flayerr.ErrDeadlineExceeded):
		return CodeDeadlineExceeded
	case errors.Is(err, flayerr.ErrSnapshotCorrupt):
		return CodeSnapshotCorrupt
	case errors.Is(err, flayerr.ErrBackpressure):
		return CodeBackpressure
	case errors.Is(err, flayerr.ErrClosed):
		return CodeClosed
	case errors.Is(err, flayerr.ErrExecDisabled):
		return CodeExecDisabled
	case errors.Is(err, flayerr.ErrBadPacket):
		return CodeBadPacket
	case errors.Is(err, flayerr.ErrStandby):
		return CodeStandby
	default:
		return ""
	}
}

// SentinelOf is CodeOf's inverse: the sentinel a wire code stands for,
// nil for unknown or empty codes.
func SentinelOf(code string) error {
	switch code {
	case CodeUnknownTable:
		return flayerr.ErrUnknownTable
	case CodeClosed:
		return flayerr.ErrClosed
	case CodeDeadlineExceeded:
		return flayerr.ErrDeadlineExceeded
	case CodeSnapshotCorrupt:
		return flayerr.ErrSnapshotCorrupt
	case CodeBackpressure:
		return flayerr.ErrBackpressure
	case CodeExecDisabled:
		return flayerr.ErrExecDisabled
	case CodeBadPacket:
		return flayerr.ErrBadPacket
	case CodeStandby:
		return flayerr.ErrStandby
	default:
		return nil
	}
}

// quality spellings, matching core.Quality.String().
var qualities = map[string]core.Quality{
	"":             core.QualityFull,
	"full":         core.QualityFull,
	"no-narrowing": core.QualityNoNarrowing,
	"dce-only":     core.QualityDCEOnly,
	"none":         core.QualityNone,
}

// ParseQuality maps a wire quality spelling to the engine enum.
func ParseQuality(s string) (core.Quality, error) {
	q, ok := qualities[s]
	if !ok {
		return 0, fmt.Errorf("wire: unknown quality %q", s)
	}
	return q, nil
}

// Validate checks a create request's shape (name handling and source
// exclusivity are the server's concern; this is pure wire validity).
func (r *CreateSessionRequest) Validate() error {
	if err := CheckVersion(r.Version); err != nil {
		return err
	}
	if r.Name == "" {
		return fmt.Errorf("wire: session name required")
	}
	n := 0
	if r.Catalog != "" {
		n++
	}
	if r.Source != "" {
		n++
	}
	if len(r.Snapshot) > 0 {
		n++
	}
	if n != 1 {
		return fmt.Errorf("wire: exactly one of catalog, source, snapshot required (got %d)", n)
	}
	if _, err := ParseQuality(r.Quality); err != nil {
		return err
	}
	return nil
}

// ToUpdates validates and converts a write request into engine updates.
func (r *WriteRequest) ToUpdates() ([]*controlplane.Update, error) {
	if err := CheckVersion(r.Version); err != nil {
		return nil, err
	}
	switch r.Mode {
	case "", ModeSingle, ModeBatch:
	default:
		return nil, fmt.Errorf("wire: unknown write mode %q", r.Mode)
	}
	if len(r.Updates) == 0 {
		return nil, fmt.Errorf("wire: write request carries no updates")
	}
	if r.DeadlineMS < 0 {
		return nil, fmt.Errorf("wire: negative deadline_ms %d", r.DeadlineMS)
	}
	out := make([]*controlplane.Update, len(r.Updates))
	for i := range r.Updates {
		u, err := ToUpdate(&r.Updates[i])
		if err != nil {
			return nil, fmt.Errorf("update %d: %w", i, err)
		}
		out[i] = u
	}
	return out, nil
}

// Batch reports whether the request asks for ApplyBatch semantics
// (explicitly, or implicitly by carrying more than one update).
func (r *WriteRequest) Batch() bool {
	if r.Mode == ModeBatch {
		return true
	}
	return r.Mode == "" && len(r.Updates) > 1
}

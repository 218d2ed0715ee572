package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// PointChange records one program point whose specialization verdict
// flipped while processing an update: which query was re-answered
// ("executable" for reachability points, "constant" for value points)
// and what the verdict moved from and to.
type PointChange struct {
	Point int    `json:"point"`
	Query string `json:"query"`
	Old   string `json:"old"`
	New   string `json:"new"`
}

// AuditRecord is the audit trail's entry for one control-plane update:
// the paper's Fig.-2 decision, made inspectable. Seq is the engine's
// 1-based update sequence number (aligned with Stats.Updates); Batch is
// the ApplyBatch invocation number, 0 for sequential Apply.
type AuditRecord struct {
	Seq        int           `json:"seq"`
	Batch      int           `json:"batch,omitempty"`
	Target     string        `json:"target"`
	Update     string        `json:"update"`
	Decision   string        `json:"decision"`
	Affected   int           `json:"affected_points"`
	Changes    []PointChange `json:"changes,omitempty"`
	Components []string      `json:"components,omitempty"`
	ImplChange string        `json:"impl_change,omitempty"`
	ElapsedNS  int64         `json:"elapsed_ns"`
	// Precision marks decisions evaluated under a degraded
	// (deadline-forced overapproximated) assignment, and the adaptive
	// precision controller's own degrade/promote transition records.
	Precision string `json:"precision,omitempty"`
	Err       string `json:"error,omitempty"`
}

// Trail is the decision audit trail: an append-only, optionally bounded
// record of every specialization decision the engine makes. A nil
// *Trail is the disabled trail — Append is a zero-allocation no-op —
// so the engine carries one unconditionally. When a limit is set the
// trail keeps the most recent limit records (a ring) and counts what it
// dropped, keeping memory bounded on long-running controllers.
type Trail struct {
	mu      sync.Mutex
	recs    []AuditRecord
	start   int // ring start when full
	limit   int
	dropped int64
	total   int64
}

// NewTrail returns a trail keeping at most limit records; limit <= 0
// keeps everything.
func NewTrail(limit int) *Trail {
	return &Trail{limit: limit}
}

// Append records one decision. No-op on a nil trail.
func (t *Trail) Append(r AuditRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	if t.limit > 0 && len(t.recs) == t.limit {
		t.recs[t.start] = r
		t.start = (t.start + 1) % t.limit
		t.dropped++
		return
	}
	t.recs = append(t.recs, r)
}

// Records returns the retained records in append order.
func (t *Trail) Records() []AuditRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]AuditRecord, 0, len(t.recs))
	out = append(out, t.recs[t.start:]...)
	out = append(out, t.recs[:t.start]...)
	return out
}

// Len returns the number of retained records.
func (t *Trail) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.recs)
}

// Total returns the number of records ever appended, including dropped
// ones.
func (t *Trail) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many records the ring evicted.
func (t *Trail) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// CountByDecision tallies retained records per decision kind.
func (t *Trail) CountByDecision() map[string]int {
	out := make(map[string]int)
	for _, r := range t.Records() {
		out[r.Decision]++
	}
	return out
}

// WriteJSONL dumps the retained records as one JSON object per line —
// the `flay -audit` / `flaybench -json` interchange format.
func (t *Trail) WriteJSONL(w io.Writer) error {
	for _, r := range t.Records() {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness from
// outside the program. Names are "<layer>.<function>"; the layer is the
// module the called function belongs to.
type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent is the ID of the span that caused this one (0 = none);
	// IDs are 1-based positions in the trace file's span list.
	Parent int `json:"parent"`
	// Round is the workload round the span belongs to (0 = set-up,
	// warm-up or a probe outside any round).
	Round int `json:"round"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing switched off: begin and end cost one nil check, which is why
// end-to-end numbers never come from a traced run rather than the other
// way round.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	round int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// setRound tags the spans begun from now on with a round ID.
func (r *recorder) setRound(round int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.round = round
	r.mu.Unlock()
}

// begin opens a span and returns its ID for end and for children.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Round: r.round})
	id := len(r.spans)
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// layerOf is the module a span name belongs to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimeMS is each layer's self time: every span's duration minus the
// part of it its child spans cover, summed by layer.
func (r *recorder) selfTimeMS() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent > 0 {
			children[s.Parent-1] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range r.spans {
		self := s.End - s.Start - children[i]
		if self < 0 {
			// Children of an open-loop round overlap (two goroutines).
			self = 0
		}
		out[layerOf(s.Name)] += float64(self) / 1e6
	}
	return out
}

// traceFile is what -trace writes to bench/out/<workload>.trace.json.
type traceFile struct {
	Workload string `json:"workload"`
	Stamp    stamp  `json:"stamp"`
	Spans    []span `json:"spans"`
}

func (r *recorder) write(dir, workload string, st stamp) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	r.mu.Lock()
	data, err := json.Marshal(traceFile{Workload: workload, Stamp: st, Spans: r.spans})
	r.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

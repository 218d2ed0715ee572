package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// xorshift is the repo's deterministic test RNG.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v >> 12
	v ^= v << 25
	v ^= v >> 27
	*x = xorshift(v)
	return v * 0x2545f4914f6cdd1d
}

// TestHistogramQuantileAccuracy checks p50/p95/p99 against a sorted
// reference over 10k samples for three sample shapes. The log-linear
// buckets guarantee ≤ 1/16 relative error per sample; the assertion
// allows 10% to absorb the reference's own rank discretisation.
func TestHistogramQuantileAccuracy(t *testing.T) {
	const n = 10000
	shapes := map[string]func(i int, rng *xorshift) int64{
		// Latency-like: long-tailed, spanning several octaves.
		"longtail": func(i int, rng *xorshift) int64 {
			base := int64(1000 + rng.next()%50000)
			if i%100 == 0 {
				base *= 50 // 1% slow outliers
			}
			return base
		},
		"uniform": func(_ int, rng *xorshift) int64 { return int64(rng.next() % 1_000_000) },
		"small":   func(_ int, rng *xorshift) int64 { return int64(rng.next() % 12) },
	}
	for name, gen := range shapes {
		t.Run(name, func(t *testing.T) {
			rng := xorshift(42)
			h := &Histogram{}
			ref := make([]int64, n)
			for i := 0; i < n; i++ {
				v := gen(i, &rng)
				ref[i] = v
				h.Observe(v)
			}
			sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
			if h.Count() != n {
				t.Fatalf("count = %d, want %d", h.Count(), n)
			}
			var sum int64
			for _, v := range ref {
				sum += v
			}
			if h.Sum() != sum {
				t.Fatalf("sum = %d, want %d", h.Sum(), sum)
			}
			for _, q := range []float64{0.50, 0.95, 0.99} {
				want := ref[int(q*float64(n-1))]
				got := h.Quantile(q)
				tol := math.Max(float64(want)*0.10, 1.5)
				if math.Abs(float64(got-want)) > tol {
					t.Errorf("q%.2f = %d, reference %d (tolerance %.0f)", q, got, want, tol)
				}
			}
			if h.Quantile(0) < ref[0] || h.Quantile(1) > ref[n-1] {
				t.Errorf("quantiles escape observed [min,max]: q0=%d q1=%d range [%d,%d]",
					h.Quantile(0), h.Quantile(1), ref[0], ref[n-1])
			}
		})
	}
}

func TestHistogramEmptyAndSingle(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must read zero")
	}
	h.Observe(777)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 777 {
			t.Fatalf("single-sample q%.2f = %d, want 777", q, got)
		}
	}
	snap := h.Snapshot()
	if snap.Min != 777 || snap.Max != 777 || snap.Count != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
}

// TestRegistryConcurrent hammers one counter, one gauge and one
// histogram from many goroutines; under `make race` this doubles as the
// data-race proof for the whole instrument set. Counts must be exact —
// the instruments are atomics, not sampled.
func TestRegistryConcurrent(t *testing.T) {
	const workers, perWorker = 8, 5000
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Resolve through the registry concurrently on purpose: the
			// same name must converge to the same instrument.
			c := r.Counter("test.updates")
			g := r.Gauge("test.depth")
			h := r.Histogram("test.latency")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Max(int64(w*perWorker + i))
				h.Observe(int64(i % 1000))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("test.updates").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("test.latency").Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("test.depth").Value(); got != workers*perWorker-1 {
		t.Fatalf("gauge high-water = %d, want %d", got, workers*perWorker-1)
	}
}

// TestDisabledZeroAlloc pins the contract the hot path relies on: with
// observability disabled (nil instruments — what a Pipeline without
// Options.Tracer/Metrics carries), every instrumentation call allocates
// exactly 0 bytes.
func TestDisabledZeroAlloc(t *testing.T) {
	var tr *Trace
	var reg *Registry
	var trail *Trail
	rec := AuditRecord{Target: "t", Decision: "forward"}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("update", 0)
		tr.Attr(sp, "seq", 1)
		tr.End(sp)
		reg.Counter("core.updates").Inc()
		reg.Gauge("core.points").Set(5)
		reg.Histogram("core.latency").ObserveDuration(time.Microsecond)
		trail.Append(rec)
	})
	if allocs != 0 {
		t.Fatalf("disabled observability allocated %.1f times per op, want 0", allocs)
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace()
	root := tr.Start("update", 0)
	child := tr.Start("query", root)
	tr.Attr(child, "points", 42)
	tr.End(child)
	tr.Attr(root, "seq", 7)
	tr.End(root)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "update" || spans[0].Parent != 0 {
		t.Fatalf("root span wrong: %+v", spans[0])
	}
	if spans[1].Name != "query" || spans[1].Parent != root {
		t.Fatalf("child span wrong: %+v", spans[1])
	}
	if spans[1].EndNS < spans[1].StartNS || spans[0].EndNS < spans[1].EndNS {
		t.Fatalf("span nesting broken: root %+v child %+v", spans[0], spans[1])
	}
	if len(spans[1].Attrs) != 1 || spans[1].Attrs[0] != (Attr{Key: "points", Val: 42}) {
		t.Fatalf("child attrs wrong: %+v", spans[1].Attrs)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("jsonl lines = %d, want 2", len(lines))
	}
	var sp Span
	if err := json.Unmarshal([]byte(lines[0]), &sp); err != nil {
		t.Fatalf("jsonl line not parseable: %v", err)
	}
	if sp.Name != "update" {
		t.Fatalf("round-tripped span name %q", sp.Name)
	}
}

func TestTrailBoundedRing(t *testing.T) {
	tr := NewTrail(3)
	for seq := 1; seq <= 5; seq++ {
		tr.Append(AuditRecord{Seq: seq, Decision: "forward"})
	}
	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("retained %d records, want 3", len(recs))
	}
	for i, want := range []int{3, 4, 5} {
		if recs[i].Seq != want {
			t.Fatalf("record %d has seq %d, want %d (ring order broken)", i, recs[i].Seq, want)
		}
	}
	if tr.Dropped() != 2 || tr.Total() != 5 {
		t.Fatalf("dropped=%d total=%d, want 2/5", tr.Dropped(), tr.Total())
	}
}

func TestTrailJSONLAndCounts(t *testing.T) {
	tr := NewTrail(0)
	tr.Append(AuditRecord{Seq: 1, Target: "Ingress.t", Decision: "forward", Affected: 3})
	tr.Append(AuditRecord{Seq: 2, Target: "Ingress.t", Decision: "recompile",
		Changes: []PointChange{{Point: 9, Query: "executable", Old: "dead", New: "live"}}})
	tr.Append(AuditRecord{Seq: 3, Target: "Ingress.u", Decision: "rejected", Err: "bad entry"})

	counts := tr.CountByDecision()
	if counts["forward"] != 1 || counts["recompile"] != 1 || counts["rejected"] != 1 {
		t.Fatalf("counts wrong: %v", counts)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("jsonl lines = %d, want 3", len(lines))
	}
	var rec AuditRecord
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 2 || len(rec.Changes) != 1 || rec.Changes[0].New != "live" {
		t.Fatalf("round-tripped record wrong: %+v", rec)
	}
}

func TestBucketMonotonicAndContinuous(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 15, 16, 17, 31, 32, 63, 64, 1000, 1 << 20, 1 << 40, math.MaxInt64} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", v, b, prev)
		}
		if b >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		mid := bucketMid(b)
		// The representative must stay within one sub-bucket's width.
		if v >= 16 {
			rel := math.Abs(float64(mid-v)) / float64(v)
			if rel > 1.0/histSubCount {
				t.Fatalf("bucketMid(%d)=%d too far from %d (rel %.3f)", b, mid, v, rel)
			}
		}
		prev = b
	}
}

func TestSnapshotText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Gauge("a.gauge").Set(9)
	r.Histogram("c.hist").Observe(100)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	ai, bi, ci := strings.Index(out, "a.gauge"), strings.Index(out, "b.count"), strings.Index(out, "c.hist")
	if ai < 0 || bi < 0 || ci < 0 || !(ai < bi && bi < ci) {
		t.Fatalf("text dump not sorted or incomplete:\n%s", out)
	}
}

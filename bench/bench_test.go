package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	goflay "repro"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the registry")

// runLines runs the command in-process and returns its stdout lines.
func runLines(t *testing.T, args ...string) []string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v exited %d\nstderr: %s\nstdout: %s", args, code, stderr.String(), stdout.String())
	}
	return strings.Split(strings.TrimSpace(stdout.String()), "\n")
}

func names(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// Every workload at scale 0.02 (-seconds 0.4) runs in a few seconds, passes its
// gates, and emits exactly the six end-to-end names plus ops_*.
func TestWorkloadsAtSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if w.Name == "pkt_churn" && runtime.NumCPU() < 2 {
				t.Skip("pkt_churn needs one core per thread")
			}
			lines := runLines(t, "-workload", w.Name, "-seed", "3", "-seconds", "0.4")
			if len(lines) != 2 {
				t.Fatalf("want a record line and a result line, got %d lines", len(lines))
			}
			var rec map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
				t.Fatalf("record line: %v", err)
			}
			for _, k := range []string{"workload", "stamp", "ops_attempted", "ops_failed", "metrics"} {
				if _, ok := rec[k]; !ok {
					t.Errorf("record line lacks %q", k)
				}
			}
			var res struct {
				Correct   bool                `json:"correct"`
				Attempted int                 `json:"attempted"`
				Failed    int                 `json:"failed"`
				Metrics   map[string]reported `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("result line: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if got, want := keys(res.Metrics), sorted(names(endToEnd)); !reflect.DeepEqual(got, want) {
				t.Errorf("result metrics\n  %v\nwant exactly\n  %v", got, want)
			}
			for _, m := range endToEnd {
				if r := res.Metrics[m.Name]; r.Value <= 0 || r.Unit != m.Unit {
					t.Errorf("%s = %v %q, want a positive value in %q", m.Name, r.Value, r.Unit, m.Unit)
				}
			}
		})
	}
}

// The traced run reports exactly the per-layer names, writes its spans,
// and has a span from every layer the fleet crosses.
func TestTraceAtSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fleet_small for a few seconds")
	}
	dir := t.TempDir()
	lines := runLines(t, "--workload", "fleet_small", "--seed", "3", "--seconds", "0.4", "--trace", "1", "-out", dir)
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	if got, want := keys(res.Metrics), sorted(names(perLayer)); !reflect.DeepEqual(got, want) {
		t.Errorf("traced result metrics\n  %v\nwant exactly\n  %v", got, want)
	}
	for _, n := range []string{"binproto.encode_us", "client.ping_us", "server.exec_req_us", "dpexec.run_ns_hit"} {
		if res.Metrics[n].Value <= 0 {
			t.Errorf("%s = %v, want > 0 on fleet_small", n, res.Metrics[n].Value)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "fleet_small.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range tf.Spans {
		seen[layerOf(s.Name)] = true
		if s.End < s.Start || s.Parent < 0 || s.Parent > len(tf.Spans) {
			t.Fatalf("malformed span %+v", s)
		}
	}
	for _, layer := range []string{"p4", "dataplane", "core", "controlplane", "devcompiler", "dpexec", "bmv2",
		"binproto", "wire", "client", "cluster", "server", "bench"} {
		if !seen[layer] {
			t.Errorf("no span from layer %s in the trace", layer)
		}
	}
}

// stripParens drops parenthesized text (nested too): in the README's
// tables a gloss in parentheses may quote identifiers that are not
// metric names.
func stripParens(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '(':
			depth++
		case r == ')':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// firstCells returns the backticked names in the first cell of every
// row of the markdown table that follows the given heading.
func firstCells(t *testing.T, doc, heading string) []string {
	t.Helper()
	i := strings.Index(doc, "\n## "+heading+"\n")
	if i < 0 {
		t.Fatalf("README lost its %q section", heading)
	}
	rest := doc[i+len(heading)+5:]
	if j := strings.Index(rest, "\n## "); j >= 0 {
		rest = rest[:j]
	}
	tick := regexp.MustCompile("`([^`]+)`")
	var out []string
	for _, line := range strings.Split(rest, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cell := stripParens(strings.SplitN(line[2:], " | ", 2)[0])
		for _, m := range tick.FindAllStringSubmatch(cell, -1) {
			out = append(out, m[1])
		}
	}
	return out
}

// The README tables and BENCHMARK.json are pinned to the registry.
func TestDocsMatchRegistry(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(readme)
	var loads []string
	for _, w := range workloads {
		loads = append(loads, w.Name)
	}
	for _, c := range []struct {
		heading string
		want    []string
	}{
		{"End-to-end metrics", names(endToEnd)},
		{"Workloads", loads},
		{"Per-layer metrics", names(perLayer)},
	} {
		if got := firstCells(t, doc, c.heading); !reflect.DeepEqual(got, c.want) {
			t.Errorf("README %q table lists\n  %v\nregistry defines\n  %v", c.heading, got, c.want)
		}
	}

	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var have, want any
	if err := json.Unmarshal(file, &have); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(manifestJSON()), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(have, want) {
		if !*update {
			t.Fatalf("BENCHMARK.json differs from the registry; regenerate it with: go test ./bench -run TestDocsMatchRegistry -update")
		}
		if err := os.WriteFile("../BENCHMARK.json", []byte(manifestJSON()+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Registry hygiene the contract checks before a single run.
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s defined twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		if m.Src != "S" && m.Src != "C" {
			t.Errorf("%s: src = %q, want S or C", m.Name, m.Src)
		}
		if m.Moves != "-" && !isEndToEnd(m.Moves) {
			t.Errorf("%s should move %q, which is not an end-to-end metric", m.Name, m.Moves)
		}
		for _, on := range strings.Split(m.On, ", ") {
			if on != allLoads && workloadByName(on) == nil {
				t.Errorf("%s: on %q is not a workload", m.Name, on)
			}
		}
	}
	for _, n := range exactCounters {
		if m := findMetric(n); m == nil || isEndToEnd(n) {
			t.Errorf("exact counter %s is not a per-layer metric", n)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// The frame builders derive hits, misses and truncated frames from the
// baseline entries' match keys; the share the executor actually
// rewrites (a NAT hit rewrites ipv4.src) is 0.70 ± 0.02 and agrees
// frame for frame with the harness's oracle.
func TestFastpathShareRealized(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99} {
		e := &env{seed: seed, scale: 1, metrics: map[string]float64{}, samples: map[string]int{}, rounds: map[string][]float64{}}
		w, err := newWorld(e, "nat44", 0, natPreload(), goflay.WithExec())
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.build(nil)
		if err != nil {
			t.Fatal(err)
		}
		rewritten, big := 0, 0
		for i := 0; i < frameSets; i++ {
			frames, ports := w.frames.chunkAt(i)
			res, err := b.pipe.ExecBatch(frames, ports)
			if err != nil {
				t.Fatal(err)
			}
			for j, r := range res {
				k := i*chunk + j
				hit := !r.Dropped && len(r.Emitted) >= 30 && !bytes.Equal(r.Emitted[26:30], frames[j][26:30])
				if hit {
					rewritten++
				}
				oracle := w.frames.class[k] != classTruncated && w.lay.hitsAny(frames[j], ports[j], w.hitEntries)
				if hit != oracle || oracle != (w.frames.class[k] == classHit) {
					t.Fatalf("seed %d frame %d: executor hit=%v oracle=%v class=%d", seed, k, hit, oracle, w.frames.class[k])
				}
				if w.frames.class[k] == classTruncated && !r.ParserRejected {
					t.Fatalf("seed %d frame %d: truncated frame was not rejected by the parser", seed, k)
				}
				if len(frames[j]) == bigFrame {
					big++
				}
			}
		}
		b.pipe.Close()
		total := frameSets * chunk
		realized := float64(rewritten) / float64(total)
		if realized < 0.68 || realized > 0.72 {
			t.Errorf("seed %d: realized fastpath share %.4f, want 0.70 ± 0.02", seed, realized)
		}
		if got := e.metrics["dpexec.fastpath_share"]; got != realized {
			t.Errorf("seed %d: reported dpexec.fastpath_share %.4f, executor realized %.4f", seed, got, realized)
		}
		// Every tenth frame is 1500 B unless it is the truncated one.
		if big < total/10*8/10 || big > total/10 {
			t.Errorf("seed %d: %d big frames of %d", seed, big, total)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{10, 10, 10, 10}); got != 0 {
		t.Errorf("spread of constants = %v", got)
	}
	// Quartiles of 1..5 are 2 and 4, the median 3.
	if got := spread([]float64{5, 1, 4, 2, 3}); got != 2.0/3.0 {
		t.Errorf("spread(1..5) = %v, want 2/3", got)
	}
	if got := scaled(9, 0.02, 1); got != 1 {
		t.Errorf("scaled(9, 0.02, 1) = %d", got)
	}
}

// The quietest-round estimators: a round slowed as a whole moves
// neither the reported median nor the rescaled tail.
func TestQuietRoundEstimators(t *testing.T) {
	quiet := make([]float64, 100)
	for i := range quiet {
		quiet[i] = 1 + float64(i)/100 // 1.00 .. 1.99, p95 = 1.9405
	}
	slow := make([]float64, len(quiet))
	for i, x := range quiet {
		slow[i] = 1.5 * x
	}
	if got, want := rescaledQuantile([][]float64{slow, quiet, slow}, 0.95), quantile(quiet, 0.95); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("rescaled p95 = %v, want the quiet round's %v", got, want)
	}
	if got := best([]float64{3, 1, 2}, "lower"); got != 1 {
		t.Errorf("best lower = %v", got)
	}
	if got := best([]float64{3, 1, 2}, "higher"); got != 3 {
		t.Errorf("best higher = %v", got)
	}
	chunks := make([]time.Duration, 2*pktWindow+5)
	for i := range chunks {
		chunks[i] = chunk * time.Microsecond // 1000 ns per packet
	}
	if got := windowMeans(chunks); len(got) != 2 || got[0] != 1000 {
		t.Errorf("windowMeans = %v, want two samples of 1000 ns", got)
	}
}

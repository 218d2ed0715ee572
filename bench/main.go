// Command bench is the repository's one benchmark: four fixed-work
// workloads, six end-to-end metrics reported by every workload, and a
// per-layer budget taken from outside the program (spans around calls
// into each layer's public functions, and counters the program already
// exports). See README.md in this directory for the tables, the noise
// protocol and how the metrics interact.
//
//	go run ./bench -workload churn_batch -seed 1            # end-to-end, tracing off
//	go run ./bench -workload fleet_small -seed 1 -trace 1   # per-layer, writes bench/out/
//	go run ./bench -workload all                            # all four
//
// For every workload it prints a stamped record line (every metric by
// name with its unit, sample counts, ops_attempted/ops_failed) and then
// the result line BENCHMARK.json's contract asks for. Any failed
// correctness gate makes the exit code non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

// stamp identifies the conditions of a run; it is printed with every
// result so a number is never quoted without them.
type stamp struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
}

// commit is the VCS revision the binary was built from ("+dirty" when
// the tree had uncommitted changes), else the BENCH_COMMIT the caller
// exported (run.sh does), else "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// env is what a workload run receives and fills in.
type env struct {
	seed  uint64
	scale float64
	// rec is nil unless this is the -trace run.
	rec *recorder

	// metrics holds every number the run reports, by registry name;
	// samples the sample count behind each quantile.
	metrics map[string]float64
	samples map[string]int
	// rounds holds, per clocked end-to-end metric, its value in every
	// timed round: the reported value is the quietest round's, and the
	// record line prints them all so that nothing a run saw is hidden.
	rounds map[string][]float64
	// attempted and failed count operations (write calls, packets chunks,
	// reads) and the ones that went wrong: rejected decisions, call
	// errors, differential mismatches, lost acks.
	attempted, failed int
	// problems lists failed correctness gates; any entry makes the run
	// incorrect and the exit code non-zero.
	problems []string
}

func (e *env) traced() bool { return e.rec != nil }

func (e *env) set(name string, v float64) { e.metrics[name] = v }

func (e *env) setQ(name string, v float64, n int) {
	e.metrics[name] = v
	e.samples[name] = n
}

// gate records a failed correctness check.
func (e *env) gate(format string, args ...any) {
	e.failed++
	e.problems = append(e.problems, fmt.Sprintf(format, args...))
}

// reported is one metric as printed.
type reported struct {
	Value       float64 `json:"value"`
	Unit        string  `json:"unit"`
	SampleCount int     `json:"sample_count,omitempty"`
}

// record is the stamped line printed (and appended to history.jsonl by
// run.sh -record) for every workload run.
type record struct {
	Workload     string              `json:"workload"`
	Trace        bool                `json:"trace"`
	Stamp        stamp               `json:"stamp"`
	OpsAttempted int                 `json:"ops_attempted"`
	OpsFailed    int                 `json:"ops_failed"`
	Problems     []string            `json:"problems,omitempty"`
	Metrics      map[string]reported `json:"metrics"`
	// Rounds is every timed round's value of the clocked end-to-end
	// metrics, in the order run.
	Rounds map[string][]float64 `json:"rounds,omitempty"`
	// LayerSelfMS is the traced run's self time per layer (span minus
	// children), TraceFile where its spans were written.
	LayerSelfMS map[string]float64 `json:"layer_self_ms,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
}

// result is the last line of a run: exactly the keys the benchmark
// contract in BENCHMARK.json's driver reads.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "feeds the churn streams and frame generation, nothing else")
	seconds := fs.Float64("seconds", referenceSeconds, "target measuring time: multiplies the round counts by seconds/20, nothing else")
	trace := fs.Int("trace", 0, "1 is the per-layer run: spans around every layer call, WithMetrics/WithTracer on, writes <out>/<workload>.trace.json")
	outDir := fs.String("out", "bench/out", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := workloadByName(*name); w != nil {
		todo = append(todo, w)
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	code := 0
	for _, w := range todo {
		st := stamp{
			Commit: commit(), Go: runtime.Version(),
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Seed: *seed, Scale: *seconds / referenceSeconds,
		}
		rec, res, err := runWorkload(w, st, *trace == 1, *outDir)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		for _, p := range rec.Problems {
			fmt.Fprintf(stderr, "bench: %s: FAILED GATE: %s\n", w.Name, p)
		}
		printJSON(stdout, rec)
		printJSON(stdout, res)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func printJSON(w io.Writer, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of floats and strings are marshalled
	}
	fmt.Fprintln(w, string(data))
}

// runWorkload runs one workload and shapes what it measured into the
// record and result lines, refusing a run that did not report exactly
// the names the registry promises.
func runWorkload(w *workload, st stamp, trace bool, outDir string) (*record, *result, error) {
	e := &env{
		seed: st.Seed, scale: st.Scale,
		metrics: make(map[string]float64), samples: make(map[string]int), rounds: make(map[string][]float64),
	}
	if trace {
		e.rec = newRecorder()
	}
	if err := w.run(e); err != nil {
		return nil, nil, err
	}

	// The traced run reports the per-layer names, the plain run the
	// end-to-end names (plus the counters that repeat exactly).
	want := endToEnd
	if trace {
		want = perLayer
	}
	res := &result{
		Correct: len(e.problems) == 0, Attempted: e.attempted, Failed: e.failed,
		Metrics: make(map[string]reported, len(want)),
	}
	for _, m := range want {
		v, ok := e.metrics[m.Name]
		if !ok {
			return nil, nil, fmt.Errorf("workload did not report %s", m.Name)
		}
		res.Metrics[m.Name] = reported{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return nil, nil, fmt.Errorf("workload attempted no operation")
	}

	rec := &record{
		Workload: w.Name, Trace: trace, Stamp: st,
		OpsAttempted: e.attempted, OpsFailed: e.failed, Problems: e.problems,
		Metrics: make(map[string]reported, len(e.metrics)), Rounds: e.rounds,
	}
	for n, v := range e.metrics {
		m := findMetric(n)
		if m == nil {
			return nil, nil, fmt.Errorf("workload reported %s, which the registry does not define", n)
		}
		if !trace && !isEndToEnd(n) && !isExactCounter(n) {
			continue // clocked per-layer numbers only come from the traced run
		}
		rec.Metrics[n] = reported{Value: v, Unit: m.Unit, SampleCount: e.samples[n]}
	}
	if trace {
		rec.LayerSelfMS = e.rec.selfTimeMS()
		path, err := e.rec.write(outDir, w.Name, st)
		if err != nil {
			return nil, nil, fmt.Errorf("writing trace: %w", err)
		}
		rec.TraceFile = path
	}
	return rec, res, nil
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// manifestJSON renders BENCHMARK.json from the registry.
func manifestJSON() string {
	f := benchmarkFile{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: referenceSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, manifestLoad{Name: w.Name, Why: w.Why})
	}
	for _, m := range endToEnd {
		b := m.Bound
		f.EndToEnd = append(f.EndToEnd, manifestMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: &b})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, manifestMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(data)
}

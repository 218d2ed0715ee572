// flaybench regenerates every table and figure from the paper's
// evaluation: Table 1 (from-scratch compile times), Table 2 (analysis
// and update times per program), Table 3 (update scaling, precise vs
// overapproximate), Fig. 1 (input change rates), Fig. 3 (table
// implementation evolution), Fig. 5 (constant-propagation expressions),
// and the §4.2 SCION stage-savings and burst experiments.
//
// Usage:
//
//	flaybench [-only sections] [-full] [-json] [-o FILE]
//
// Sections: table1, fig1, fig3, fig5, table2, table3, stages, burst,
// batch, dd, precision, churn, ablation, pps, cluster. The list
// is generated from the section registry (benchSections) and pinned
// equal to it by TestSectionDocMatchesRegistry; -only takes a
// comma-separated subset ("-only burst,batch"). -full extends Table 3
// to 10000 installed entries (slow in precise mode, as in the paper).
// -json additionally writes a machine-readable report (default
// BENCH_flay.json, override with -o; "-" writes to stdout): per-section
// wall times and GOMAXPROCS plus, for the burst section, the engine's
// metrics snapshot, per-update latency quantiles and the audit trail's
// decision tally — each cross-checked exactly against the engine's own
// Statistics. Any verification failure exits non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"math/rand"

	goflay "repro"
	"repro/internal/bmv2"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/devcompiler"
	"repro/internal/dpexec"
	"repro/internal/fuzz"
	"repro/internal/obs"
	"repro/internal/p4/ast"
	"repro/internal/p4/parser"
	"repro/internal/p4/typecheck"
	"repro/internal/progs"
	"repro/internal/sym"
	"repro/internal/trace"
)

// benchReport is the -json artifact (BENCH_flay.json).
type benchReport struct {
	GOMAXPROCS int              `json:"gomaxprocs"`
	Sections   []sectionReport  `json:"sections"`
	Burst      *burstReport     `json:"burst,omitempty"`
	DD         *ddReport        `json:"dd,omitempty"`
	Precision  *precisionReport `json:"precision,omitempty"`
	Churn      *churnReport     `json:"churn,omitempty"`
	PPS        *ppsReport       `json:"pps,omitempty"`
	Cluster    *clusterReport   `json:"cluster,omitempty"`
}

type sectionReport struct {
	Name      string `json:"name"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// burstReport is the observability cross-check: the latency quantiles
// come from the core.update_ns histogram, the decision tally from the
// audit trail, and both must agree exactly with Stats.
type burstReport struct {
	Updates        int            `json:"updates"`
	Forwarded      int            `json:"forwarded"`
	Recompilations int            `json:"recompilations"`
	Rejected       int            `json:"rejected"`
	Decisions      map[string]int `json:"audit_decisions"`
	UpdateP50NS    int64          `json:"update_p50_ns"`
	UpdateP95NS    int64          `json:"update_p95_ns"`
	UpdateP99NS    int64          `json:"update_p99_ns"`
	HistCount      int64          `json:"update_hist_count"`
	Metrics        obs.Snapshot   `json:"metrics"`
}

// ddReport records the decision-diagram query core's effect on the
// precise query pass: the same burst replayed with the diagram path on
// and off, with the verdict-for-verdict differential verified before
// the report is emitted.
type ddReport struct {
	Updates      int     `json:"updates"`
	SolverEvalMS int64   `json:"solver_eval_ms"`
	DDEvalMS     int64   `json:"dd_eval_ms"`
	Speedup      float64 `json:"speedup"`
	DDQueries    int64   `json:"dd_queries"`
	DDFallbacks  int64   `json:"dd_fallbacks"`
	DDCompiles   int64   `json:"dd_compiles"`
	DDNodes      int     `json:"dd_nodes"`
}

// precisionReport records the adaptive-precision deadline experiment:
// a 10000-entry rank-deep ACL burst (every insert under the installed
// chain) driven with a per-update latency budget on a
// never-statically-overapproximating engine. The cross-checks (at least
// one degradation, p99 under the budget, zero unsound degraded
// verdicts from both the differential check and promotion) run before
// the report is emitted; a failure exits non-zero.
type precisionReport struct {
	Entries         int   `json:"entries"`
	DeadlineMS      int64 `json:"deadline_ms"`
	Degradations    int   `json:"degradations"`
	Promotions      int   `json:"promotions"`
	DegradedTables  int   `json:"degraded_tables_at_peak"`
	P50NS           int64 `json:"update_p50_ns"`
	P95NS           int64 `json:"update_p95_ns"`
	P99NS           int64 `json:"update_p99_ns"`
	MaxNS           int64 `json:"update_max_ns"`
	BaselineEntries int   `json:"baseline_entries"`
	BaselineP99NS   int64 `json:"baseline_p99_ns"`
	BaselineMaxNS   int64 `json:"baseline_max_ns"`
	DiffChecked     int   `json:"diff_checked"`
	Unsound         int   `json:"unsound"`
	AuditDegrades   int   `json:"audit_degrades"`
	AuditPromotes   int   `json:"audit_promotes"`
}

var rep = &benchReport{GOMAXPROCS: runtime.GOMAXPROCS(0)}

// benchSections is the section registry, in run order. selectSections
// validates -only against it.
var benchSections = []struct {
	name string
	run  func(full bool)
}{
	{"table1", table1},
	{"fig1", fig1},
	{"fig3", fig3},
	{"fig5", fig5},
	{"table2", table2},
	{"table3", table3},
	{"stages", stages},
	{"burst", burst},
	{"batch", batchSection},
	{"dd", ddSection},
	{"precision", precisionSection},
	{"churn", churnSection},
	{"ablation", ablation},
	{"pps", ppsSection},
	{"cluster", clusterSection},
}

func sectionNames() []string {
	names := make([]string, len(benchSections))
	for i, s := range benchSections {
		names[i] = s.name
	}
	return names
}

// selectSections resolves the -only flag against the known section
// names. Empty selects every section (nil map); an unknown name or a
// selection that matches nothing is an error — silently printing
// nothing would make a typo look like a clean run.
func selectSections(only string, known []string) (map[string]bool, error) {
	if only == "" {
		return nil, nil
	}
	k := make(map[string]bool, len(known))
	for _, n := range known {
		k[n] = true
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !k[name] {
			return nil, fmt.Errorf("unknown section %q (have %s)", name, strings.Join(known, "|"))
		}
		want[name] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("-only %q selects no sections", only)
	}
	return want, nil
}

func main() {
	only := flag.String("only", "", "comma-separated sections to run ("+strings.Join(sectionNames(), "|")+")")
	full := flag.Bool("full", false, "extend Table 3 to 10000 entries (slow in precise mode)")
	jsonOut := flag.Bool("json", false, "write a machine-readable report (see -o)")
	outPath := flag.String("o", "BENCH_flay.json", `report path for -json ("-" = stdout)`)
	flag.Parse()

	want, err := selectSections(*only, sectionNames())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, s := range benchSections {
		if len(want) > 0 && !want[s.name] {
			continue
		}
		t0 := time.Now()
		s.run(*full)
		rep.Sections = append(rep.Sections, sectionReport{
			Name:      s.name,
			ElapsedMS: time.Since(t0).Milliseconds(),
		})
		fmt.Println()
	}
	if *jsonOut {
		if err := writeReport(*outPath); err != nil {
			log.Fatal(err)
		}
	}
}

func writeReport(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", path)
	return nil
}

func header(title string) {
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
}

// ---------------------------------------------------------------------------

func table1(bool) {
	header("Table 1: from-scratch device compile times (paper vs modelled)")
	fmt.Printf("%-12s %-8s %8s %10s %12s\n", "program", "target", "paper", "model", "lowering")
	for _, name := range []string{"switch", "scion", "beaucoup", "accturbo", "dta", "middleblock", "dash"} {
		p, err := progs.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		prog, err := parser.Parse(p.Name, p.Source)
		if err != nil {
			log.Fatal(err)
		}
		res, err := devcompiler.New(p.Target).Compile(prog)
		if err != nil {
			log.Fatal(err)
		}
		paper := "-"
		if p.PaperCompileSeconds > 0 {
			paper = fmt.Sprintf("%.0fs", p.PaperCompileSeconds)
		}
		fmt.Printf("%-12s %-8s %8s %9.1fs %12v\n",
			p.Name, p.Target, paper, res.ModelSeconds, res.Elapsed.Round(10*time.Microsecond))
	}
	fmt.Println("\n(absolute seconds are a calibrated cost model; the shape — switch >>")
	fmt.Println("scion >> accturbo > dta > beaucoup >> bmv2 targets — is structural)")
}

// ---------------------------------------------------------------------------

func fig1(bool) {
	header("Fig. 1: rate of change of network program inputs")
	span := 24 * time.Hour
	events := trace.Generate(span, trace.Profile{})
	fmt.Printf("trace span %v, %d control-plane events\n\n", span, len(events))
	fmt.Println("  data-plane source   ~days..weeks (out of scope: recompilation via goflay)")
	for _, s := range trace.Summarize(events, span) {
		fmt.Printf("  %s\n", s)
	}
	fmt.Println("  packets             nanoseconds  (never specialized on: traffic profile)")
}

// ---------------------------------------------------------------------------

func fig3(bool) {
	header("Fig. 3: one table's implementation across five control-plane updates")
	p := progs.Fig3()
	pipe, err := goflay.Open(p.Name, p.Source)
	if err != nil {
		log.Fatal(err)
	}
	describe := func() string {
		prog := pipe.SpecializedProgram()
		cd := prog.Control("Ingress")
		tb := cd.Table("eth_table")
		switch {
		case tb == nil && strings.Contains(goflaySource(pipe), "hdr.eth.type ="):
			return "table inlined to an assignment"
		case tb == nil:
			return "table removed entirely (impl. A)"
		default:
			acts := make([]string, len(tb.Actions))
			for i, a := range tb.Actions {
				acts[i] = a.Name
			}
			return fmt.Sprintf("%s match, actions {%s}", tb.Keys[0].Match, strings.Join(acts, ", "))
		}
	}
	fmt.Printf("(1) initial, empty table:        %s\n", describe())
	labels := []string{
		"(2) insert [0x1 &&& 0x0]->set",
		"(3a) delete that entry",
		"(3b) insert [0x2 &&& full]->set",
		"(4) insert [0x5 &&& 0x8]->set",
		"(5) insert [0x6 &&& 0x7]->set",
	}
	for i, u := range progs.Fig3Updates() {
		d := pipe.Apply(u)
		fmt.Printf("%-33s decision=%-9s impl: %s\n", labels[i]+":", d.Kind, describe())
	}
}

func goflaySource(pipe *goflay.Pipeline) string { return pipe.SpecializedSource() }

// ---------------------------------------------------------------------------

func fig5(bool) {
	header("Fig. 5: the symbolic value of egress_port under three configurations")
	p := progs.Fig5()
	prog, err := parser.Parse(p.Name, p.Source)
	if err != nil {
		log.Fatal(err)
	}
	info, err := typecheck.Check(prog)
	if err != nil {
		log.Fatal(err)
	}
	an, err := dataplane.Analyze(prog, info, dataplane.Options{})
	if err != nil {
		log.Fatal(err)
	}
	b := an.Builder
	egress := an.Final["std.egress_port"]
	fmt.Printf("block A (general data-plane model):\n  egress_port = %s\n\n", egress)

	cfg := controlplane.NewConfig(an)
	env, _, err := cfg.CompileEnv(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("block B (initial configuration: empty table):\n  egress_port = %s\n\n", b.Subst(egress, env))

	if err := cfg.Apply(progs.Fig5Entry()); err != nil {
		log.Fatal(err)
	}
	env, _, err = cfg.CompileEnv(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("block C (insert [0xDEADBEEFF00D] -> set(0x01)):\n  egress_port = %s\n", b.Subst(egress, env))
}

// ---------------------------------------------------------------------------

func table2(bool) {
	header("Table 2: per-program analysis and update times (paper vs measured)")
	fmt.Printf("%-12s %10s %10s | %10s %10s | %12s %12s | %12s %10s\n",
		"program", "stmts", "(paper)", "compile", "(paper)", "dp-analysis", "(paper)", "update", "(paper)")
	for _, name := range []string{"scion", "switch", "middleblock", "dash"} {
		p, err := progs.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		prog, err := parser.Parse(p.Name, p.Source)
		if err != nil {
			log.Fatal(err)
		}
		res, err := devcompiler.New(p.Target).Compile(prog)
		if err != nil {
			log.Fatal(err)
		}

		s, err := p.Load()
		if err != nil {
			log.Fatal(err)
		}
		if err := p.ApplyRepresentative(s); err != nil {
			log.Fatal(err)
		}
		// One further update, timed: the paper's "update analysis time".
		var probe *controlplane.Update
		if name == "middleblock" {
			probe = progs.MiddleblockACLEntry(1000)
		} else if name == "scion" {
			probe = progs.ScionBurstEntry(5000)
		} else {
			probe = genericProbe(s, p.BurstTable)
		}
		d := s.Apply(probe)
		if d.Kind == core.Rejected {
			log.Fatalf("%s probe rejected: %v", name, d.Err)
		}
		st := s.Statistics()
		fmt.Printf("%-12s %10d %10d | %9.1fs %10s | %12v %12s | %12v %10s\n",
			p.Name, res.Statements, p.PaperStatements,
			res.ModelSeconds, fmt.Sprintf("%.0fs", p.PaperCompileSeconds),
			st.AnalysisTime.Round(time.Millisecond), p.PaperAnalysis,
			d.Elapsed.Round(10*time.Microsecond), p.PaperUpdate)
	}
	fmt.Println("\n(dp-analysis runs once; updates touch only tainted points — and stay")
	fmt.Println("milliseconds-class regardless of program size, the paper's key claim)")
}

func genericProbe(s *core.Specializer, table string) *controlplane.Update {
	ti := s.An.Tables[table]
	e := &controlplane.TableEntry{Priority: 999999}
	for i, w := range ti.KeyWidths {
		m := controlplane.FieldMatch{Kind: ti.KeyMatch[i], Value: sym.NewBV(w, uint64(0xF0F0)%((uint64(1)<<min(w, 60))-1))}
		switch ti.KeyMatch[i] {
		case controlplane.MatchTernary:
			m.Mask = sym.AllOnes(w)
		case controlplane.MatchLPM:
			m.PrefixLen = int(w)
		}
		e.Matches = append(e.Matches, m)
	}
	for _, ai := range ti.Actions {
		if ai.Name == "NoAction" {
			continue
		}
		e.Action = ai.Name
		for _, pw := range ai.ParamWidths {
			e.Params = append(e.Params, sym.NewBV(pw, 1))
		}
		break
	}
	return &controlplane.Update{Kind: controlplane.InsertEntry, Table: table, Entry: e}
}

func min(a uint16, b uint16) uint16 {
	if a < b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------

// table3 times one update with n ACL entries installed (priorities
// ascending with the index). A precise update costs the rank of the
// entry it writes — the links of the table's ite chain above it are
// rebuilt (controlplane chain.go) — so the precise column is measured
// at both ends of the match order: "head" inserts above every installed
// entry (where the paper's append-style probe lands), "deep" under all
// of them.
func table3(full bool) {
	header("Table 3: update analysis time vs installed Pre-Ingress ACL entries")
	sizes := []int{1, 10, 100, 1000}
	if full {
		sizes = append(sizes, 10000)
	}
	fmt.Printf("%-10s | %-14s | %-14s | %-14s | %s\n", "installed", "precise (head)", "precise (deep)", "overapprox", "paper (precise / overapprox)")
	paper := map[int]string{
		1: "~1ms / -", 10: "~5ms / -", 100: "~100ms / ~1ms",
		1000: "~4000ms / ~1ms", 10000: "~265319ms / ~1ms",
	}
	for _, n := range sizes {
		head := table3Measure(n, -1, false)
		deep := table3Measure(n, -1, true)
		approx := table3Measure(n, controlplane.DefaultOverapproxThreshold, false)
		fmt.Printf("%-10d | %-14v | %-14v | %-14v | %s\n", n, head, deep, approx, paper[n])
	}
	if !full {
		fmt.Println("(run with -full for the 10000-entry row)")
	}
}

func table3Measure(n, threshold int, deep bool) time.Duration {
	p := progs.Middleblock()
	s, err := p.LoadWith(core.Options{OverapproxThreshold: threshold})
	if err != nil {
		log.Fatal(err)
	}
	// Initialize the table with n entries (not timed), per the paper's
	// methodology, then time a single further update: the median of five
	// inserts of the same probe, taken out again in between.
	batch := make([]*controlplane.Update, n)
	for i := range batch {
		batch[i] = progs.MiddleblockACLEntry(i)
	}
	for _, d := range s.ApplyBatch(batch) {
		if d.Kind == core.Rejected {
			log.Fatal(d.Err)
		}
	}
	probe := progs.MiddleblockACLEntry(n)
	if deep {
		probe.Entry.Priority = 1 // installed priorities start at 10
	}
	unprobe := &controlplane.Update{Kind: controlplane.DeleteEntry, Table: probe.Table, Entry: probe.Entry}
	var took []time.Duration
	for i := 0; i < 5; i++ {
		d := s.Apply(probe)
		if d.Kind == core.Rejected {
			log.Fatal(d.Err)
		}
		took = append(took, d.Elapsed)
		if d := s.Apply(unprobe); d.Kind == core.Rejected {
			log.Fatal(d.Err)
		}
	}
	sortDurations(took)
	return took[len(took)/2].Round(time.Microsecond)
}

// ---------------------------------------------------------------------------

func stages(bool) {
	header("§4.2: SCION stage savings on the Tofino-2 model")
	p := progs.Scion()
	pipe, err := goflay.Open(p.Name, p.Source, goflay.WithTarget(goflay.TargetTofino))
	if err != nil {
		log.Fatal(err)
	}
	full, err := pipe.CompileOriginal()
	if err != nil {
		log.Fatal(err)
	}
	for _, u := range p.Representative() {
		pipe.Apply(u)
	}
	spec, err := pipe.Compile()
	if err != nil {
		log.Fatal(err)
	}
	for _, u := range p.IPv6Enable() {
		pipe.Apply(u)
	}
	after, err := pipe.Compile()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unspecialized:            %s\n", full)
	fmt.Printf("specialized (no IPv6):    %s\n", spec)
	fmt.Printf("after IPv6-enable batch:  %s\n", after)
	fmt.Printf("\nsavings: %d -> %d stages (%.0f%%; paper: 20%% fewer), restored to %d after IPv6\n",
		full.Stages, spec.Stages,
		100*float64(full.Stages-spec.Stages)/float64(full.Stages), after.Stages)
}

// ---------------------------------------------------------------------------

// burst runs with the full observability layer enabled — metrics
// registry and audit trail — and then proves the layer's accounting
// against the engine's own Statistics: the audit trail's decision
// tally and the update-latency histogram's population must match the
// engine counters exactly. A mismatch is a bug in the observability
// layer and exits non-zero.
func burst(bool) {
	header("§4.2: burst of 1000 fuzzer-generated IPv4 entries (SCION)")
	p := progs.Scion()
	reg := obs.NewRegistry()
	trail := obs.NewTrail(0)
	s, err := p.LoadWith(core.Options{Metrics: reg, Audit: trail})
	if err != nil {
		log.Fatal(err)
	}
	if err := p.ApplyRepresentative(s); err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	forwarded, recompiled := 0, 0
	for i := 0; i < 1000; i++ {
		switch s.Apply(progs.ScionBurstEntry(i)).Kind {
		case core.Forward:
			forwarded++
		case core.Recompile:
			recompiled++
		default:
			log.Fatalf("burst entry %d rejected", i)
		}
	}
	el := time.Since(t0)
	fmt.Printf("1000 updates in %v (%v/update): %d forwarded, %d recompiled\n",
		el.Round(time.Millisecond), (el / 1000).Round(time.Microsecond), forwarded, recompiled)

	st := s.Statistics()
	hist := reg.Histogram("core.update_ns").Snapshot()
	decisions := trail.CountByDecision()
	fmt.Printf("\nobservability cross-check (%d updates total incl. representative config):\n", st.Updates)
	fmt.Printf("  update latency p50=%v p95=%v p99=%v\n",
		time.Duration(hist.P50).Round(time.Microsecond),
		time.Duration(hist.P95).Round(time.Microsecond),
		time.Duration(hist.P99).Round(time.Microsecond))
	fmt.Printf("  audit trail: %d forward, %d recompile, %d rejected\n",
		decisions["forward"], decisions["recompile"], decisions["rejected"])

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "burst verification failed: "+format+"\n", args...)
		os.Exit(1)
	}
	if trail.Total() != int64(st.Updates) {
		fail("audit trail holds %d records, engine processed %d updates", trail.Total(), st.Updates)
	}
	if decisions["forward"] != st.Forwarded || decisions["recompile"] != st.Recompilations || decisions["rejected"] != st.Rejected {
		fail("audit tally %v, engine counters forwarded=%d recompiled=%d rejected=%d",
			decisions, st.Forwarded, st.Recompilations, st.Rejected)
	}
	if hist.Count != int64(st.Updates) {
		fail("latency histogram holds %d samples, engine processed %d updates", hist.Count, st.Updates)
	}
	if got := reg.Counter("core.updates").Value(); got != int64(st.Updates) {
		fail("core.updates counter %d, engine processed %d", got, st.Updates)
	}
	fmt.Println("  cross-check: metrics, histogram and audit trail agree with Statistics")

	rep.Burst = &burstReport{
		Updates:        st.Updates,
		Forwarded:      st.Forwarded,
		Recompilations: st.Recompilations,
		Rejected:       st.Rejected,
		Decisions:      decisions,
		UpdateP50NS:    hist.P50,
		UpdateP95NS:    hist.P95,
		UpdateP99NS:    hist.P99,
		HistCount:      hist.Count,
		Metrics:        reg.Snapshot(),
	}
	fmt.Println("\n(the batch is recognised as semantics-preserving; past the 100-entry")
	fmt.Println("threshold the table is overapproximated and updates become ~constant-time)")
}

// ---------------------------------------------------------------------------

// batchSection compares the sequential per-update engine with the
// coalescing batch engine on the same SCION burst, and verifies the two
// end in byte-identical specialized programs.
func batchSection(bool) {
	header("Batch engine: sequential Apply vs coalesced ApplyBatch (SCION burst)")
	p := progs.Scion()
	load := func() *core.Specializer {
		s, err := p.Load()
		if err != nil {
			log.Fatal(err)
		}
		if err := p.ApplyRepresentative(s); err != nil {
			log.Fatal(err)
		}
		return s
	}
	batch := make([]*controlplane.Update, 1000)
	for i := range batch {
		batch[i] = progs.ScionBurstEntry(i)
	}

	seq := load()
	t0 := time.Now()
	for i, u := range batch {
		if seq.Apply(u).Kind == core.Rejected {
			log.Fatalf("burst entry %d rejected", i)
		}
	}
	seqTime := time.Since(t0)

	bat := load()
	t0 = time.Now()
	for i, d := range bat.ApplyBatch(batch) {
		if d.Kind == core.Rejected {
			log.Fatalf("batched entry %d rejected", i)
		}
	}
	batTime := time.Since(t0)

	fmt.Printf("sequential: 1000 × Apply      %12v  (%v/update)\n",
		seqTime.Round(time.Millisecond), (seqTime / 1000).Round(time.Microsecond))
	fmt.Printf("batched:    1 × ApplyBatch    %12v  (%v/update, %d eval passes coalesced)\n",
		batTime.Round(time.Millisecond), (batTime / 1000).Round(time.Microsecond), bat.Statistics().Coalesced)
	fmt.Printf("speedup:    %.1f×\n", float64(seqTime)/float64(batTime))
	if goflaySpec(seq) != goflaySpec(bat) {
		log.Fatal("batched and sequential specialized programs diverged")
	}
	fmt.Println("\n(end states verified byte-identical; the batch engine recompiles each")
	fmt.Println("touched assignment once and re-evaluates the union of tainted points in")
	fmt.Println("a single pass instead of per update)")
}

func goflaySpec(s *core.Specializer) string { return ast.Print(s.SpecializedProgram()) }

// ---------------------------------------------------------------------------

// ddSection cross-checks the decision-diagram query core against the
// solver-only engine on the precise-mode middleblock ACL burst. The
// section verifies the two arms verdict-for-verdict and byte-identical
// on the specialized program, and reports both query-pass times. It used to
// gate their ratio at >= 3x; that ratio's denominator was the solver
// probing residues far past the exhaustive bound, which no longer
// happens on either arm (the width rule answers them first), so the
// two passes now cost about the same here and the ratio is printed,
// not gated.
func ddSection(bool) {
	header("Decision diagrams: diagram engine vs solver-only engine, cross-checked (middleblock ACL, precise mode)")
	p := progs.Middleblock()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dd verification failed: "+format+"\n", args...)
		os.Exit(1)
	}
	// Precise mode (no overapproximation) on a growing ACL: every
	// installed entry re-evaluates match-conjunction residues over a
	// >100-bit space, which both arms answer by the width rule; the
	// arms differ only on the residues inside the exhaustive bound.
	const updates = 250
	run := func(noDD bool) *core.Specializer {
		s, err := p.LoadWith(core.Options{NoDD: noDD, OverapproxThreshold: -1})
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < updates; i++ {
			if d := s.Apply(progs.MiddleblockACLEntry(i)); d.Kind == core.Rejected {
				log.Fatalf("ACL entry %d rejected: %v", i, d.Err)
			}
		}
		return s
	}

	solver := run(true)
	ddEng := run(false)
	sst, dst := solver.Statistics(), ddEng.Statistics()
	if dst.DDQueries == 0 {
		fail("diagram engine answered no queries on the diagram path")
	}
	if sst.DDQueries != 0 || sst.DDNodes != 0 {
		fail("NoDD engine reported diagram activity: %+v", sst)
	}
	for id := 0; id < sst.Points; id++ {
		sv, dv := solver.Verdict(id), ddEng.Verdict(id)
		if sv.Kind != dv.Kind || sv.Val != dv.Val {
			fail("point %d: solver says %s, diagram says %s", id, sv, dv)
		}
	}
	if goflaySpec(solver) != goflaySpec(ddEng) {
		fail("diagram and solver specialized programs diverged")
	}

	speedup := float64(sst.EvalTime) / float64(dst.EvalTime)
	fmt.Printf("solver:   %d × Apply  query pass %12v  (%v/update)\n",
		updates, sst.EvalTime.Round(time.Millisecond), (sst.EvalTime / updates).Round(time.Microsecond))
	fmt.Printf("diagram:  %d × Apply  query pass %12v  (%v/update)\n",
		updates, dst.EvalTime.Round(time.Millisecond), (dst.EvalTime / updates).Round(time.Microsecond))
	fmt.Printf("speedup:  %.1f×\n", speedup)
	fmt.Printf("\ndd queries=%d fallbacks=%d compiles=%d nodes=%d\n",
		dst.DDQueries, dst.DDFallbacks, dst.DDCompiles, dst.DDNodes)
	fmt.Println("cross-check: verdicts identical point-for-point, end states byte-identical")

	rep.DD = &ddReport{
		Updates:      updates,
		SolverEvalMS: sst.EvalTime.Milliseconds(),
		DDEvalMS:     dst.EvalTime.Milliseconds(),
		Speedup:      speedup,
		DDQueries:    dst.DDQueries,
		DDFallbacks:  dst.DDFallbacks,
		DDCompiles:   dst.DDCompiles,
		DDNodes:      dst.DDNodes,
	}
	fmt.Println("\n(a residue inside the exhaustive bound compiles into the shared")
	fmt.Println("canonical diagram once per assignment epoch and is then answered by a")
	fmt.Println("root-to-terminal walk instead of an enumeration; a wider one is")
	fmt.Println("live/varies by the width rule on both arms)")
}

// ---------------------------------------------------------------------------

// precisionSection exercises the adaptive precision controller on the
// paper's worst-case workload (Table 3): the middleblock Pre-Ingress
// ACL with static overapproximation disabled. A precise update costs
// the rank of the entry it writes — the links of the table's ite chain
// above it are rebuilt (controlplane chain.go) — so a burst of
// ascending priorities, every insert above the chain, is flat and never
// meets a budget. Both arms therefore insert in descending priority:
// every entry lands under everything installed and the cost of a write
// grows linearly with the table, which is what the controller still
// defends against. A 10000-entry burst driven with a 5ms per-update
// budget must keep p99 under the budget by degrading the table
// mid-flight — soundly, which the differential check and a final
// promotion both verify (zero unsound degraded verdicts). A short
// no-deadline baseline shows the latency growth.
func precisionSection(bool) {
	header("Adaptive precision: 10000-entry rank-deep ACL burst under a 5ms deadline (middleblock)")
	const (
		entries  = 10000
		baseline = 1500 // no-deadline arm, truncated: a rank-deep precise write is O(entries)
		budget   = 5 * time.Millisecond
	)
	// deep is the i-th update of a rank-deep burst: priorities descend.
	deep := func(i int) *controlplane.Update { return progs.MiddleblockACLEntry(entries - 1 - i) }
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "precision verification failed: "+format+"\n", args...)
		os.Exit(1)
	}
	quantile := func(sorted []time.Duration, q float64) time.Duration {
		if len(sorted) == 0 {
			return 0
		}
		return sorted[int(q*float64(len(sorted)-1)+0.5)]
	}
	p := progs.Middleblock()
	opts := func(reg *obs.Registry, trail *obs.Trail) core.Options {
		return core.Options{
			OverapproxThreshold: -1, // never overapproximate statically
			RepairInterval:      -1, // no background repair: promotion is explicit below
			Metrics:             reg, Audit: trail,
		}
	}

	// Baseline arm: no deadline, precise forever. Truncated to
	// `baseline` entries — the full 10k rank-deep precise run is the
	// quadratic blowup this section exists to avoid.
	base, err := p.LoadWith(opts(nil, nil))
	if err != nil {
		log.Fatal(err)
	}
	baseLat := make([]time.Duration, 0, baseline)
	for i := 0; i < baseline; i++ {
		d := base.Apply(deep(i))
		if d.Kind == core.Rejected {
			log.Fatalf("baseline entry %d rejected: %v", i, d.Err)
		}
		baseLat = append(baseLat, d.Elapsed)
	}
	sortDurations(baseLat)
	basep99, basemax := quantile(baseLat, 0.99), baseLat[len(baseLat)-1]
	fmt.Printf("no deadline (first %d entries, precise, rank-deep): p99=%v max=%v — unbounded growth\n",
		baseline, basep99.Round(10*time.Microsecond), basemax.Round(10*time.Microsecond))

	// Deadline arm: the full burst, each update under the budget.
	reg := obs.NewRegistry()
	trail := obs.NewTrail(0)
	s, err := p.LoadWith(opts(reg, trail))
	if err != nil {
		log.Fatal(err)
	}
	lat := make([]time.Duration, 0, entries)
	degradedVerdicts := 0
	t0 := time.Now()
	for i := 0; i < entries; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		d := s.ApplyCtx(ctx, deep(i))
		cancel()
		if d.Kind == core.Rejected {
			log.Fatalf("deadline entry %d rejected: %v", i, d.Err)
		}
		if d.Degraded {
			degradedVerdicts++
		}
		lat = append(lat, d.Elapsed)
	}
	el := time.Since(t0)
	st := s.Statistics()
	peakDegraded := st.DegradedTables
	sortDurations(lat)
	p50, p95, p99 := quantile(lat, 0.50), quantile(lat, 0.95), quantile(lat, 0.99)
	max := lat[len(lat)-1]
	fmt.Printf("%v deadline (%d entries, rank-deep): p50=%v p95=%v p99=%v max=%v (%v total)\n",
		budget, entries, p50.Round(time.Microsecond), p95.Round(time.Microsecond),
		p99.Round(10*time.Microsecond), max.Round(10*time.Microsecond), el.Round(time.Millisecond))
	fmt.Printf("degradations=%d degraded_tables=%d degraded_verdicts=%d (%.1f%% of burst)\n",
		st.Degradations, peakDegraded, degradedVerdicts, 100*float64(degradedVerdicts)/entries)

	// Soundness: every degraded verdict re-run precisely must agree
	// (conservative flips allowed, unsound ones counted — must be zero),
	// both via the background differential check and a full promotion.
	checked, unsound, err := s.DifferentialCheck()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("differential check: %d degraded verdicts re-run precisely, %d unsound\n", checked, unsound)
	promoteUnsound, err := s.PromoteAll()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("promotion: all tables restored to precise, %d unsound flips\n", promoteUnsound)

	decisions := trail.CountByDecision()
	if st.Degradations < 1 {
		fail("no degradations on a %d-entry precise burst under a %v budget", entries, budget)
	}
	if p99 >= budget {
		fail("p99 %v did not stay under the %v budget", p99, budget)
	}
	if unsound != 0 || promoteUnsound != 0 {
		fail("unsound degraded verdicts: differential=%d promotion=%d (must be zero)", unsound, promoteUnsound)
	}
	if checked == 0 {
		fail("differential check examined no points despite %d degradations", st.Degradations)
	}
	if decisions["degrade"] < 1 || decisions["promote"] < 1 {
		fail("audit trail tally %v lacks degrade/promote records", decisions)
	}
	if got := reg.Counter("core.degradations").Value(); got != int64(st.Degradations) {
		fail("core.degradations counter %d, engine stats %d", got, st.Degradations)
	}
	if len(s.DegradedTables()) != 0 {
		fail("tables still degraded after PromoteAll: %v", s.DegradedTables())
	}
	fmt.Println("cross-check: p99 under budget, audit + metrics agree, zero unsound verdicts")

	rep.Precision = &precisionReport{
		Entries:         entries,
		DeadlineMS:      budget.Milliseconds(),
		Degradations:    st.Degradations,
		Promotions:      s.Statistics().Promotions,
		DegradedTables:  peakDegraded,
		P50NS:           p50.Nanoseconds(),
		P95NS:           p95.Nanoseconds(),
		P99NS:           p99.Nanoseconds(),
		MaxNS:           max.Nanoseconds(),
		BaselineEntries: baseline,
		BaselineP99NS:   basep99.Nanoseconds(),
		BaselineMaxNS:   basemax.Nanoseconds(),
		DiffChecked:     checked,
		Unsound:         unsound + promoteUnsound,
		AuditDegrades:   decisions["degrade"],
		AuditPromotes:   decisions["promote"],
	}
	fmt.Println("\n(the controller degrades the ACL to the overapproximated assignment the")
	fmt.Println("moment its EWMA cost projection no longer fits the budget, so the burst")
	fmt.Println("stays milliseconds-class; promotion restores full precision afterwards)")
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// ---------------------------------------------------------------------------

// churnReport records the trace-driven churn section: per program ×
// pattern latency quantiles and throughput, with the pattern's
// steady-state invariant and the engine's accounting verified before
// the report is emitted.
type churnReport struct {
	Updates int        `json:"updates_per_pattern"`
	Rows    []churnRow `json:"rows"`
}

type churnRow struct {
	Program       string  `json:"program"`
	Pattern       string  `json:"pattern"`
	Batches       int     `json:"batches"`
	LiveEntries   int     `json:"live_entries"`
	P50NS         int64   `json:"update_p50_ns"`
	P95NS         int64   `json:"update_p95_ns"`
	P99NS         int64   `json:"update_p99_ns"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
}

// churnSection replays every trace-driven churn pattern against the
// production-shaped programs, batched the way a controller would push
// it. Each cell cross-checks the engine's accounting (exact update
// count, zero rejections, the pattern's declared steady-state entry
// count) and any violation exits non-zero. The soak tier
// (make soak-churn) runs the same patterns orders of magnitude longer
// through flayd.
func churnSection(bool) {
	header("Churn: trace-driven update patterns on the production-shaped programs")
	const n = 240
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "churn verification failed: "+format+"\n", args...)
		os.Exit(1)
	}
	quantile := func(sorted []time.Duration, q float64) time.Duration {
		if len(sorted) == 0 {
			return 0
		}
		return sorted[int(q*float64(len(sorted)-1)+0.5)]
	}
	fmt.Printf("%-11s %-12s %8s %8s | %10s %10s %10s | %10s\n",
		"program", "pattern", "updates", "batches", "p50", "p95", "p99", "upd/s")
	report := &churnReport{Updates: n}
	for _, name := range []string{"nat44", "l4lb", "tunnelterm"} {
		p, err := progs.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		for _, kind := range fuzz.PatternKinds() {
			s, err := p.LoadWith(core.Options{})
			if err != nil {
				log.Fatal(err)
			}
			if err := p.ApplyRepresentative(s); err != nil {
				log.Fatal(err)
			}
			before := s.Cfg.NumEntries(p.BurstTable)
			beforeUpdates := s.Statistics().Updates
			cs, err := fuzz.Churn(s.An, fuzz.ChurnSpec{
				Kind: kind, Table: p.BurstTable, Updates: n, Seed: 1,
			})
			if err != nil {
				log.Fatal(err)
			}
			batches := cs.Batches()
			lat := make([]time.Duration, 0, n)
			t0 := time.Now()
			for _, batch := range batches {
				for i, d := range s.ApplyBatch(batch) {
					if d.Kind == core.Rejected {
						fail("%s/%s: update %s rejected: %v", name, kind, batch[i], d.Err)
					}
					lat = append(lat, d.Elapsed)
				}
			}
			el := time.Since(t0)

			st := s.Statistics()
			if got := st.Updates - beforeUpdates; got != n {
				fail("%s/%s: engine processed %d churn updates, want %d", name, kind, got, n)
			}
			if st.Rejected != 0 {
				fail("%s/%s: %d rejections", name, kind, st.Rejected)
			}
			live := s.Cfg.NumEntries(p.BurstTable) - before
			if err := cs.CheckInvariant(live); err != nil {
				fail("%v", err)
			}
			sortDurations(lat)
			p50, p95, p99 := quantile(lat, 0.50), quantile(lat, 0.95), quantile(lat, 0.99)
			ups := float64(n) / el.Seconds()
			fmt.Printf("%-11s %-12s %8d %8d | %10v %10v %10v | %10.0f\n",
				name, kind, n, len(batches),
				p50.Round(time.Microsecond), p95.Round(time.Microsecond),
				p99.Round(time.Microsecond), ups)
			report.Rows = append(report.Rows, churnRow{
				Program: name, Pattern: kind.String(),
				Batches: len(batches), LiveEntries: live,
				P50NS: p50.Nanoseconds(), P95NS: p95.Nanoseconds(), P99NS: p99.Nanoseconds(),
				UpdatesPerSec: ups,
			})
		}
	}
	rep.Churn = report
	fmt.Println("\ncross-check: per-cell update counts, zero rejections, and each")
	fmt.Println("pattern's steady-state entry invariant verified against the engine")
	fmt.Println("\n(diurnal/flap streams end where they began; acl-rollout only grows;")
	fmt.Println("gc retains a small working set — the engine must track all of it exactly)")
}

// ---------------------------------------------------------------------------

// ablation explores the paper's §6 future-work axis: the tradeoff
// between recompilation frequency and specialization quality, measured
// on the SCION representative-config + burst workload.
func ablation(bool) {
	header("Ablation (§6): specialization quality vs recompilation frequency")
	fmt.Printf("%-14s | %12s | %8s | %6s | %6s | %8s\n",
		"quality", "recompiles", "forwards", "stages", "tcam", "mean-upd")
	for _, q := range []core.Quality{core.QualityFull, core.QualityNoNarrowing, core.QualityDCEOnly, core.QualityNone} {
		p := progs.Scion()
		s, err := p.LoadWith(core.Options{Quality: q})
		if err != nil {
			log.Fatal(err)
		}
		for _, u := range p.Representative() {
			if d := s.Apply(u); d.Kind == core.Rejected {
				log.Fatal(d.Err)
			}
		}
		for i := 0; i < 200; i++ {
			if d := s.Apply(progs.ScionBurstEntry(i)); d.Kind == core.Rejected {
				log.Fatal("burst entry rejected")
			}
		}
		res, err := devcompiler.New(devcompiler.TargetTofino).Compile(s.SpecializedProgram())
		if err != nil {
			log.Fatal(err)
		}
		st := s.Statistics()
		mean := time.Duration(0)
		if st.Updates > 0 {
			mean = st.UpdateTime / time.Duration(st.Updates)
		}
		fmt.Printf("%-14s | %12d | %8d | %3d/%2d | %6d | %8v\n",
			q, st.Recompilations, st.Forwarded,
			res.Allocation.StagesUsed, res.Allocation.Device.Stages,
			res.Allocation.TCAMBlocks, mean.Round(10*time.Microsecond))
	}
	// The recompilation axis shows up under mask churn (the Fig. 3
	// pattern): alternating full- and partial-mask entries repeatedly
	// flip a narrowed implementation back and forth.
	fmt.Println("\nmask-churn workload (fig3 table, 40 alternating-mask inserts):")
	fmt.Printf("%-14s | %12s | %8s\n", "quality", "recompiles", "forwards")
	for _, q := range []core.Quality{core.QualityFull, core.QualityNoNarrowing, core.QualityDCEOnly, core.QualityNone} {
		p3 := progs.Fig3()
		s, err := p3.LoadWith(core.Options{Quality: q})
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			mask := uint64(0xFFFFFFFFFFFF)
			if i%4 == 3 {
				mask = 0xFFFFFFFFFFF0 // every 4th entry is partially masked
			}
			e := &controlplane.TableEntry{
				Priority: i,
				Matches: []controlplane.FieldMatch{{
					Kind: controlplane.MatchTernary, Value: sym.NewBV(48, uint64(0x1000+i)), Mask: sym.NewBV(48, mask),
				}},
				Action: "set", Params: []sym.BV{sym.NewBV(16, uint64(i))},
			}
			kind := controlplane.InsertEntry
			u := &controlplane.Update{Kind: kind, Table: "Ingress.eth_table", Entry: e}
			if d := s.Apply(u); d.Kind == core.Rejected {
				log.Fatal(d.Err)
			}
			if i%4 == 3 {
				// Remove the masked entry again: with narrowing enabled
				// this forces exact→ternary→exact flapping.
				u := &controlplane.Update{Kind: controlplane.DeleteEntry, Table: "Ingress.eth_table", Entry: e}
				if d := s.Apply(u); d.Kind == core.Rejected {
					log.Fatal(d.Err)
				}
			}
		}
		st := s.Statistics()
		fmt.Printf("%-14s | %12d | %8d\n", q, st.Recompilations, st.Forwarded)
	}
	fmt.Println("\nlower quality trades resource savings (more stages/TCAM used) for")
	fmt.Println("stability (fewer recompilations and cheaper updates) — the tradeoff")
	fmt.Println("space the paper proposes exploring with Flay as the vehicle.")
}

// ---------------------------------------------------------------------------

// ppsRow is one program's packets/sec cell: the reference interpreter
// ("generic") against the bytecode executor ("jit") on the same frames
// and config, plus the jit rate under concurrent control-plane churn.
type ppsRow struct {
	Program      string  `json:"program"`
	Frames       int     `json:"frames"`
	GenericPPS   float64 `json:"generic_pps"`
	JITPPS       float64 `json:"jit_pps"`
	Speedup      float64 `json:"speedup"`
	DiffChecked  int     `json:"diff_checked"`
	ChurnPPS     float64 `json:"churn_pps"`
	ChurnUpdates int     `json:"churn_updates"`
}

// ppsReport is the packet-execution section: the 2x gate must hold on
// at least three catalog programs, every cell is differentially
// verified against the interpreter before and after churn, and audit
// and epoch continuity are checked under the concurrent writer.
type ppsReport struct {
	Rows []ppsRow `json:"rows"`
	At2x int      `json:"programs_at_2x"`
}

// ppsFrames builds a deterministic mix of plausible ethernet+IPv4+UDP
// frames (randomized addresses, ports and TTLs) and short junk frames,
// so the measurement exercises both the parsed fast path and the
// parser-reject path.
func ppsFrames(seed int64, n int) ([][]byte, []uint16) {
	r := rand.New(rand.NewSource(seed))
	frames := make([][]byte, n)
	ports := make([]uint16, n)
	for i := range frames {
		if i%8 == 7 {
			f := make([]byte, r.Intn(32))
			r.Read(f)
			frames[i] = f
		} else {
			f := make([]byte, 46)
			r.Read(f[:12]) // eth dst+src
			f[12], f[13] = 0x08, 0x00
			f[14] = 0x45                  // v4, IHL 5
			f[17] = 32                    // total length
			f[19] = byte(i)               // id
			f[22] = byte(1 + r.Intn(255)) // ttl
			f[23] = 17                    // udp
			r.Read(f[26:38])              // src+dst addr, src+dst port
			f[39] = 12                    // udp length
			frames[i] = f
		}
		ports[i] = uint16(r.Intn(48))
	}
	return frames, ports
}

// ppsSection measures packets/sec on the catalog's production-shaped
// programs: the flattened bytecode image against the tree-walking
// reference interpreter, packet-for-packet equivalent by construction
// and by the per-cell differential check run before and after a churn
// arm that hammers the executor while a writer replays trace-driven
// batches. Gates: jit >= 2x generic on at least three programs; zero
// verdict divergences; gap-free audit trail; epoch update counters
// never observed going backwards mid-churn. Any violation exits
// non-zero.
func ppsSection(full bool) {
	header("Packets/sec: bytecode executor vs reference interpreter (catalog)")
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "pps verification failed: "+format+"\n", args...)
		os.Exit(1)
	}
	window := 150 * time.Millisecond
	if full {
		window = 500 * time.Millisecond
	}
	const nframes = 256
	report := &ppsReport{}
	fmt.Printf("%-12s %8s | %12s %12s %8s | %12s %8s\n",
		"program", "frames", "generic/s", "jit/s", "speedup", "churn jit/s", "updates")
	for _, name := range []string{"nat44", "l4lb", "tunnelterm", "scion", "middleblock"} {
		p, err := progs.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		trail := obs.NewTrail(0)
		s, err := p.LoadWith(core.Options{Exec: true, Audit: trail})
		if err != nil {
			log.Fatal(err)
		}
		if err := p.ApplyRepresentative(s); err != nil {
			log.Fatal(err)
		}
		frames, ports := ppsFrames(int64(len(name)), nframes)

		// Per-cell differential: every frame must produce the same
		// verdict and output bytes on the jit image as on the reference
		// interpreter, with error parity.
		diffCell := func(stage string) int {
			in := bmv2.New(s.Prog, s.Info, s.Cfg)
			img := s.ExecImage()
			if img == nil {
				fail("%s: engine published no exec image", name)
			}
			m := dpexec.NewMachine()
			for i, data := range frames {
				want, err1 := in.Run(bmv2.Packet{Data: data, IngressPort: ports[i]})
				got, err2 := m.Run(img, data, ports[i])
				if (err1 == nil) != (err2 == nil) {
					fail("%s %s frame %d: error divergence: bmv2 %v vs jit %v", name, stage, i, err1, err2)
				}
				if err1 == nil && !got.Equal(dpexec.Result{Dropped: want.Dropped, EgressPort: want.EgressPort,
					McastGrp: want.McastGrp, Emitted: want.Emitted}) {
					fail("%s %s frame %d: verdict divergence", name, stage, i)
				}
			}
			return len(frames)
		}
		checked := diffCell("pre-churn")

		measure := func(run func(i int)) float64 {
			t0 := time.Now()
			deadline := t0.Add(window)
			n := 0
			for time.Now().Before(deadline) {
				run(n % nframes)
				n++
			}
			return float64(n) / time.Since(t0).Seconds()
		}
		in := bmv2.New(s.Prog, s.Info, s.Cfg)
		generic := measure(func(i int) {
			_, _ = in.Run(bmv2.Packet{Data: frames[i], IngressPort: ports[i]})
		})
		img := s.ExecImage()
		m := dpexec.NewMachine()
		jit := measure(func(i int) {
			_, _ = m.Run(img, frames[i], ports[i])
		})

		// Churn arm: a writer replays trace-driven diurnal batches (each
		// cycle drains back to the pre-churn state) while the executor
		// re-reads the epoch per packet — image always present, update
		// counter never going backwards.
		cs, err := fuzz.Churn(s.An, fuzz.ChurnSpec{
			Kind: fuzz.Diurnal, Table: p.BurstTable, Updates: 128, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		cycle := append(cs.Batches(), cs.Drain())
		baseUpdates := s.Statistics().Updates
		done := make(chan struct{})
		var wg sync.WaitGroup
		churnUpdates := 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for bi := 0; ; bi++ {
				select {
				case <-done:
					return
				default:
				}
				batch := cycle[bi%len(cycle)]
				for i, d := range s.ApplyBatch(batch) {
					if d.Kind == core.Rejected {
						fail("%s: churn update %s rejected: %v", name, batch[i], d.Err)
					}
				}
				churnUpdates += len(batch)
			}
		}()
		lastUpdates := 0
		churn := measure(func(i int) {
			v := s.Epoch()
			im := v.Image()
			if im == nil {
				fail("%s: nil exec image mid-churn", name)
			}
			if v.Stats.Updates < lastUpdates {
				fail("%s: epoch update counter went backwards (%d after %d)", name, v.Stats.Updates, lastUpdates)
			}
			lastUpdates = v.Stats.Updates
			if _, err := m.Run(im, frames[i], ports[i]); err != nil {
				fail("%s: jit trap mid-churn on frame %d: %v", name, i, err)
			}
		})
		close(done)
		wg.Wait()

		// Audit continuity: one record per update, gap-free sequence.
		recs := trail.Records()
		if len(recs) != baseUpdates+churnUpdates {
			fail("%s: %d audit records for %d updates", name, len(recs), baseUpdates+churnUpdates)
		}
		for i, rec := range recs {
			if rec.Seq != i+1 {
				fail("%s: audit record %d has seq %d (gap)", name, i, rec.Seq)
			}
		}
		// Post-churn differential: the quiesced image is still
		// packet-for-packet equivalent to the interpreter on the
		// post-churn config.
		checked += diffCell("post-churn")

		speedup := jit / generic
		fmt.Printf("%-12s %8d | %12.0f %12.0f %7.1fx | %12.0f %8d\n",
			name, nframes, generic, jit, speedup, churn, churnUpdates)
		report.Rows = append(report.Rows, ppsRow{
			Program: name, Frames: nframes,
			GenericPPS: generic, JITPPS: jit, Speedup: speedup,
			DiffChecked: checked, ChurnPPS: churn, ChurnUpdates: churnUpdates,
		})
		if speedup >= 2 {
			report.At2x++
		}
		s.Close()
	}
	fmt.Printf("\nprograms at >= 2x: %d/%d (gate: >= 3)\n", report.At2x, len(report.Rows))
	if report.At2x < 3 {
		fail("only %d programs reached 2x specialized-vs-generic packets/sec, want >= 3", report.At2x)
	}
	rep.PPS = report
	fmt.Println("\ncross-check: every cell differentially verified against the reference")
	fmt.Println("interpreter before and after churn, with gap-free audit and monotone")
	fmt.Println("epoch update counters under the concurrent writer")
}

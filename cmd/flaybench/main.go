// flaybench regenerates every table and figure from the paper's
// evaluation: Table 1 (from-scratch compile times), Table 2 (analysis
// and update times per program), Table 3 (update scaling, precise vs
// overapproximate), Fig. 1 (input change rates), Fig. 3 (table
// implementation evolution), Fig. 5 (constant-propagation expressions),
// the §4.2 SCION stage-savings and burst experiments, and the §6
// quality-vs-recompilation ablation.
//
// Usage:
//
//	flaybench [-only sections] [-full]
//
// Sections: table1, fig1, fig3, fig5, table2, table3, stages, burst,
// ablation. The list is generated from the section registry
// (benchSections) and pinned equal to it by
// TestSectionDocMatchesRegistry; -only takes a comma-separated subset
// ("-only burst,table3"). -full extends Table 3 to 10000 installed
// entries (slow in precise mode, as in the paper). The numbers are
// printed, not gated: correctness lives in the Go tests and bench/.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	goflay "repro"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/devcompiler"
	"repro/internal/p4/parser"
	"repro/internal/p4/typecheck"
	"repro/internal/progs"
	"repro/internal/sym"
	"repro/internal/trace"
)

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
	{"ablation", ablation},
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
		s.run(*full)
		fmt.Println()
	}
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
		case tb == nil && strings.Contains(pipe.SpecializedSource(), "hdr.eth.type ="):
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
	slices.Sort(took)
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

// burst applies the §4.2 burst of 1000 fuzzer-generated entries on top
// of SCION's representative configuration, one Apply each, and reports
// how many were forwarded and how many recompiled.
func burst(bool) {
	header("§4.2: burst of 1000 fuzzer-generated IPv4 entries (SCION)")
	p := progs.Scion()
	s, err := p.Load()
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

	fmt.Println("\n(the batch is recognised as semantics-preserving; past the 100-entry")
	fmt.Println("threshold the table is overapproximated and updates become ~constant-time)")
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

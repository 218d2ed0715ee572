// Benchmarks regenerating the paper's tables and figures. One bench per
// experiment (DESIGN.md §3); cmd/flaybench prints the same data as
// paper-style tables.
package goflay_test

import (
	"fmt"
	"testing"
	"time"

	goflay "repro"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/devcompiler"
	"repro/internal/p4/ast"
	"repro/internal/p4/parser"
	"repro/internal/p4/typecheck"
	"repro/internal/progs"
	"repro/internal/trace"
)

// BenchmarkTable1CompileFromScratch measures the from-scratch device
// compile (frontend + RMT allocation) per catalog program and reports
// the modelled bf-p4c-equivalent seconds (Tbl. 1).
func BenchmarkTable1CompileFromScratch(b *testing.B) {
	for _, name := range []string{"switch", "scion", "beaucoup", "accturbo", "dta", "middleblock", "dash"} {
		p, err := progs.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			prog, err := parser.Parse(p.Name, p.Source)
			if err != nil {
				b.Fatal(err)
			}
			comp := devcompiler.New(p.Target)
			var model float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := comp.Compile(prog)
				if err != nil {
					b.Fatal(err)
				}
				model = res.ModelSeconds
			}
			b.ReportMetric(model, "model-s")
			if p.PaperCompileSeconds > 0 {
				b.ReportMetric(p.PaperCompileSeconds, "paper-s")
			}
		})
	}
}

// BenchmarkTable2DataPlaneAnalysis measures the one-time data-plane
// analysis (Tbl. 2 "Data-plane analysis time").
func BenchmarkTable2DataPlaneAnalysis(b *testing.B) {
	for _, name := range []string{"scion", "switch", "middleblock", "dash"} {
		p, err := progs.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			prog, err := parser.Parse(p.Name, p.Source)
			if err != nil {
				b.Fatal(err)
			}
			info, err := typecheck.Check(prog)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dataplane.Analyze(prog, info, dataplane.Options{SkipParser: p.SkipParser}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2UpdateAnalysis measures single-update analysis time
// under the representative configuration (Tbl. 2 "Update analysis
// time").
func BenchmarkTable2UpdateAnalysis(b *testing.B) {
	for _, name := range []string{"scion", "switch", "middleblock", "dash"} {
		p, err := progs.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			s, err := p.Load()
			if err != nil {
				b.Fatal(err)
			}
			if err := p.ApplyRepresentative(s); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var u *controlplane.Update
				switch name {
				case "scion":
					u = progs.ScionBurstEntry(10000 + i)
				case "middleblock":
					u = progs.MiddleblockACLEntry(10000 + i)
				default:
					// Alternate insert/delete of one probe entry so the
					// configuration stays small.
					u = benchProbe(s, p.BurstTable, i)
				}
				if d := s.Apply(u); d.Kind == core.Rejected {
					b.Fatalf("update rejected: %v", d.Err)
				}
			}
		})
	}
}

// benchProbe alternates insert/delete of a fixed entry.
func benchProbe(s *core.Specializer, table string, i int) *controlplane.Update {
	ti := s.An.Tables[table]
	e := &controlplane.TableEntry{Priority: 424242}
	for k, w := range ti.KeyWidths {
		m := controlplane.FieldMatch{Kind: ti.KeyMatch[k], Value: goflay.NewBV(w, 0x3F)}
		switch ti.KeyMatch[k] {
		case controlplane.MatchTernary:
			m.Mask = goflay.NewBV2(w, ^uint64(0), ^uint64(0))
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
			e.Params = append(e.Params, goflay.NewBV(pw, 1))
		}
		break
	}
	kind := controlplane.InsertEntry
	if i%2 == 1 {
		kind = controlplane.DeleteEntry
	}
	return &controlplane.Update{Kind: kind, Table: table, Entry: e}
}

// BenchmarkTable3UpdateScaling measures one update's analysis time with
// N entries already installed in the middleblock Pre-Ingress ACL,
// precise vs overapproximate (Tbl. 3), for a write at either end of the
// table's match order: the head probe outranks every installed entry
// (the installed priorities ascend, so this is where a controller that
// appends rules writes), the deep probe sits under all of them. A
// precise update rebuilds the links of the table's ite chain above the
// entry it writes (controlplane chain.go): one at the head, N deep. The
// 10000-entry precise row is exercised by `flaybench -only table3
// -full`.
func BenchmarkTable3UpdateScaling(b *testing.B) {
	p := progs.Middleblock()
	for _, mode := range []struct {
		name      string
		threshold int
	}{{"precise", -1}, {"overapprox", controlplane.DefaultOverapproxThreshold}} {
		for _, n := range []int{1, 10, 100, 1000} {
			for _, rank := range []string{"head", "deep"} {
				b.Run(fmt.Sprintf("%s-%d/%s", mode.name, n, rank), func(b *testing.B) {
					s, err := p.LoadWith(core.Options{OverapproxThreshold: mode.threshold})
					if err != nil {
						b.Fatal(err)
					}
					batch := make([]*controlplane.Update, n)
					for i := range batch {
						batch[i] = progs.MiddleblockACLEntry(i)
					}
					for _, d := range s.ApplyBatch(batch) {
						if d.Kind == core.Rejected {
							b.Fatal(d.Err)
						}
					}
					// Each op inserts a probe entry and deletes it again, so
					// the installed count stays at n across iterations
					// (ns/op ≈ 2× a single update at size n).
					probe := progs.MiddleblockACLEntry(n)
					if rank == "deep" {
						probe.Entry.Priority = 1 // installed priorities start at 10
					}
					unprobe := &controlplane.Update{
						Kind: controlplane.DeleteEntry, Table: probe.Table, Entry: probe.Entry,
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if d := s.Apply(probe); d.Kind == core.Rejected {
							b.Fatal(d.Err)
						}
						if d := s.Apply(unprobe); d.Kind == core.Rejected {
							b.Fatal(d.Err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFig3Evolution replays the five Fig. 3 updates (four
// recompiles + one forward) including the specialized-program rebuilds.
func BenchmarkFig3Evolution(b *testing.B) {
	p := progs.Fig3()
	for i := 0; i < b.N; i++ {
		pipe, err := goflay.Open(p.Name, p.Source)
		if err != nil {
			b.Fatal(err)
		}
		for _, u := range progs.Fig3Updates() {
			if d := pipe.Apply(u); d.Kind == goflay.Rejected {
				b.Fatal(d.Err)
			}
		}
		if pipe.Statistics().Forwarded != 1 {
			b.Fatal("fig3 shape broken")
		}
	}
}

// BenchmarkFig5Query measures one constant-propagation specialization
// query: substituting a one-entry assignment into the egress_port
// annotation (Fig. 5b block C).
func BenchmarkFig5Query(b *testing.B) {
	p := progs.Fig5()
	prog, err := parser.Parse(p.Name, p.Source)
	if err != nil {
		b.Fatal(err)
	}
	info, err := typecheck.Check(prog)
	if err != nil {
		b.Fatal(err)
	}
	an, err := dataplane.Analyze(prog, info, dataplane.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := controlplane.NewConfig(an)
	if err := cfg.Apply(progs.Fig5Entry()); err != nil {
		b.Fatal(err)
	}
	egress := an.Final["std.egress_port"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, _, err := cfg.CompileEnv(an.Builder)
		if err != nil {
			b.Fatal(err)
		}
		if got := an.Builder.Subst(egress, env); got.IsConst() {
			b.Fatal("one-entry config must stay symbolic")
		}
	}
}

// BenchmarkScionSpecialize measures producing + compiling the
// specialized SCION program under the representative configuration
// (the §4.2 stage-savings experiment).
func BenchmarkScionSpecialize(b *testing.B) {
	p := progs.Scion()
	s, err := p.Load()
	if err != nil {
		b.Fatal(err)
	}
	if err := p.ApplyRepresentative(s); err != nil {
		b.Fatal(err)
	}
	comp := devcompiler.New(devcompiler.TargetTofino)
	var stages int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := comp.Compile(s.SpecializedProgram())
		if err != nil {
			b.Fatal(err)
		}
		stages = res.Allocation.StagesUsed
	}
	b.ReportMetric(float64(stages), "stages")
	b.ReportMetric(float64(comp.Device.Stages), "max-stages")
}

// BenchmarkBurst1000 is the §4.2 burst: 1000 unique IPv4 entries
// against the configured SCION program; reports mean per-update
// decision time and the forward rate.
func BenchmarkBurst1000(b *testing.B) {
	p := progs.Scion()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := p.Load()
		if err != nil {
			b.Fatal(err)
		}
		if err := p.ApplyRepresentative(s); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		t0 := time.Now()
		forwarded := 0
		for j := 0; j < 1000; j++ {
			if s.Apply(progs.ScionBurstEntry(j)).Kind == core.Forward {
				forwarded++
			}
		}
		b.ReportMetric(float64(time.Since(t0).Microseconds())/1000, "µs/update")
		b.ReportMetric(float64(forwarded), "forwarded")
	}
}

// BenchmarkBatchApply compares the sequential per-update engine against
// the coalescing batch engine on the §4.2 SCION burst: 1000 unique IPv4
// entries as one ApplyBatch call (one coalesced evaluation pass over the
// union of tainted points) vs 1000 Apply calls. The batched row should
// beat sequential by well over 2× — the win is algorithmic (1 evaluation
// pass instead of 1000).
func BenchmarkBatchApply(b *testing.B) {
	p := progs.Scion()
	load := func(b *testing.B) *core.Specializer {
		s, err := p.Load()
		if err != nil {
			b.Fatal(err)
		}
		if err := p.ApplyRepresentative(s); err != nil {
			b.Fatal(err)
		}
		return s
	}
	batch := make([]*controlplane.Update, 1000)
	for j := range batch {
		batch[j] = progs.ScionBurstEntry(j)
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := load(b)
			b.StartTimer()
			t0 := time.Now()
			for _, u := range batch {
				if s.Apply(u).Kind == core.Rejected {
					b.Fatal("update rejected")
				}
			}
			b.ReportMetric(float64(time.Since(t0).Microseconds())/1000, "µs/update")
		}
	})
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := load(b)
			b.StartTimer()
			t0 := time.Now()
			for _, d := range s.ApplyBatch(batch) {
				if d.Kind == core.Rejected {
					b.Fatal("update rejected")
				}
			}
			b.ReportMetric(float64(time.Since(t0).Microseconds())/1000, "µs/update")
			b.ReportMetric(float64(s.Statistics().Coalesced), "coalesced")
		}
	})
	// Controller-realistic chunking: the burst arrives as 64-update
	// P4Runtime Write batches.
	b.Run("batched-64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := load(b)
			b.StartTimer()
			t0 := time.Now()
			for start := 0; start < len(batch); start += 64 {
				end := min(start+64, len(batch))
				for _, d := range s.ApplyBatch(batch[start:end]) {
					if d.Kind == core.Rejected {
						b.Fatal("update rejected")
					}
				}
			}
			b.ReportMetric(float64(time.Since(t0).Microseconds())/1000, "µs/update")
		}
	})
}

// BenchmarkFig1TraceGeneration measures control-plane trace generation
// (the Fig. 1 workload model).
func BenchmarkFig1TraceGeneration(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		evs := trace.Generate(time.Hour, trace.Profile{})
		n = len(evs)
	}
	b.ReportMetric(float64(n), "events/h")
}

// BenchmarkSpecializedProgramRebuild measures the pass pipeline alone
// (dead-code elimination, inlining, narrowing) on the configured SCION
// program.
func BenchmarkSpecializedProgramRebuild(b *testing.B) {
	p := progs.Scion()
	s, err := p.Load()
	if err != nil {
		b.Fatal(err)
	}
	if err := p.ApplyRepresentative(s); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out *ast.Program
	for i := 0; i < b.N; i++ {
		out = s.SpecializedProgram()
	}
	if out == nil {
		b.Fatal("no program")
	}
}

// BenchmarkAblationIncrementalVsFull compares per-update work with and
// without incrementality on the configured SCION program: taint-routed
// update analysis (Flay) vs re-evaluating every program point (what a
// non-incremental specializer effectively does per update). This is the
// repository's ablation for the paper's core claim.
func BenchmarkAblationIncrementalVsFull(b *testing.B) {
	build := func(b *testing.B) *core.Specializer {
		p := progs.Scion()
		s, err := p.Load()
		if err != nil {
			b.Fatal(err)
		}
		if err := p.ApplyRepresentative(s); err != nil {
			b.Fatal(err)
		}
		return s
	}
	b.Run("incremental", func(b *testing.B) {
		s := build(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d := s.Apply(progs.ScionBurstEntry(100000 + i)); d.Kind == core.Rejected {
				b.Fatal(d.Err)
			}
		}
	})
	b.Run("full-reeval", func(b *testing.B) {
		s := build(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d := s.Apply(progs.ScionBurstEntry(100000 + i)); d.Kind == core.Rejected {
				b.Fatal(d.Err)
			}
			if changed := s.ReevaluateAll(); changed != 0 {
				b.Fatalf("full re-evaluation disagreed with incremental verdicts at %d points", changed)
			}
		}
	})
}

// BenchmarkAblationQuality measures SpecializedProgram rebuild time per
// quality level (paper §6 tradeoff exploration).
func BenchmarkAblationQuality(b *testing.B) {
	p := progs.Scion()
	for _, q := range []core.Quality{core.QualityFull, core.QualityNoNarrowing, core.QualityDCEOnly, core.QualityNone} {
		b.Run(q.String(), func(b *testing.B) {
			s, err := p.LoadWith(core.Options{Quality: q})
			if err != nil {
				b.Fatal(err)
			}
			if err := p.ApplyRepresentative(s); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.SpecializedProgram()
			}
		})
	}
}

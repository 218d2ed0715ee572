// flay is the command-line front end to goflay's incremental
// specializer.
//
// Usage:
//
//	flay analyze    (<file.p4> | catalog:<name>)   print analysis stats
//	flay specialize (<file.p4> | catalog:<name>)   print the specialized program
//	flay compile    (<file.p4> | catalog:<name>)   lower onto the Tofino model
//	flay demo       catalog:<name>                 replay the representative config
//	flay list                                      list catalog programs
//
// Flags (before the subcommand arguments):
//
//	-skip-parser        skip parser analysis
//	-threshold N        overapproximation threshold (-1 = precise mode)
//	-target tofino|bmv2 device backend for compile
//	-representative     install the catalog entry's representative config first
//	-explain TABLE      print the decision-diagram explanation of TABLE's points
//	-audit FILE         dump the decision audit trail as JSONL ("-" = stdout)
//	-snapshot FILE      checkpoint the engine's warm state to FILE afterwards
//	-restore FILE       warm-restart from a snapshot instead of opening a source
//
// With -restore the positional source argument is omitted: the
// snapshot embeds the program, the installed configuration and the
// decision counters, so e.g.
//
//	flay -snapshot scion.snap demo catalog:scion
//	flay -restore scion.snap specialize
//
// resumes the stream without replaying it; verdicts are computed from
// the restored configuration, not read from the file.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	goflay "repro"
	"repro/internal/core"
	"repro/internal/progs"
)

func main() {
	skipParser := flag.Bool("skip-parser", false, "skip parser analysis")
	threshold := flag.Int("threshold", 0, "overapproximation threshold (0 = default 100, negative = precise)")
	target := flag.String("target", "tofino", "device backend (tofino|bmv2)")
	representative := flag.Bool("representative", false, "install the catalog representative configuration first")
	explainTable := flag.String("explain", "", "print the decision-diagram explanation of every program point the named table influences")
	auditPath := flag.String("audit", "", `dump the decision audit trail as JSONL to FILE ("-" = stdout)`)
	snapshotPath := flag.String("snapshot", "", "checkpoint the engine's warm state to FILE after the command")
	restorePath := flag.String("restore", "", "warm-restart from a snapshot FILE instead of opening a source")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	cmd := args[0]
	if cmd == "list" {
		for _, p := range progs.Catalog() {
			fmt.Printf("catalog:%-14s target=%-7s", p.Name, p.Target)
			if p.PaperStatements > 0 {
				fmt.Printf(" paper-stmts=%-4d", p.PaperStatements)
			} else {
				fmt.Printf("%17s", "")
			}
			if p.Summary != "" {
				fmt.Printf(" %s", p.Summary)
			}
			fmt.Println()
		}
		return
	}
	var (
		name         string
		source       string
		catalogEntry *progs.Program
	)
	switch {
	case *restorePath != "":
		// The snapshot embeds the program; no source argument.
		if len(args) != 1 {
			usage()
			os.Exit(2)
		}
		name = *restorePath
	case len(args) == 2:
		name, source, catalogEntry = loadSource(args[1])
	default:
		usage()
		os.Exit(2)
	}
	opts := []goflay.Option{goflay.WithOverapproxThreshold(*threshold)}
	if *skipParser || (catalogEntry != nil && catalogEntry.SkipParser) {
		opts = append(opts, goflay.WithSkipParser())
	}
	var trail *goflay.AuditTrail
	if *auditPath != "" {
		trail = goflay.NewAuditTrail(0)
		opts = append(opts, goflay.WithAudit(trail))
	}
	switch *target {
	case "tofino":
		opts = append(opts, goflay.WithTarget(goflay.TargetTofino))
	case "bmv2":
		opts = append(opts, goflay.WithTarget(goflay.TargetBMv2))
	default:
		fatal("unknown target %q", *target)
	}

	t0 := time.Now()
	var pipe *goflay.Pipeline
	var err error
	if *restorePath != "" {
		data, rerr := os.ReadFile(*restorePath)
		if rerr != nil {
			fatal("%v", rerr)
		}
		pipe, err = goflay.Restore(data, opts...)
	} else {
		pipe, err = goflay.Open(name, source, opts...)
	}
	if err != nil {
		fatal("%v", err)
	}
	openTime := time.Since(t0)

	if *representative {
		if catalogEntry == nil {
			fatal("-representative requires a catalog: program")
		}
		for _, u := range catalogEntry.Representative() {
			if d := pipe.Apply(u); d.Kind == goflay.Rejected {
				fatal("representative config rejected: %v", d.Err)
			}
		}
	}

	switch cmd {
	case "analyze":
		st := pipe.Statistics()
		fmt.Printf("program:             %s\n", name)
		fmt.Printf("tables:              %d (%s)\n", len(pipe.Tables()), strings.Join(pipe.Tables(), ", "))
		fmt.Printf("program points:      %d\n", st.Points)
		fmt.Printf("data-plane analysis: %v\n", st.AnalysisTime.Round(time.Microsecond))
		fmt.Printf("preprocessing:       %v\n", st.PreprocessTime.Round(time.Microsecond))
		fmt.Printf("open (total):        %v\n", openTime.Round(time.Microsecond))
	case "specialize":
		fmt.Print(pipe.SpecializedSource())
	case "compile":
		full, err := pipe.CompileOriginal()
		if err != nil {
			fatal("%v", err)
		}
		spec, err := pipe.Compile()
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("original:    %s\n", full)
		fmt.Printf("specialized: %s\n", spec)
	case "demo":
		if catalogEntry == nil {
			fatal("demo requires a catalog: program")
		}
		runDemo(pipe, catalogEntry)
	default:
		usage()
		os.Exit(2)
	}

	if *explainTable != "" {
		if err := runExplain(pipe, *explainTable); err != nil {
			fatal("%v", err)
		}
	}
	if *auditPath != "" {
		if err := dumpAudit(pipe.Audit(), *auditPath); err != nil {
			fatal("%v", err)
		}
	}
	if *snapshotPath != "" {
		data, err := pipe.Snapshot()
		if err != nil {
			fatal("%v", err)
		}
		if err := os.WriteFile(*snapshotPath, data, 0o644); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "flay: snapshot (%d bytes) written to %s\n", len(data), *snapshotPath)
	}
}

// runExplain prints, for every program point the named table
// influences, the verdict and the decision-diagram path that produced
// it: the predicates tested along the witness assignment, the branch
// taken at each, and the witness itself.
func runExplain(pipe *goflay.Pipeline, table string) error {
	ids, err := pipe.Points(table)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d program points\n", table, len(ids))
	for _, id := range ids {
		ex, err := pipe.Explain(table, id)
		if err != nil {
			return err
		}
		fmt.Printf("point #%d %s [%s]: %s", ex.Point, ex.Kind, ex.Query, ex.Verdict)
		if ex.Value != "" {
			fmt.Printf(" = %s", ex.Value)
		}
		source := ex.Source
		if ex.FreeBits > 0 {
			source = fmt.Sprintf("%s: %d free bits, not proven", ex.Source, ex.FreeBits)
		}
		fmt.Printf(" (%s, epoch %d)\n", source, ex.Epoch)
		for _, st := range ex.Steps {
			branch := "false"
			if st.Taken {
				branch = "true"
			}
			fmt.Printf("  %-40s -> %s\n", st.Pred, branch)
		}
		if len(ex.Witness) > 0 {
			names := make([]string, 0, len(ex.Witness))
			for n := range ex.Witness {
				names = append(names, n)
			}
			sort.Strings(names)
			fmt.Printf("  witness:")
			for _, n := range names {
				fmt.Printf(" @%s@=%s", n, ex.Witness[n])
			}
			fmt.Println()
		}
	}
	return nil
}

// dumpAudit writes the pipeline's decision audit trail as JSONL — one
// record per control-plane update the engine decided.
func dumpAudit(trail *goflay.AuditTrail, path string) error {
	if path == "-" {
		return trail.WriteJSONL(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trail.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "flay: audit trail (%d records) written to %s\n", trail.Len(), path)
	return nil
}

func runDemo(pipe *goflay.Pipeline, p *progs.Program) {
	if p.Representative == nil {
		fatal("catalog:%s has no representative configuration", p.Name)
	}
	fmt.Printf("replaying the representative configuration for %s...\n", p.Name)
	forwarded, recompiled := 0, 0
	t0 := time.Now()
	for _, u := range p.Representative() {
		switch pipe.Apply(u).Kind {
		case goflay.Forward:
			forwarded++
		case goflay.Recompile:
			recompiled++
		case core.Rejected:
			fatal("update rejected")
		}
	}
	fmt.Printf("%d updates in %v: %d forwarded, %d recompiled\n",
		forwarded+recompiled, time.Since(t0).Round(time.Millisecond), forwarded, recompiled)
	rep, err := pipe.Compile()
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("specialized implementation: %s\n", rep)
}

func loadSource(arg string) (string, string, *progs.Program) {
	if n, ok := strings.CutPrefix(arg, "catalog:"); ok {
		p, err := progs.ByName(n)
		if err != nil {
			fatal("%v (try `flay list`)", err)
		}
		return p.Name, p.Source, p
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		fatal("%v", err)
	}
	return arg, string(data), nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flay: "+format+"\n", args...)
	os.Exit(1)
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: flay [flags] <analyze|specialize|compile|demo> (<file.p4> | catalog:<name>)
       flay -restore FILE [flags] <analyze|specialize|compile>
       flay list

flags:
  -skip-parser      skip parser analysis
  -threshold N      overapproximation threshold (negative = precise mode)
  -target T         tofino (default) or bmv2
  -representative   install the catalog representative configuration first
  -explain TABLE    print the decision-diagram explanation of TABLE's points
  -audit FILE       dump the decision audit trail as JSONL ("-" = stdout)
  -snapshot FILE    checkpoint the engine's warm state to FILE afterwards
  -restore FILE     warm-restart from a snapshot (no source argument)
`)
}

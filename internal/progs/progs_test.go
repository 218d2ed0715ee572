package progs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/devcompiler"
	"repro/internal/p4/ast"
	"repro/internal/p4/parser"
	"repro/internal/p4/typecheck"
)

// TestCatalogBuilds: every program parses, typechecks, analyzes and
// compiles; statement counts stay within 5% of the paper's Table 2
// numbers.
func TestCatalogBuilds(t *testing.T) {
	for _, p := range Catalog() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			prog, err := parser.Parse(p.Name, p.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if _, err := typecheck.Check(prog); err != nil {
				t.Fatalf("typecheck: %v", err)
			}
			if p.PaperStatements > 0 {
				got := ast.CountStatements(prog)
				lo := p.PaperStatements * 95 / 100
				hi := p.PaperStatements * 105 / 100
				if got < lo || got > hi {
					t.Errorf("statements = %d, want within 5%% of %d", got, p.PaperStatements)
				}
			}
			res, err := devcompiler.New(p.Target).Compile(prog)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if p.Target == devcompiler.TargetTofino && !res.Allocation.Feasible {
				t.Errorf("unspecialized program must fit the device: %s", res.Allocation)
			}
		})
	}
}

// TestCatalogSpecializes: loading + representative config + producing a
// valid specialized program works for every entry.
func TestCatalogSpecializes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: full catalog specialization")
	}
	for _, p := range Catalog() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			s, err := p.Load()
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if err := p.ApplyRepresentative(s); err != nil {
				t.Fatal(err)
			}
			spec := s.SpecializedProgram()
			src := ast.Print(spec)
			p2, err := parser.Parse(spec.Name, src)
			if err != nil {
				t.Fatalf("specialized program does not re-parse: %v", err)
			}
			if _, err := typecheck.Check(p2); err != nil {
				t.Fatalf("specialized program does not typecheck: %v", err)
			}
		})
	}
}

// TestScionStageSavings reproduces the paper's §4.2 headline: the
// unspecialized SCION program needs the maximum number of Tofino-2
// stages; specialized under the representative (IPv6-free)
// configuration it needs 20% fewer; after the IPv6-enabling batch it is
// back at the maximum.
func TestScionStageSavings(t *testing.T) {
	p := Scion()
	comp := devcompiler.New(devcompiler.TargetTofino)

	s, err := p.Load()
	if err != nil {
		t.Fatal(err)
	}
	full, err := comp.Compile(s.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if full.Allocation.StagesUsed != comp.Device.Stages {
		t.Fatalf("unspecialized scion uses %d stages, want the maximum %d",
			full.Allocation.StagesUsed, comp.Device.Stages)
	}

	if err := p.ApplyRepresentative(s); err != nil {
		t.Fatal(err)
	}
	spec, err := comp.Compile(s.SpecializedProgram())
	if err != nil {
		t.Fatal(err)
	}
	want := comp.Device.Stages * 8 / 10 // 20% fewer
	if spec.Allocation.StagesUsed != want {
		t.Fatalf("specialized scion uses %d stages, want %d (20%% fewer than %d)",
			spec.Allocation.StagesUsed, want, comp.Device.Stages)
	}
	if spec.Allocation.PHVBits >= full.Allocation.PHVBits {
		t.Errorf("specialization should also reduce PHV: %d vs %d",
			spec.Allocation.PHVBits, full.Allocation.PHVBits)
	}

	// Enable IPv6: respecialization must be triggered and stages return
	// to the maximum.
	sawRecompile := false
	for _, u := range p.IPv6Enable() {
		d := s.Apply(u)
		if d.Kind == core.Rejected {
			t.Fatalf("ipv6 update rejected: %v", d.Err)
		}
		if d.Kind == core.Recompile {
			sawRecompile = true
		}
	}
	if !sawRecompile {
		t.Fatal("enabling IPv6 must trigger respecialization")
	}
	after, err := comp.Compile(s.SpecializedProgram())
	if err != nil {
		t.Fatal(err)
	}
	if after.Allocation.StagesUsed != comp.Device.Stages {
		t.Fatalf("after IPv6 enable: %d stages, want the maximum %d",
			after.Allocation.StagesUsed, comp.Device.Stages)
	}
}

// TestScionBurst reproduces the §4.2 burst experiment at unit-test
// scale: after the representative configuration, a burst of unique IPv4
// entries is judged semantics-preserving (forwarded) quickly.
func TestScionBurst(t *testing.T) {
	p := Scion()
	s, err := p.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ApplyRepresentative(s); err != nil {
		t.Fatal(err)
	}
	n := 100
	if testing.Short() {
		n = 20
	}
	forwarded := 0
	for i := 0; i < n; i++ {
		d := s.Apply(ScionBurstEntry(i))
		switch d.Kind {
		case core.Forward:
			forwarded++
		case core.Rejected:
			t.Fatalf("burst entry %d rejected: %v", i, d.Err)
		}
	}
	if forwarded < n*9/10 {
		t.Fatalf("only %d/%d burst updates forwarded; the burst must be recognised as semantics-preserving", forwarded, n)
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("scion"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown program")
	}
}

func TestFig3UpdatesReplayCleanly(t *testing.T) {
	p := Fig3()
	s, err := p.Load()
	if err != nil {
		t.Fatal(err)
	}
	kinds := []core.DecisionKind{}
	for _, u := range Fig3Updates() {
		d := s.Apply(u)
		if d.Kind == core.Rejected {
			t.Fatalf("fig3 update rejected: %v", d.Err)
		}
		kinds = append(kinds, d.Kind)
	}
	// insert(0-mask), delete, insert(full), insert(masked), insert(#3):
	// the final update must forward, the others recompile.
	want := []core.DecisionKind{core.Recompile, core.Recompile, core.Recompile, core.Recompile, core.Forward}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("fig3 step %d: %v, want %v (all: %v)", i+1, kinds[i], want[i], kinds)
		}
	}
}

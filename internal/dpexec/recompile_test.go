package dpexec_test

import (
	"slices"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/dpexec"
	"repro/internal/fuzz"
	"repro/internal/p4/ast"
	"repro/internal/p4/typecheck"
	"repro/internal/progs"
	"repro/internal/sym"
)

// variant is one program a catalog engine can be compiled as.
type variant struct {
	name string
	prog *ast.Program
	info *typecheck.Info
}

func specialized(t *testing.T, s *core.Specializer, name string) variant {
	t.Helper()
	spec := s.SpecializedProgram()
	info, err := typecheck.Check(spec)
	if err != nil {
		t.Fatalf("%s does not typecheck: %v", name, err)
	}
	return variant{name, spec, info}
}

// blocks collects every entry action block of img.
func blocks(img *dpexec.Image) map[any]bool {
	out := make(map[any]bool)
	for _, table := range img.Tables() {
		for _, c := range img.Chunks(table) {
			for _, b := range c.Blocks {
				if b != nil {
					out[b] = true
				}
			}
		}
	}
	return out
}

// carriedFrom splits img's entry blocks into those it shares with prev
// and those it compiled.
func carriedFrom(prev, img *dpexec.Image) (carried, compiled int) {
	held := blocks(prev)
	for b := range blocks(img) {
		if held[b] {
			carried++
		} else {
			compiled++
		}
	}
	return carried, compiled
}

// recompileAgrees holds prev.Recompile(v) to fresh, Compile(v): the
// same hash, and BlocksCompiled equal to the entry blocks it did not
// carry. It returns the image and how many blocks it carried.
func recompileAgrees(t *testing.T, when string, prev *dpexec.Image, v variant, cfg *controlplane.Config, fresh *dpexec.Image) (*dpexec.Image, int) {
	t.Helper()
	img, err := prev.Recompile(v.prog, v.info, cfg)
	if err != nil {
		t.Fatalf("%s: recompile %s: %v", when, v.name, err)
	}
	if img.Hash() != fresh.Hash() {
		t.Fatalf("%s: recompiling %s hashes %#x, a fresh compile %#x", when, v.name, img.Hash(), fresh.Hash())
	}
	carried, compiled := carriedFrom(prev, img)
	if img.BlocksCompiled() != compiled {
		t.Fatalf("%s: recompiling %s reports %d blocks compiled, %d were not carried (%d were)",
			when, v.name, img.BlocksCompiled(), compiled, carried)
	}
	if !dpexec.BlocksPortable(prev, img) && carried > 0 {
		t.Fatalf("%s: recompiling %s carried %d blocks across a slot layout shift", when, v.name, carried)
	}
	return img, carried
}

// TestRecompileMatchesCompile: over catalog × {original, specialized}
// programs × {representative, churned} configurations, Recompile against
// every predecessor image built so far gives what Compile gives, and
// compiles a block for exactly the active entries it did not carry. The
// predecessors include images of other programs and of the configuration
// before the churn; a pair whose slot layouts differ carries nothing.
func TestRecompileMatchesCompile(t *testing.T) {
	var shifted, carried int
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			s, err := p.Load()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := p.ApplyRepresentative(s); err != nil {
				t.Fatal(err)
			}
			type held struct {
				name string
				img  *dpexec.Image
			}
			var preds []held
			stage := func(cfgName string, vs []variant) {
				fresh := make([]*dpexec.Image, len(vs))
				for i, v := range vs {
					img, err := dpexec.Compile(v.prog, v.info, s.Cfg)
					if err != nil {
						t.Fatalf("compile %s: %v", v.name, err)
					}
					fresh[i] = img
					preds = append(preds, held{v.name + "@" + cfgName, img})
				}
				for _, pr := range preds {
					for i, v := range vs {
						_, n := recompileAgrees(t, pr.name+" → "+cfgName, pr.img, v, s.Cfg, fresh[i])
						if !dpexec.BlocksPortable(pr.img, fresh[i]) {
							shifted++
						}
						carried += n
					}
				}
			}
			orig := variant{"original", s.Prog, s.Info}
			rep := specialized(t, s, "specialized@representative")
			stage("representative", []variant{orig, rep, withLocal(t, s.Prog)})
			cs, err := fuzz.Churn(s.An, fuzz.ChurnSpec{Kind: fuzz.PatternKinds()[0], Table: p.BurstTable, Updates: 40, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range cs.Batches() {
				for _, d := range s.ApplyBatch(batch) {
					if d.Kind == core.Rejected {
						t.Fatalf("churn: %s rejected: %v", d.Update, d.Err)
					}
				}
			}
			stage("churned", []variant{orig, rep, specialized(t, s, "specialized@churned")})
		})
	}
	if shifted == 0 || carried == 0 {
		t.Fatalf("the pairs carried %d blocks and %d shifted the slot layout; want both", carried, shifted)
	}
}

// withLocal is prog with one more local declared ahead of the first
// control's: every slot the prewalk allocates after it shifts by one.
func withLocal(t *testing.T, prog *ast.Program) variant {
	t.Helper()
	out := *prog
	out.Controls = slices.Clone(prog.Controls)
	cd := *prog.Controls[0]
	cd.Locals = append([]*ast.VarDecl{{Type: ast.Type{Kind: ast.TypeBit, Width: 8}, Name: "shift", TokPos: cd.TokPos}}, cd.Locals...)
	out.Controls[0] = &cd
	info, err := typecheck.Check(&out)
	if err != nil {
		t.Fatalf("program with a local added does not typecheck: %v", err)
	}
	return variant{"shifted", &out, info}
}

// contextSrc's action reads and writes the control's two locals; the
// apply block declares a third, which shadows the first only in the
// variant that unwraps it from its block.
const contextSrc = `
header ipv4_t { bit<8> ttl; bit<8> proto; bit<32> src; bit<32> dst; }
struct headers { ipv4_t ipv4; }
struct metadata { }
parser P(packet_in pkt, out headers hdr, inout metadata meta, inout standard_metadata_t std) {
    state start {
        pkt.extract(hdr.ipv4);
        transition accept;
    }
}
control Ingress(inout headers hdr, inout metadata meta, inout standard_metadata_t std) {
    bit<8> a;
    bit<8> b;
    action set(bit<8> v) {
        a = v;
        b = a + 8w1;
        hdr.ipv4.ttl = b;
    }
    table t {
        key = { hdr.ipv4.dst: exact; }
        actions = { set; NoAction; }
    }
    apply {
        { bit<8> a = 8w7; }
        t.apply();
    }
}
`

// TestRecompileChecksCompileContext: a table carries only where its
// entry blocks would compile alike. With the control's locals declared
// in the other order the slot layout differs; with the apply block's
// local unwrapped from its block the apply-site scope differs. Either
// way nothing carries and the image is a fresh compile's.
func TestRecompileChecksCompileContext(t *testing.T) {
	s, err := core.NewFromSource("context", contextSrc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := range 8 {
		u := &controlplane.Update{Kind: controlplane.InsertEntry, Table: "Ingress.t", Entry: &controlplane.TableEntry{
			Matches: []controlplane.FieldMatch{{Kind: controlplane.MatchExact, Value: sym.NewBV(32, uint64(i))}},
			Action:  "set", Params: []sym.BV{sym.NewBV(8, uint64(i))},
		}}
		if d := s.Apply(u); d.Kind == core.Rejected {
			t.Fatal(d.Err)
		}
	}
	prev, err := dpexec.Compile(s.Prog, s.Info, s.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	cd := s.Prog.Controls[0]
	copied, reordered, unwrapped := *cd, *cd, *cd
	reordered.Locals = []*ast.VarDecl{cd.Locals[1], cd.Locals[0]}
	unwrapped.Apply = &ast.BlockStmt{Stmts: []ast.Stmt{cd.Apply.Stmts[0].(*ast.BlockStmt).Stmts[0], cd.Apply.Stmts[1]}}
	for _, v := range []struct {
		name  string
		cd    *ast.ControlDecl
		carry int
	}{{"copied", &copied, 8}, {"reordered", &reordered, 0}, {"unwrapped", &unwrapped, 0}} {
		prog := *s.Prog
		prog.Controls = []*ast.ControlDecl{v.cd}
		info, err := typecheck.Check(&prog)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		fresh, err := dpexec.Compile(&prog, info, s.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, got := recompileAgrees(t, v.name, prev, variant{v.name, &prog, info}, s.Cfg, fresh); got != v.carry {
			t.Errorf("%s: carried %d entry blocks, want %d", v.name, got, v.carry)
		}
	}
}

// withAction rebuilds prog with control cd's action act replaced by
// repl, or dropped — from the control and from every table that lists it
// — when repl is nil.
func withAction(prog *ast.Program, cd *ast.ControlDecl, act, repl *ast.Action) *ast.Program {
	out := *prog
	out.Controls = slices.Clone(prog.Controls)
	ncd := *cd
	ncd.Actions = nil
	for _, a := range cd.Actions {
		switch {
		case a != act:
			ncd.Actions = append(ncd.Actions, a)
		case repl != nil:
			ncd.Actions = append(ncd.Actions, repl)
		}
	}
	if repl == nil {
		ncd.Tables = nil
		for _, tbl := range cd.Tables {
			nt := *tbl
			nt.Actions = slices.DeleteFunc(slices.Clone(tbl.Actions), func(r ast.ActionRef) bool { return r.Name == act.Name })
			ncd.Tables = append(ncd.Tables, &nt)
		}
	}
	out.Controls[slices.Index(prog.Controls, cd)] = &ncd
	return &out
}

// TestRecompileChecksEachEntrysAction: an entry carries only while its
// action name resolves to the declaration its block inlines. With one
// action swapped for an identical declaration of its own, the entries
// naming it compile again and every other entry carries; with the
// action dropped from its control, the entries naming it trap, as in a
// fresh compile.
func TestRecompileChecksEachEntrysAction(t *testing.T) {
	exercised := 0
	for _, p := range progs.Catalog() {
		s, err := p.Load()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.ApplyRepresentative(s); err != nil {
			t.Fatal(err)
		}
		prev, err := dpexec.Compile(s.Prog, s.Info, s.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The first action an active entry names, and the blocks of the
		// entries that name it.
		var cd *ast.ControlDecl
		var act *ast.Action
		named := make(map[any]bool)
		for _, c := range s.Prog.Controls {
			for _, tbl := range c.Tables {
				for _, ch := range prev.Chunks(c.Name + "." + tbl.Name) {
					for i, src := range ch.Sources {
						if act == nil && src.Action != "NoAction" {
							cd, act = c, c.Action(src.Action)
						}
						if c == cd && src.Action == act.Name && ch.Blocks[i] != nil {
							named[ch.Blocks[i]] = true
						}
					}
				}
			}
		}
		s.Close()
		if act == nil {
			continue
		}
		copied := *act
		for _, v := range []struct {
			name string
			prog *ast.Program
		}{
			{"swapped", withAction(s.Prog, cd, act, &copied)},
			{"dropped", withAction(s.Prog, cd, act, nil)},
		} {
			info, err := typecheck.Check(v.prog)
			if err != nil {
				continue // the action is called directly, or is a default
			}
			when := p.Name + " " + act.Name + " " + v.name
			fresh, err := dpexec.Compile(v.prog, info, s.Cfg)
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			img, _ := recompileAgrees(t, when, prev, variant{v.name, v.prog, info}, s.Cfg, fresh)
			if !dpexec.BlocksPortable(prev, img) {
				continue
			}
			exercised++
			kept := blocks(img)
			for b := range blocks(prev) {
				if kept[b] == named[b] {
					t.Fatalf("%s: an entry block was %s, want every block of %s recompiled and every other carried",
						when, map[bool]string{true: "carried", false: "recompiled"}[kept[b]], act.Name)
				}
			}
			if want := len(named); v.name == "swapped" && img.BlocksCompiled() != want {
				t.Fatalf("%s: compiled %d blocks, want the %d of the entries naming %s", when, img.BlocksCompiled(), want, act.Name)
			}
		}
	}
	if exercised == 0 {
		t.Fatal("no catalog program kept its slot layout with an action swapped or dropped")
	}
}

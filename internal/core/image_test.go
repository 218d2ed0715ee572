// Image maintenance suite: the published executable image must be what
// a fresh compile would produce after every mutation, whichever way the
// engine got there (patch or recompile); a forwarded write must cost
// work proportional to the entries it changed, not to the table; and
// the stage's instruments must agree with the decisions that drove it.
package core_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/dpexec"
	"repro/internal/fuzz"
	"repro/internal/obs"
	"repro/internal/p4/ast"
	"repro/internal/p4/typecheck"
	"repro/internal/progs"
	"repro/internal/sym"
)

// freshImage compiles the engine's current specialized program under
// the live configuration (dpexec.Compile), against a fresh type check
// of the program. That check is the one the engine no longer makes:
// every expression it types must carry the same type in the Info the
// rewriter derived, the one the engine compiles its images against.
func freshImage(t *testing.T, s *core.Specializer) *dpexec.Image {
	t.Helper()
	spec, carried := core.SpecializedProgramInfo(s)
	info, err := typecheck.Check(spec)
	if err != nil {
		t.Fatalf("specialized program does not typecheck: %v", err)
	}
	for e, want := range info.Types {
		if got := carried.TypeOf(e); got != want {
			t.Fatalf("%s: %s carried as %s, a fresh check types it %s", e.Pos(), ast.ExprString(e), got, want)
		}
	}
	img, err := dpexec.Compile(spec, info, s.Cfg)
	if err != nil {
		t.Fatalf("fresh compile: %v", err)
	}
	return img
}

func checkImageParity(t *testing.T, s *core.Specializer, when string) {
	t.Helper()
	if got, want := s.Epoch().Image().Hash(), freshImage(t, s).Hash(); got != want {
		t.Fatalf("%s: published image hashes %#x, a fresh compile %#x", when, got, want)
	}
}

// TestImageParityAtEveryPublication: catalog × churn pattern, pushed the
// way a controller would (one ApplyBatch per declared batch), then
// drained half by single Apply and half by one batch. After every call
// the published image must hash like a fresh dpexec.Compile of the
// specialized program under the live configuration.
func TestImageParityAtEveryPublication(t *testing.T) {
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, kind := range fuzz.PatternKinds() {
				s, err := p.LoadWith(core.Options{Exec: true})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				checkImageParity(t, s, "open")
				if err := p.ApplyRepresentative(s); err != nil {
					t.Fatal(err)
				}
				checkImageParity(t, s, "representative")
				cs, err := fuzz.Churn(s.An, fuzz.ChurnSpec{
					Kind: kind, Table: p.BurstTable, Updates: 48, Seed: uint64(kind)*17 + 3,
				})
				if err != nil {
					t.Fatal(err)
				}
				for bi, batch := range cs.Batches() {
					for _, d := range s.ApplyBatch(batch) {
						if d.Kind == core.Rejected {
							t.Fatalf("%s batch %d: %s rejected: %v", kind, bi, d.Update, d.Err)
						}
					}
					checkImageParity(t, s, kind.String()+" batch")
				}
				drain := cs.Drain()
				for _, u := range drain[:len(drain)/2] {
					if d := s.Apply(u); d.Kind == core.Rejected {
						t.Fatalf("%s drain: %s rejected: %v", kind, u, d.Err)
					}
					checkImageParity(t, s, kind.String()+" drain apply")
				}
				s.ApplyBatch(drain[len(drain)/2:])
				checkImageParity(t, s, kind.String()+" drain batch")
			}
		})
	}
}

// inlineSrc inlines an action whose parameter sits inside expressions:
// an arithmetic operand, a checksum16 argument and an if condition. The
// inlined body is made of copies of the action's expression nodes, each
// with the type of the node it copies.
const inlineSrc = `
header h_t {
    bit<16> a;
    bit<16> b;
    bit<16> c;
}
struct headers { h_t h; }
struct metadata { }
parser MyParser(packet_in pkt, out headers hdr, inout metadata meta, inout standard_metadata_t std) {
    state start {
        pkt.extract(hdr.h);
        transition accept;
    }
}
control Ingress(inout headers hdr, inout metadata meta, inout standard_metadata_t std) {
    action set(bit<16> p) {
        hdr.h.b = hdr.h.a + p;
        hdr.h.c = checksum16(hdr.h.a ^ p, hdr.h.b);
        if (hdr.h.a == p) {
            std.egress_port = 9w2;
        }
    }
    action noop() { }
    table t {
        key = { hdr.h.a: ternary; }
        actions = { set; noop; }
        default_action = noop;
    }
    apply {
        t.apply();
    }
}
`

// TestInlinedParameterTypes: one all-wildcard entry inlines set into the
// apply block. The published image must hash like a fresh compile, every
// expression of the inlined body must carry the type a fresh check gives
// it (freshImage), the overlay must hold only the nodes the substitution
// changed, and no image compile may have failed.
func TestInlinedParameterTypes(t *testing.T) {
	s, err := core.NewFromSource("inline", inlineSrc, core.Options{Exec: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d := s.Apply(&controlplane.Update{Kind: controlplane.InsertEntry, Table: "Ingress.t", Entry: &controlplane.TableEntry{
		Matches: []controlplane.FieldMatch{{Kind: controlplane.MatchTernary, Value: sym.NewBV(16, 7), Mask: sym.NewBV(16, 0)}},
		Action:  "set",
		Params:  []sym.BV{sym.NewBV(16, 0x1234)},
	}})
	if d.Kind != core.Recompile {
		t.Fatalf("the wildcard entry decided %s, want recompile", d.Kind)
	}
	if src := ast.Print(s.SpecializedProgram()); !strings.Contains(src, "checksum16(hdr.h.a ^ 16w0x1234, hdr.h.b)") {
		t.Fatalf("set is not inlined:\n%s", src)
	}
	checkImageParity(t, s, "inlined set")
	// Only nodes that hold the parameter are copies: hdr.h and hdr.h.a
	// are the action's own nodes, so the overlay has no entry for them.
	for e := range core.SpecializedOverlay(s) {
		if str := ast.ExprString(e); str == "hdr.h" || str == "hdr.h.a" {
			t.Fatalf("the overlay holds a copy of %s, which holds no parameter", str)
		}
	}
	if n := s.Statistics().ImageErrors; n != 0 {
		t.Fatalf("%d image compiles failed", n)
	}
}

// TestImageParityAcrossPrecision: the publication paths the catalog
// suite does not take. scion opened at every quality, churned, then
// degraded and promoted again; each precision change recompiles the
// image, and each image must match a fresh compile of a freshly checked
// program.
func TestImageParityAcrossPrecision(t *testing.T) {
	p, err := progs.ByName("scion")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []core.Quality{core.QualityFull, core.QualityNoNarrowing, core.QualityDCEOnly, core.QualityNone} {
		t.Run(q.String(), func(t *testing.T) {
			s, err := p.LoadWith(core.Options{Exec: true, Quality: q})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			checkImageParity(t, s, "open")
			if err := p.ApplyRepresentative(s); err != nil {
				t.Fatal(err)
			}
			checkImageParity(t, s, "representative")
			cs, err := fuzz.Churn(s.An, fuzz.ChurnSpec{Kind: fuzz.PatternKinds()[0], Table: p.BurstTable, Updates: 24, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range cs.Batches() {
				s.ApplyBatch(batch)
				checkImageParity(t, s, "churn batch")
			}
			compiles := s.Statistics().ImageCompiles
			if err := s.Degrade(p.BurstTable); err != nil {
				t.Fatal(err)
			}
			checkImageParity(t, s, "degrade")
			if _, err := s.PromoteAll(); err != nil {
				t.Fatal(err)
			}
			checkImageParity(t, s, "promote")
			st := s.Statistics()
			if st.ImageCompiles != compiles+2 || st.ImageErrors != 0 {
				t.Fatalf("degrade and promote made %d image compiles and %d errors, want 2 and 0",
					st.ImageCompiles-compiles, st.ImageErrors)
			}
		})
	}
}

// natEngine opens nat44 with the executor and sessions 0..n-1 installed.
func natEngine(t *testing.T, n int, opts core.Options) *core.Specializer {
	t.Helper()
	opts.Exec = true
	p := progs.Nat44()
	s, err := p.LoadWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := p.ApplyRepresentative(s); err != nil {
		t.Fatal(err)
	}
	var sessions []*controlplane.Update
	for i := s.Entries(p.BurstTable); i < n; i++ {
		sessions = append(sessions, progs.Nat44SessionEntry(i))
	}
	install(t, s, sessions)
	if got := s.Entries(p.BurstTable); got != n {
		t.Fatalf("%s holds %d sessions, want %d", p.BurstTable, got, n)
	}
	return s
}

// TestForwardedWriteCostsWhatItChanged counts work, not time: on a nat44
// session table of 500 and of 2000 entries, a forwarded batch of four
// inserts compiles four entry blocks and a batch of four deletes
// compiles none, and patching one entry into the image allocates the
// same number of objects at both sizes.
func TestForwardedWriteCostsWhatItChanged(t *testing.T) {
	table := progs.Nat44().BurstTable
	allocs := map[int]float64{}
	for _, n := range []int{500, 2000} {
		s := natEngine(t, n, core.Options{})
		inserts := make([]*controlplane.Update, 4)
		deletes := make([]*controlplane.Update, 4)
		for i := range inserts {
			inserts[i] = progs.Nat44SessionEntry(n + i)
			gone := *progs.Nat44SessionEntry(i * n / 4) // spread over the table
			gone.Kind = controlplane.DeleteEntry
			deletes[i] = &gone
		}
		for _, step := range []struct {
			name  string
			batch []*controlplane.Update
			want  int
		}{{"insert", inserts, 4}, {"delete", deletes, 0}} {
			for _, d := range s.ApplyBatch(step.batch) {
				if d.Kind != core.Forward {
					t.Fatalf("%d sessions, %s batch: %s decided %s, want forward", n, step.name, d.Update, d.Kind)
				}
			}
			if got := s.Epoch().Image().BlocksCompiled(); got != step.want {
				t.Errorf("%d sessions: a 4-%s batch compiled %d entry blocks, want %d", n, step.name, got, step.want)
			}
			checkImageParity(t, s, step.name+" batch")
		}

		// One more session on top of a held image: the patch the engine
		// just published, replayed under the allocation counter.
		held := s.Epoch().Image()
		if d := s.Apply(progs.Nat44SessionEntry(n + 4)); d.Kind != core.Forward {
			t.Fatalf("%d sessions: single insert decided %s, want forward", n, d.Kind)
		}
		var patched *dpexec.Image
		allocs[n] = testing.AllocsPerRun(20, func() {
			var err error
			if patched, err = held.WithTarget(s.Cfg, table); err != nil {
				t.Fatal(err)
			}
		})
		if got := patched.BlocksCompiled(); got != 1 {
			t.Errorf("%d sessions: patching one entry compiled %d blocks", n, got)
		}
		if patched.Hash() != s.Epoch().Image().Hash() {
			t.Errorf("%d sessions: replayed patch differs from the published image", n)
		}
	}
	if allocs[2000] != allocs[500] || allocs[500] > 64 {
		t.Errorf("a one-entry patch allocates %v objects at 500 sessions and %v at 2000; want the same small constant",
			allocs[500], allocs[2000])
	}
}

// activeSet is the set of table's active entries.
func activeSet(cfg *controlplane.Config, table string) map[*controlplane.TableEntry]bool {
	active, _ := cfg.ActiveEntries(table)
	out := make(map[*controlplane.TableEntry]bool, len(active))
	for _, e := range active {
		out[e] = true
	}
	return out
}

// TestRespecializationCompilesWhatFlipped counts work, not time: on
// scion and switch under every churn pattern, a call that respecializes
// compiles (core.image_blocks) no more entry blocks than the active
// entries of the tables in its Components plus the entries the call made
// active — the image of the program before is carried everywhere else.
func TestRespecializationCompilesWhatFlipped(t *testing.T) {
	for _, name := range []string{"scion", "switch"} {
		p, err := progs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		calls, compiled, full := 0, int64(0), 0
		for _, kind := range fuzz.PatternKinds() {
			reg := obs.NewRegistry()
			s, err := p.LoadWith(core.Options{Exec: true, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := p.ApplyRepresentative(s); err != nil {
				t.Fatal(err)
			}
			cs, err := fuzz.Churn(s.An, fuzz.ChurnSpec{Kind: kind, Table: p.BurstTable, Updates: 48, Seed: uint64(kind)*17 + 3})
			if err != nil {
				t.Fatal(err)
			}
			blocks := reg.Counter("core.image_blocks")
			for bi, batch := range cs.Batches() {
				before := activeSet(s.Cfg, p.BurstTable)
				b0 := blocks.Value()
				var comps []string
				for _, d := range s.ApplyBatch(batch) {
					if d.Update.Target() != p.BurstTable {
						t.Fatalf("churn wrote %s, not %s", d.Update.Target(), p.BurstTable)
					}
					for _, c := range d.Components {
						if !slices.Contains(comps, c) {
							comps = append(comps, c)
						}
					}
				}
				if got := int64(s.Statistics().ImageBlocks); got != blocks.Value() {
					t.Fatalf("Stats.ImageBlocks %d, core.image_blocks %d", got, blocks.Value())
				}
				checkImageParity(t, s, kind.String()+" batch")
				if len(comps) == 0 {
					continue
				}
				bound := 0
				for e := range activeSet(s.Cfg, p.BurstTable) {
					if !before[e] {
						bound++
					}
				}
				for _, c := range comps {
					if s.An.Tables[c] != nil {
						active, _ := s.Cfg.ActiveEntries(c)
						bound += len(active)
					}
				}
				got := blocks.Value() - b0
				if got > int64(bound) {
					t.Errorf("%s %s batch %d: respecializing %v compiled %d entry blocks, want at most %d",
						name, kind, bi, comps, got, bound)
				}
				calls++
				compiled += got
				full += freshImage(t, s).BlocksCompiled()
			}
		}
		if calls == 0 {
			t.Fatalf("%s: no churn call respecialized", name)
		}
		t.Logf("%s: %d respecializing calls compiled %.1f entry blocks each; a full compile, %.1f",
			name, calls, float64(compiled)/float64(calls), float64(full)/float64(calls))
	}
}

// TestImageInstrumentsFollowDecisions: a call whose accepted updates
// were all forwarded patches the image, a call with a respecializing
// update recompiles it, and a call that changed nothing does neither —
// in the metrics registry and in Stats alike, with one core.image_ns
// sample per build.
func TestImageInstrumentsFollowDecisions(t *testing.T) {
	reg := obs.NewRegistry()
	s := natEngine(t, 64, core.Options{Metrics: reg})
	patches, compiles := reg.Counter("core.image_patches"), reg.Counter("core.image_compiles")
	type counts struct{ patches, compiles int64 }
	errs, blocks := reg.Counter("core.image_errors"), reg.Counter("core.image_blocks")
	read := func() counts {
		st := s.Statistics()
		c := counts{patches.Value(), compiles.Value()}
		if int64(st.ImagePatches) != c.patches || int64(st.ImageCompiles) != c.compiles {
			t.Fatalf("Stats say %d patches / %d compiles, the registry %d / %d",
				st.ImagePatches, st.ImageCompiles, c.patches, c.compiles)
		}
		if int64(st.ImageErrors) != errs.Value() || int64(st.ImageBlocks) != blocks.Value() {
			t.Fatalf("Stats say %d errors / %d blocks, the registry %d / %d",
				st.ImageErrors, st.ImageBlocks, errs.Value(), blocks.Value())
		}
		if n := reg.Histogram("core.image_ns").Count(); n != c.patches+c.compiles+errs.Value() {
			t.Fatalf("core.image_ns holds %d samples for %d builds", n, c.patches+c.compiles+errs.Value())
		}
		return c
	}
	expect := func(ds []*core.Decision, before counts) {
		t.Helper()
		var want counts
		accepted := false
		for _, d := range ds {
			accepted = accepted || d.Kind != core.Rejected
			if d.Kind == core.Recompile {
				want.compiles = 1
			}
		}
		if accepted && want.compiles == 0 {
			want.patches = 1
		}
		after := read()
		if got := (counts{after.patches - before.patches, after.compiles - before.compiles}); got != want {
			t.Fatalf("decisions %v: image built %+v, want %+v", kinds(ds), got, want)
		}
	}

	// Session churn on a populated table flips no verdict and is
	// forwarded; what each call must do to the image is derived from the
	// decisions it returns, not assumed here.
	session := func(i int, kind controlplane.UpdateKind) *controlplane.Update {
		u := *progs.Nat44SessionEntry(i)
		u.Kind = kind
		return &u
	}
	seen := map[core.DecisionKind]bool{}
	calls := [][]*controlplane.Update{
		{session(100, controlplane.InsertEntry)},                                         // forward
		{session(101, controlplane.InsertEntry), session(102, controlplane.InsertEntry)}, // forward batch
		{session(100, controlplane.InsertEntry)},                                         // duplicate: rejected
		{session(100, controlplane.DeleteEntry), session(100, controlplane.DeleteEntry)}, // forward + rejected
		{session(101, controlplane.DeleteEntry), session(102, controlplane.DeleteEntry)},
	}
	// Draining the representative configuration's small tables down to
	// empty and refilling them flips verdicts: those calls respecialize.
	rep := progs.Nat44().Representative()
	for i := len(rep) - 1; i >= 0; i-- {
		if u := rep[i]; u.Kind == controlplane.InsertEntry && u.Table != progs.Nat44().BurstTable {
			gone := *u
			gone.Kind = controlplane.DeleteEntry
			calls = append(calls, []*controlplane.Update{&gone})
		}
	}
	calls = append(calls, rep)
	for _, call := range calls {
		before := read()
		var ds []*core.Decision
		if len(call) == 1 {
			ds = []*core.Decision{s.Apply(call[0])}
		} else {
			ds = s.ApplyBatch(call)
		}
		for _, d := range ds {
			seen[d.Kind] = true
		}
		expect(ds, before)
		checkImageParity(t, s, "instrumented call")
	}
	for _, k := range []core.DecisionKind{core.Forward, core.Recompile, core.Rejected} {
		if !seen[k] {
			t.Errorf("the call list never produced a %s decision", k)
		}
	}
}

// TestFailedImageCompileServesStale: when a respecializing call's image
// compile fails, the previous image keeps serving and the failure counts
// in core.image_errors, not as a compile; the next publication — a
// forwarded call, which would otherwise patch — compiles the image
// afresh instead of patching one of the program before.
func TestFailedImageCompileServesStale(t *testing.T) {
	reg := obs.NewRegistry()
	s := natEngine(t, 64, core.Options{Metrics: reg})
	p := progs.Nat44()
	core.FailNextImageCompile(s)
	// Drain the representative configuration's small tables until a call
	// respecializes; forwarded calls patch and leave the fault armed.
	rep := p.Representative()
	var failed core.Stats
	for i := len(rep) - 1; i >= 0 && failed.ImageErrors == 0; i-- {
		if u := rep[i]; u.Kind != controlplane.InsertEntry || u.Table == p.BurstTable {
			continue
		}
		gone := *rep[i]
		gone.Kind = controlplane.DeleteEntry
		serving := s.Epoch().Image()
		d := s.Apply(&gone)
		if d.Kind != core.Recompile {
			continue
		}
		failed = s.Statistics()
		if s.Epoch().Image() != serving {
			t.Fatal("a failed image compile did not keep the previous image serving")
		}
	}
	if failed.ImageErrors != 1 || reg.Counter("core.image_errors").Value() != 1 {
		t.Fatalf("after the failed compile: Stats.ImageErrors %d, core.image_errors %d; want 1",
			failed.ImageErrors, reg.Counter("core.image_errors").Value())
	}
	if d := s.Apply(progs.Nat44SessionEntry(64)); d.Kind != core.Forward {
		t.Fatalf("a session insert decided %s, want forward", d.Kind)
	}
	st := s.Statistics()
	if st.ImageCompiles != failed.ImageCompiles+1 || st.ImagePatches != failed.ImagePatches {
		t.Fatalf("the publication after a failed compile made %d compiles and %d patches, want 1 and 0",
			st.ImageCompiles-failed.ImageCompiles, st.ImagePatches-failed.ImagePatches)
	}
	checkImageParity(t, s, "the publication after a failed compile")
}

func kinds(ds []*core.Decision) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Kind.String()
	}
	return out
}

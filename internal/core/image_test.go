// Image maintenance suite: the published executable image must be what
// a fresh compile would produce after every mutation, whichever way the
// engine got there (patch or recompile); a forwarded write must cost
// work proportional to the entries it changed, not to the table; and
// the stage's instruments must agree with the decisions that drove it.
package core_test

import (
	"testing"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/dpexec"
	"repro/internal/fuzz"
	"repro/internal/obs"
	"repro/internal/p4/typecheck"
	"repro/internal/progs"
)

// freshImage compiles the engine's current specialized program under
// its live configuration from nothing.
func freshImage(t *testing.T, s *core.Specializer) *dpexec.Image {
	t.Helper()
	spec := s.SpecializedProgram()
	info, err := typecheck.Check(spec)
	if err != nil {
		t.Fatalf("specialized program does not typecheck: %v", err)
	}
	img, err := dpexec.Compile(spec, info, s.Cfg)
	if err != nil {
		t.Fatalf("fresh compile: %v", err)
	}
	return img
}

func checkImageParity(t *testing.T, s *core.Specializer, when string) {
	t.Helper()
	if got, want := s.ExecImage().Hash(), freshImage(t, s).Hash(); got != want {
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
			if got := s.ExecImage().BlocksCompiled(); got != step.want {
				t.Errorf("%d sessions: a 4-%s batch compiled %d entry blocks, want %d", n, step.name, got, step.want)
			}
			checkImageParity(t, s, step.name+" batch")
		}

		// One more session on top of a held image: the patch the engine
		// just published, replayed under the allocation counter.
		held := s.ExecImage()
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
		if patched.Hash() != s.ExecImage().Hash() {
			t.Errorf("%d sessions: replayed patch differs from the published image", n)
		}
	}
	if allocs[2000] != allocs[500] || allocs[500] > 64 {
		t.Errorf("a one-entry patch allocates %v objects at 500 sessions and %v at 2000; want the same small constant",
			allocs[500], allocs[2000])
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
	read := func() counts {
		st := s.Statistics()
		c := counts{patches.Value(), compiles.Value()}
		if int64(st.ImagePatches) != c.patches || int64(st.ImageCompiles) != c.compiles {
			t.Fatalf("Stats say %d patches / %d compiles, the registry %d / %d",
				st.ImagePatches, st.ImageCompiles, c.patches, c.compiles)
		}
		if n := reg.Histogram("core.image_ns").Count(); n != c.patches+c.compiles {
			t.Fatalf("core.image_ns holds %d samples for %d builds", n, c.patches+c.compiles)
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

func kinds(ds []*core.Decision) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Kind.String()
	}
	return out
}

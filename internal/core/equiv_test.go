// Equivalence suite for the batched update engine: the coalescing batch
// path must be observationally identical to the sequential engine —
// same verdicts, byte-identical specialized source, decisions related
// by the batch theorems — for every catalog program, across
// fuzzer-generated update streams.
//
// The suite lives in an external test package because it drives the
// engine through internal/progs (which imports core).
package core_test

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/p4/ast"
	"repro/internal/progs"
	"repro/internal/sym"
	"repro/internal/trace"
)

// equivSeeds is the number of fuzzer seeds per program.
const (
	equivSeeds = 3
	streamLen  = 48
	chunkSize  = 7
)

func loadEngine(t *testing.T, p *progs.Program) *core.Specializer {
	t.Helper()
	s, err := p.Load()
	if err != nil {
		t.Fatalf("%s: load: %v", p.Name, err)
	}
	return s
}

// gateProgram is core's two-table test program (core.GateSrc) as a
// catalog-shaped entry, so the matrices take it as one more input.
func gateProgram() *progs.Program {
	return &progs.Program{Name: "gate", Source: core.GateSrc}
}

// equivPrograms is the catalog plus the gate program.
func equivPrograms() []*progs.Program {
	return append(progs.Catalog(), gateProgram())
}

// checkIdeal asserts installed == ideal for every table of each engine.
func checkIdeal(t *testing.T, when string, engines ...*core.Specializer) {
	t.Helper()
	for _, s := range engines {
		if err := core.CheckInstalledIsIdeal(s); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
}

func makeStream(t *testing.T, s *core.Specializer, seed uint64) []*controlplane.Update {
	t.Helper()
	stream, err := fuzz.New(s.An, seed).Stream(streamLen)
	if err != nil {
		t.Fatalf("stream(seed %d): %v", seed, err)
	}
	return stream
}

func source(s *core.Specializer) string { return ast.Print(s.SpecializedProgram()) }

// sameDecision asserts full observable equality of two decisions for
// the same update (everything except wall-clock timing).
func sameDecision(t *testing.T, i int, a, b *core.Decision) {
	t.Helper()
	if a.Kind != b.Kind {
		t.Fatalf("update %d (%s): kind %s vs %s", i, a.Update, a.Kind, b.Kind)
	}
	if a.AffectedPoints != b.AffectedPoints {
		t.Fatalf("update %d (%s): affected %d vs %d", i, a.Update, a.AffectedPoints, b.AffectedPoints)
	}
	if !slices.Equal(a.ChangedPoints, b.ChangedPoints) {
		t.Fatalf("update %d (%s): changed points %v vs %v", i, a.Update, a.ChangedPoints, b.ChangedPoints)
	}
	if !slices.Equal(a.Components, b.Components) {
		t.Fatalf("update %d (%s): components %v vs %v", i, a.Update, a.Components, b.Components)
	}
	if a.ImplementationChange != b.ImplementationChange {
		t.Fatalf("update %d (%s): impl change %q vs %q", i, a.Update, a.ImplementationChange, b.ImplementationChange)
	}
}

// sameEndState asserts the two engines ended in indistinguishable
// states: identical per-point verdicts, identical installed entry
// counts, and byte-identical specialized source.
func sameEndState(t *testing.T, a, b *core.Specializer) {
	t.Helper()
	for id := 0; id < a.Statistics().Points; id++ {
		if va, vb := a.Verdict(id), b.Verdict(id); va != vb {
			t.Fatalf("point %d: verdict %s vs %s", id, va, vb)
		}
	}
	for _, table := range a.An.TableOrder {
		if na, nb := a.Cfg.NumEntries(table), b.Cfg.NumEntries(table); na != nb {
			t.Fatalf("table %s: %d vs %d entries", table, na, nb)
		}
	}
	if sa, sb := source(a), source(b); sa != sb {
		t.Fatalf("specialized source diverged:\n--- engine A ---\n%s\n--- engine B ---\n%s", sa, sb)
	}
}

// TestBatchMatchesSequential chunks the same stream through ApplyBatch
// on one engine and through per-update Apply on another.
// The end states must be identical; decisions are attributed at batch
// granularity, so the per-update checks are the batch theorems:
//
//  1. rejections match exactly, update for update;
//  2. a chunk whose sequential decisions all forward must batch to
//     all-Forward (no false recompilations);
//  3. a chunk with any batched Recompile must contain at least one
//     sequential Recompile (coalescing may hide transient changes, but
//     never invents one).
func TestBatchMatchesSequential(t *testing.T) {
	for _, p := range equivPrograms() {
		t.Run(p.Name, func(t *testing.T) {
			for seed := uint64(1); seed <= equivSeeds; seed++ {
				seq := loadEngine(t, p)
				bat := loadEngine(t, p)
				stream := makeStream(t, seq, seed)
				for start := 0; start < len(stream); start += chunkSize {
					chunk := stream[start:min(start+chunkSize, len(stream))]
					seqDs := make([]*core.Decision, len(chunk))
					for i, u := range chunk {
						seqDs[i] = seq.Apply(u)
						checkIdeal(t, u.String(), seq)
					}
					batDs := bat.ApplyBatch(chunk)
					checkIdeal(t, "batch", bat)
					if len(batDs) != len(chunk) {
						t.Fatalf("chunk at %d: %d decisions for %d updates", start, len(batDs), len(chunk))
					}
					seqRecompiled, batRecompiled := false, false
					for i := range chunk {
						if (seqDs[i].Kind == core.Rejected) != (batDs[i].Kind == core.Rejected) {
							t.Fatalf("update %d: rejection mismatch: %s vs %s", start+i, seqDs[i], batDs[i])
						}
						seqRecompiled = seqRecompiled || seqDs[i].Kind == core.Recompile
						batRecompiled = batRecompiled || batDs[i].Kind == core.Recompile
					}
					if batRecompiled && !seqRecompiled {
						t.Fatalf("chunk at %d: batch recompiled but sequential engine only forwarded", start)
					}
					if !seqRecompiled && batRecompiled {
						t.Fatalf("chunk at %d: all-forward chunk must batch to all-Forward", start)
					}
				}
				sameEndState(t, seq, bat)
			}
		})
	}
}

// TestTraceReplayBatchedPerBurst replays a generated control-plane
// workload (internal/trace: routing bursts amid NAT churn and policy
// changes) through both engines, batching exactly the way a real
// controller would: each routing burst becomes one ApplyBatch call,
// isolated events stay singletons. End states must match.
func TestTraceReplayBatchedPerBurst(t *testing.T) {
	events := trace.Generate(8*time.Minute, trace.Profile{
		BurstInterval: 90 * time.Second,
		BurstSize:     12,
		NATInterval:   5 * time.Second,
	})
	for _, name := range []string{"fig3", "scion"} {
		t.Run(name, func(t *testing.T) {
			p, err := progs.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			seq := loadEngine(t, p)
			bat := loadEngine(t, p)
			stream, err := fuzz.New(seq.An, 99).Stream(len(events))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(events); {
				j := i + 1
				if events[i].Class == trace.RoutingBurst {
					for j < len(events) && events[j].Class == trace.RoutingBurst && events[j].Burst == events[i].Burst {
						j++
					}
				}
				for _, u := range stream[i:j] {
					seq.Apply(u)
				}
				bat.ApplyBatch(stream[i:j])
				i = j
			}
			sameEndState(t, seq, bat)
			st := bat.Statistics()
			if st.BatchedUpdates != len(events) {
				t.Fatalf("batched updates = %d, want %d", st.BatchedUpdates, len(events))
			}
			if st.Forwarded+st.Recompilations+st.Rejected != st.Updates {
				t.Fatalf("outcome partition broken: %+v", st)
			}
		})
	}
}

// TestSingletonBatchExact: a batch of one update must be exactly the
// sequential decision — same kind, same changed points, same
// components — for a whole stream, on every catalog program.
func TestSingletonBatchExact(t *testing.T) {
	for _, p := range equivPrograms() {
		t.Run(p.Name, func(t *testing.T) {
			seq := loadEngine(t, p)
			bat := loadEngine(t, p)
			for i, u := range makeStream(t, seq, 17) {
				sd := seq.Apply(u)
				bds := bat.ApplyBatch([]*controlplane.Update{u})
				if len(bds) != 1 {
					t.Fatalf("update %d: singleton batch returned %d decisions", i, len(bds))
				}
				sameDecision(t, i, sd, bds[0])
			}
			sameEndState(t, seq, bat)
		})
	}
}

// writePath is one way of getting an update into an engine; it returns
// the engine to go on with.
type writePath struct {
	name  string
	write func(t *testing.T, s *core.Specializer, u *controlplane.Update) *core.Specializer
}

func accepted(t *testing.T, d *core.Decision) {
	t.Helper()
	if d.Kind == core.Rejected {
		t.Fatalf("%s rejected: %v", d.Update, d.Err)
	}
}

// install applies updates as one batch, none of which may be rejected:
// how a test sets a table up when the set-up is not what it looks at.
func install(t *testing.T, s *core.Specializer, updates []*controlplane.Update) {
	t.Helper()
	for _, d := range s.ApplyBatch(updates) {
		accepted(t, d)
	}
}

// writePaths are the ways a write reaches the engine: Apply, ApplyBatch,
// Apply under a degraded target that is promoted afterwards, and Apply
// on an engine that goes through Snapshot/Restore.
func writePaths() []writePath {
	return []writePath{
		{"apply", func(t *testing.T, s *core.Specializer, u *controlplane.Update) *core.Specializer {
			accepted(t, s.Apply(u))
			return s
		}},
		{"batch", func(t *testing.T, s *core.Specializer, u *controlplane.Update) *core.Specializer {
			accepted(t, s.ApplyBatch([]*controlplane.Update{u})[0])
			return s
		}},
		{"degrade-promote", func(t *testing.T, s *core.Specializer, u *controlplane.Update) *core.Specializer {
			if err := s.Degrade(u.Target()); err != nil {
				t.Fatal(err)
			}
			checkIdeal(t, "degraded", s)
			accepted(t, s.Apply(u))
			checkIdeal(t, "written degraded", s)
			if unsound, err := s.PromoteAll(); err != nil || unsound != 0 {
				t.Fatalf("PromoteAll: unsound=%d err=%v", unsound, err)
			}
			return s
		}},
		{"snapshot-restore", func(t *testing.T, s *core.Specializer, u *controlplane.Update) *core.Specializer {
			accepted(t, s.Apply(u))
			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := core.Restore(snap, preciseOpts())
			if err != nil {
				t.Fatal(err)
			}
			return restored
		}},
	}
}

// TestWriteFlipsAnotherTable: a write to one table that flips a point of
// another must bring that other table's installed implementation along,
// whichever way the write came in. On the gate program, inserting gate's
// only entry makes second appear (its default action drops — a
// specialized program without it is not the original's equal) and
// deleting the entry removes it again.
func TestWriteFlipsAnotherTable(t *testing.T) {
	entry := &controlplane.TableEntry{
		Matches: []controlplane.FieldMatch{{Kind: controlplane.MatchExact, Value: sym.NewBV(8, 7)}},
		Action:  "raise",
	}
	for _, path := range writePaths() {
		t.Run(path.name, func(t *testing.T) {
			s, err := gateProgram().LoadWith(preciseOpts())
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				for _, step := range []struct {
					kind   controlplane.UpdateKind
					second bool
				}{{controlplane.InsertEntry, true}, {controlplane.DeleteEntry, false}} {
					s = path.write(t, s, &controlplane.Update{Kind: step.kind, Table: "Ingress.gate", Entry: entry})
					checkIdeal(t, step.kind.String(), s)
					if got := strings.Contains(source(s), "mark_to_drop"); got != step.second {
						t.Fatalf("round %d, after %s: second's drop present = %v, want %v:\n%s",
							round, step.kind, got, step.second, source(s))
					}
				}
			}
		})
	}
}

// TestL4LBDefaultFlipsBackendPool is the one catalog step found (over
// twelve programs, three seeds and 300-update streams) whose write flips
// a point of a table it does not target: after l4lb's representative
// configuration, seed 1's first set-default on Ingress.conn_affinity
// respecializes Ingress.backend_pool.
func TestL4LBDefaultFlipsBackendPool(t *testing.T) {
	const written, flipped = "Ingress.conn_affinity", "Ingress.backend_pool"
	p, err := progs.ByName("l4lb")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range writePaths() {
		t.Run(path.name, func(t *testing.T) {
			ref, err := p.LoadWith(preciseOpts())
			if err != nil {
				t.Fatal(err)
			}
			s, err := p.LoadWith(preciseOpts())
			if err != nil {
				t.Fatal(err)
			}
			if err := p.ApplyRepresentative(ref); err != nil {
				t.Fatal(err)
			}
			if err := p.ApplyRepresentative(s); err != nil {
				t.Fatal(err)
			}
			stream, err := fuzz.New(ref.An, 1).Stream(8)
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range stream {
				d := ref.Apply(u)
				if u.Kind != controlplane.SetDefault || u.Table != written {
					accepted(t, s.Apply(u))
					continue
				}
				if d.Kind != core.Recompile || !slices.Contains(d.Components, flipped) {
					t.Fatalf("update %d (%s): %s — no longer flips a point of %s", i, u, d, flipped)
				}
				s = path.write(t, s, u)
				checkIdeal(t, u.String(), ref, s)
				sameEndState(t, ref, s)
				return
			}
			t.Fatalf("seed 1's stream has no set-default on %s in its first %d updates", written, len(stream))
		})
	}
}

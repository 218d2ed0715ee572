// The query path's work, counted and cross-checked: the pass-wide
// substitution memo against a per-point substitution, the width rule's
// promise that a wide residue costs no evaluation and no diagram, the
// dispatch counters' accounting identity, the residue-pointer memo that
// settles an update which changes no assignment (and what a restored
// engine pays for not having it), the diagram path's own accounting
// (every query that reaches it compiles; the store stays bounded),
// Explain following the residue, and the premise the atom registration
// shortcut rests on.
package core_test

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/sym"
)

// TestPassMemoMatchesPerPointSubst: catalog × churn pattern. After every
// call the engine's verdicts and kept residue pointers must be what a
// substitution per point yields; halfway through each stream the arena
// is swept by force, renumbering every node id the substitution memo is
// indexed by, so a generation that outlived its pass would show in the
// very next check.
func TestPassMemoMatchesPerPointSubst(t *testing.T) {
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			swept := 0
			for _, kind := range fuzz.PatternKinds() {
				s, err := p.Load()
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				check := func(when string) {
					t.Helper()
					if err := core.CheckAgainstPerPointSubst(s); err != nil {
						t.Fatalf("%s, %s: %v", kind, when, err)
					}
				}
				check("open")
				if err := p.ApplyRepresentative(s); err != nil {
					t.Fatal(err)
				}
				check("representative")
				cs, err := fuzz.Churn(s.An, fuzz.ChurnSpec{
					Kind: kind, Table: p.BurstTable, Updates: 48, Seed: uint64(kind)*29 + 5,
				})
				if err != nil {
					t.Fatal(err)
				}
				batches := cs.Batches()
				for bi, batch := range batches {
					if bi == len(batches)/2 {
						swept += core.ForceArenaSweep(s)
						check("forced sweep")
					}
					s.ApplyBatch(batch)
					check(fmt.Sprintf("batch %d", bi))
				}
				drain := cs.Drain()
				for _, u := range drain[:len(drain)/2] {
					s.Apply(u)
					check("drain apply")
				}
				s.ApplyBatch(drain[len(drain)/2:])
				check("drain batch")
			}
			if swept == 0 {
				t.Fatal("no forced sweep reclaimed a node: ids were never renumbered between two passes")
			}
		})
	}
}

// aclEngine opens middleblock in precise mode with ACL entries 0..n-1
// preloaded, instruments on.
func aclEngine(t *testing.T, n int) (*core.Specializer, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	p := progs.Middleblock()
	s, err := p.LoadWith(core.Options{OverapproxThreshold: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := p.ApplyRepresentative(s); err != nil {
		t.Fatal(err)
	}
	// The representative configuration installs the first few itself.
	var acl []*controlplane.Update
	for i := s.Entries(p.ACLTable); i < n; i++ {
		acl = append(acl, progs.MiddleblockACLEntry(i))
	}
	install(t, s, acl)
	if got := s.Entries(p.ACLTable); got != n {
		t.Fatalf("%s holds %d entries, want %d", p.ACLTable, got, n)
	}
	return s, reg
}

// TestWideQueryDoesNoEvaluation counts work, not time: with 150 and with
// 600 ACL entries on middleblock's five-field ternary chain, one precise
// insert evaluates no residue and compiles no diagram, every query it
// poses is answered by a literal or by the width rule, and the width
// walk visits the same handful of nodes per query at both sizes.
func TestWideQueryDoesNoEvaluation(t *testing.T) {
	perQuery := map[int]float64{}
	for _, n := range []int{150, 600} {
		s, reg := aclEngine(t, n)
		before, st0 := reg.Snapshot(), s.Statistics()
		d := s.Apply(progs.MiddleblockACLEntry(n))
		if d.Kind == core.Rejected {
			t.Fatalf("%d entries: insert rejected: %v", n, d.Err)
		}
		after, st1 := reg.Snapshot(), s.Statistics()
		delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
		if evals := delta("sym.solver.evals"); evals != 0 {
			t.Errorf("%d entries: one insert evaluated a residue %d times", n, evals)
		}
		if compiles := st1.DDCompiles - st0.DDCompiles; compiles != 0 {
			t.Errorf("%d entries: one insert compiled %d diagrams", n, compiles)
		}
		if q := delta("sym.solver.queries") + delta("sym.solver.const_queries"); q != 0 {
			t.Errorf("%d entries: one insert put %d queries to the solver", n, q)
		}
		wide := delta("core.query.width")
		if wide == 0 || delta("core.query.dd") != 0 || delta("core.query.exhaustive") != 0 {
			t.Fatalf("%d entries: dispatch literal %d, width %d, dd %d, exhaustive %d; want only literal and width",
				n, delta("core.query.literal"), wide, delta("core.query.dd"), delta("core.query.exhaustive"))
		}
		perQuery[n] = float64(delta("sym.solver.width_nodes")) / float64(wide)
		t.Logf("%d entries: %d points, %d decided by width, %.1f nodes walked each",
			n, d.AffectedPoints, wide, perQuery[n])
		if st1.DDNodes > 1000 {
			t.Errorf("%d entries: the diagram store holds %d nodes for residues no diagram can decide", n, st1.DDNodes)
		}
	}
	if perQuery[600] > perQuery[150] || perQuery[150] > 64 {
		t.Fatalf("width walk visited %.1f nodes per query at 150 entries and %.1f at 600; want a constant handful",
			perQuery[150], perQuery[600])
	}
}

// TestQueryDispatchCountersSum: across the catalog under fuzzed updates,
// every re-evaluated point is a substitution skip or exactly one of the
// four dispatch outcomes — in the registry and in Stats alike — and the
// diagram counters cover only the queries that reached a diagram.
func TestQueryDispatchCountersSum(t *testing.T) {
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			reg := obs.NewRegistry()
			s, err := p.LoadWith(core.Options{Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := p.ApplyRepresentative(s); err != nil {
				t.Fatal(err)
			}
			for _, u := range makeStream(t, s, 0x51) {
				s.Apply(u)
			}
			c, st := reg.Snapshot().Counters, s.Statistics()
			dispatched := c["core.query.literal"] + c["core.query.width"] + c["core.query.dd"] + c["core.query.exhaustive"]
			if want := c["core.points_evaluated"] - c["core.subst_skips"]; dispatched != want {
				t.Fatalf("dispatch counters sum to %d; %d points evaluated − %d substitution skips = %d",
					dispatched, c["core.points_evaluated"], c["core.subst_skips"], want)
			}
			if st.QueryLiteral != c["core.query.literal"] || st.QueryWidth != c["core.query.width"] ||
				st.QueryDD != c["core.query.dd"] || st.QueryExhaustive != c["core.query.exhaustive"] {
				t.Fatalf("Stats %d/%d/%d/%d disagree with the registry %d/%d/%d/%d",
					st.QueryLiteral, st.QueryWidth, st.QueryDD, st.QueryExhaustive,
					c["core.query.literal"], c["core.query.width"], c["core.query.dd"], c["core.query.exhaustive"])
			}
			if st.DDFallbacks > st.QueryExhaustive {
				t.Fatalf("%d diagram fallbacks but only %d queries reached the solver", st.DDFallbacks, st.QueryExhaustive)
			}
		})
	}
}

// dispatched sums the four ways queryAny answers.
func dispatched(st core.Stats) int64 {
	return st.QueryLiteral + st.QueryWidth + st.QueryDD + st.QueryExhaustive
}

// TestStableAssignmentSkipsEveryQuery counts the work of the update the
// paper's Fig. 1 churn is made of: a session insert or delete on a table
// past the overapproximation threshold, whose compiled assignment stays
// the "*any*" form. Every point the table taints substitutes to the
// residue pointer it already holds, so nothing is dispatched — at 500
// and at 2000 sessions alike. A restored engine is no different: its
// open pass left every residue pointer where an uninterrupted engine
// has it, so the first write after Restore skips like any other.
func TestStableAssignmentSkipsEveryQuery(t *testing.T) {
	table := progs.Nat44().BurstTable
	for _, sessions := range []int{500, 2000} {
		t.Run(strconv.Itoa(sessions), func(t *testing.T) {
			reg := obs.NewRegistry()
			s := natEngine(t, sessions, core.Options{Metrics: reg})
			if !s.Cfg.Overapproximated(table) {
				t.Fatalf("%s is compiled precisely at %d entries", table, sessions)
			}
			forwarded := func(s *core.Specializer, u *controlplane.Update) {
				t.Helper()
				if d := s.Apply(u); d.Kind != core.Forward {
					t.Fatalf("%s: %s (%v), want forward", u, d.Kind, d.Err)
				}
			}

			c0, st0 := reg.Snapshot().Counters, s.Statistics()
			for i := 0; i < 10; i++ {
				ins := progs.Nat44SessionEntry(sessions + i)
				forwarded(s, ins)
				forwarded(s, &controlplane.Update{Kind: controlplane.DeleteEntry, Table: table, Entry: ins.Entry})
			}
			c1, st1 := reg.Snapshot().Counters, s.Statistics()
			evaluated := c1["core.points_evaluated"] - c0["core.points_evaluated"]
			skipped := c1["core.subst_skips"] - c0["core.subst_skips"]
			if want := int64(20 * len(s.An.PointsOf(table))); evaluated != want || skipped != want {
				t.Fatalf("20 writes evaluated %d points and skipped %d, want %d of each", evaluated, skipped, want)
			}
			if d0, d1 := dispatched(st0), dispatched(st1); d1 != d0 {
				t.Fatalf("20 writes that change no assignment dispatched %d queries", d1-d0)
			}

			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			rreg := obs.NewRegistry()
			r, err := core.Restore(snap, core.Options{Metrics: rreg})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			tainted := int64(len(r.An.PointsOf(table)))
			rst0 := r.Statistics()
			forwarded(r, progs.Nat44SessionEntry(sessions+100))
			rc, rst := rreg.Snapshot().Counters, r.Statistics()
			if got := dispatched(rst) - dispatched(rst0); got != 0 || rc["core.subst_skips"] != tainted {
				t.Fatalf("first write after restore dispatched %d queries and skipped %d, want 0 and %d",
					got, rc["core.subst_skips"], tainted)
			}
		})
	}
}

// explainSource is what Explain says decided the point.
func explainSource(t *testing.T, s *core.Specializer, id int) string {
	t.Helper()
	ex, err := s.Explain(id)
	if err != nil {
		t.Fatal(err)
	}
	return ex.Source
}

// ddAccounted asserts the diagram path's accounting identity on an
// engine with no degraded table: every query that reached the diagram
// stage compiled its residue (a memo hit counts), and was then answered
// on the diagram or handed to the enumeration.
func ddAccounted(t *testing.T, s *core.Specializer, when string) {
	t.Helper()
	if st := s.Statistics(); st.DDCompiles != st.QueryDD+st.DDFallbacks {
		t.Fatalf("%s: %d diagram compiles for %d answers + %d fallbacks: %d queries reached the diagram stage and compiled nothing",
			when, st.DDCompiles, st.QueryDD, st.DDFallbacks, st.QueryDD+st.DDFallbacks-st.DDCompiles)
	}
}

// TestEveryDiagramQueryCompiles: no query sits the diagram stage out
// because an earlier residue of its point failed to compile. Across the
// churn patterns on switch, middleblock and nat44 — at the default
// threshold, where crossing it turns a table's action residue into a
// bare variable no diagram hosts, and in precise mode — the accounting
// identity holds after every call. And the consequence, on one point:
// nat44's zone table pushed past a small threshold leaves the fragment,
// and the very call that brings it back under puts its points on the
// diagram path again.
func TestEveryDiagramQueryCompiles(t *testing.T) {
	for _, name := range []string{"switch", "middleblock", "nat44"} {
		p, err := progs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, threshold := range []int{0, -1} {
			t.Run(fmt.Sprintf("%s-threshold%d", name, threshold), func(t *testing.T) {
				t.Parallel()
				for _, kind := range fuzz.PatternKinds() {
					s, err := p.LoadWith(core.Options{OverapproxThreshold: threshold})
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					if err := p.ApplyRepresentative(s); err != nil {
						t.Fatal(err)
					}
					ddAccounted(t, s, "representative")
					for round := uint64(0); round < 2; round++ {
						cs, err := fuzz.Churn(s.An, fuzz.ChurnSpec{
							Kind: kind, Table: p.BurstTable, Updates: 256, Seed: uint64(kind)*31 + 7 + round,
						})
						if err != nil {
							t.Fatal(err)
						}
						for bi, batch := range cs.Batches() {
							s.ApplyBatch(batch)
							ddAccounted(t, s, fmt.Sprintf("%s round %d batch %d", kind, round, bi))
						}
						for _, u := range cs.Drain() {
							s.Apply(u)
						}
						ddAccounted(t, s, fmt.Sprintf("%s round %d drain", kind, round))
					}
				}
			})
		}
	}

	t.Run("back-in-fragment", func(t *testing.T) {
		p := progs.Nat44()
		const table, threshold = "Ingress.nat_zone", 4
		s, err := p.LoadWith(core.Options{OverapproxThreshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := p.ApplyRepresentative(s); err != nil {
			t.Fatal(err)
		}
		sources := func() map[int]string {
			t.Helper()
			out := map[int]string{}
			for _, pt := range s.An.PointsOf(table) {
				if pt.Table == table {
					out[pt.ID] = explainSource(t, s, pt.ID)
				}
			}
			return out
		}
		before := sources()
		var zones []*controlplane.Update
		for port := uint64(10); s.Entries(table)+len(zones) <= threshold; port++ {
			zones = append(zones, &controlplane.Update{Kind: controlplane.InsertEntry, Table: table, Entry: &controlplane.TableEntry{
				Matches: []controlplane.FieldMatch{{Kind: controlplane.MatchExact, Value: sym.NewBV(9, port)}},
				Action:  "set_zone", Params: []sym.BV{sym.NewBV(16, port)},
			}})
		}
		st0 := s.Statistics()
		for _, u := range zones {
			if d := s.Apply(u); d.Kind == core.Rejected {
				t.Fatal(d.Err)
			}
		}
		st1 := s.Statistics()
		if !s.Cfg.Overapproximated(table) || st1.DDFallbacks == st0.DDFallbacks {
			t.Fatalf("%d entries in %s: overapproximated %v, %d fallbacks; want a residue that left the fragment",
				s.Entries(table), table, s.Cfg.Overapproximated(table), st1.DDFallbacks-st0.DDFallbacks)
		}
		left := 0
		for id, src := range sources() {
			if before[id] == "dd" && src == "solver" {
				left++
			}
		}
		if left == 0 {
			t.Fatalf("no point of %s went from a diagram to the solver: %v then %v", table, before, sources())
		}
		// One delete brings the table back under the threshold.
		last := zones[len(zones)-1]
		if d := s.Apply(&controlplane.Update{Kind: controlplane.DeleteEntry, Table: table, Entry: last.Entry}); d.Kind == core.Rejected {
			t.Fatal(d.Err)
		}
		st2 := s.Statistics()
		if got := st2.QueryDD - st1.QueryDD; got < int64(left) || st2.DDFallbacks != st1.DDFallbacks {
			t.Fatalf("back under the threshold: %d queries answered on a diagram and %d sent to the enumeration, want the %d points that left answered on a diagram",
				got, st2.DDFallbacks-st1.DDFallbacks, left)
		}
		ddAccounted(t, s, "back under the threshold")
		for id, src := range sources() {
			if src != before[id] {
				t.Fatalf("point %d: Explain says %q back under the threshold, %q before the table left it", id, src, before[id])
			}
		}
	})
}

// TestDiagramStoreStaysBounded: the diagram store is bounded by a
// constant, not by update history. A freshly opened scion under a long
// fuzzed stream in controller-sized batches never ends a call with more
// than ddSweepFloor nodes plus what one call can add; replacing the
// store costs no compile the stream would not have made anyway (the
// counts are those of an engine that never replaces it: no compile of
// these streams bails); and the end state is that of an engine without
// diagrams.
func TestDiagramStoreStaysBounded(t *testing.T) {
	p := progs.Scion()
	for _, tc := range []struct {
		seed     uint64
		compiles int64
	}{{1, 930}, {42, 1196}} {
		t.Run(fmt.Sprintf("seed-%d", tc.seed), func(t *testing.T) {
			t.Parallel()
			s, twin := loadDD(t, p, false), loadDD(t, p, true)
			defer s.Close()
			defer twin.Close()
			stream, err := fuzz.New(s.An, tc.seed).Stream(3000)
			if err != nil {
				t.Fatal(err)
			}
			prev, growth, peak := s.Statistics().DDNodes, 0, 0
			for start := 0; start < len(stream); start += 16 {
				batch := stream[start:min(start+16, len(stream))]
				s.ApplyBatch(batch)
				twin.ApplyBatch(batch)
				n := s.Statistics().DDNodes
				growth, peak = max(growth, n-prev), max(peak, n)
				if n > core.DDSweepFloor+growth {
					t.Fatalf("after update %d the store holds %d nodes; the bound is %d + %d (the largest growth of one call)",
						start+len(batch), n, core.DDSweepFloor, growth)
				}
				prev = n
			}
			st := s.Statistics()
			t.Logf("%d compiles, %d fallbacks, store peaked at %d nodes and ends at %d", st.DDCompiles, st.DDFallbacks, peak, st.DDNodes)
			if st.DDCompiles != tc.compiles {
				t.Fatalf("%d diagram compiles, want %d", st.DDCompiles, tc.compiles)
			}
			sameEndState(t, s, twin)
		})
	}
}

// TestExplainFollowsTheResidue: Explain narrates the residue the point
// has now, by the means the update path decides it with — asserted on
// Explain's output alone. nat44's zone table is keyed on the 9-bit
// ingress port, narrow enough for its points to be diagram-decided;
// emptying it folds them to literals, degrading it takes them off the
// diagram path, and undoing either puts them back. An engine whose arena
// (and with it the diagram store) is swept by force in between stays
// verdict-equal to a twin that never sweeps. Then the whole catalog:
// whatever Explain calls diagram-decided comes with evidence that holds
// against the residue itself.
func TestExplainFollowsTheResidue(t *testing.T) {
	t.Run("zone-script", explainZoneScript)
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			explainEvidenceHolds(t, p)
		})
	}
}

func explainZoneScript(t *testing.T) {
	p := progs.Nat44()
	const table = "Ingress.nat_zone"
	open := func() *core.Specializer {
		s, err := p.LoadWith(core.Options{RepairInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		if err := p.ApplyRepresentative(s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s, twin := open(), open()
	var narrated []int
	// The table's own points: what it taints downstream may keep its
	// residue through all of this.
	for _, pt := range s.An.PointsOf(table) {
		if pt.Table == table && explainSource(t, s, pt.ID) == "dd" {
			narrated = append(narrated, pt.ID)
		}
	}
	if len(narrated) == 0 {
		t.Fatalf("Explain calls no point of %s diagram-decided", table)
	}
	check := func(label, want string) {
		t.Helper()
		for _, id := range narrated {
			if got := explainSource(t, s, id); got != want {
				t.Fatalf("%s: Explain says %q for point %d, want %q", label, got, id, want)
			}
		}
	}
	both := func(f func(*core.Specializer) error) {
		t.Helper()
		for _, e := range []*core.Specializer{s, twin} {
			if err := f(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply := func(ups []*controlplane.Update) {
		t.Helper()
		both(func(e *core.Specializer) error {
			for _, u := range ups {
				if d := e.Apply(u); d.Kind == core.Rejected {
					return d.Err
				}
			}
			return nil
		})
	}
	sweep := func(label string) {
		t.Helper()
		core.ForceArenaSweep(s)
		sameEndState(t, s, twin)
		if err := core.CheckAgainstPerPointSubst(s); err != nil {
			t.Fatalf("%s, after a forced sweep: %v", label, err)
		}
	}

	var fill, empty []*controlplane.Update
	for _, u := range p.Representative() {
		if u.Table == table && u.Kind == controlplane.InsertEntry {
			fill = append(fill, u)
			empty = append(empty, &controlplane.Update{Kind: controlplane.DeleteEntry, Table: table, Entry: u.Entry})
		}
	}
	lit0 := s.Statistics().QueryLiteral
	apply(empty)
	if got := s.Statistics().QueryLiteral - lit0; got < int64(len(narrated)) {
		t.Fatalf("emptying %s answered %d queries by a literal, want the %d narrated points among them", table, got, len(narrated))
	}
	check("table emptied", "solver")
	sweep("table emptied")
	apply(fill)
	check("table refilled", "dd")
	sameEndState(t, s, twin)

	both(func(e *core.Specializer) error { return e.Degrade(table) })
	check("table degraded", "solver")
	sweep("table degraded")
	both(func(e *core.Specializer) error { _, err := e.PromoteAll(); return err })
	check("table promoted", "dd")
	sameEndState(t, s, twin)
}

// explainEvidenceHolds: after the program's representative
// configuration, every point Explain calls diagram-decided has a
// predicate path — or none because the diagram is a terminal, and then
// the residue takes the verdict's value under the zero assignment — and
// for a live point the witness drives the residue to true.
func explainEvidenceHolds(t *testing.T, p *progs.Program) {
	s, err := p.Load()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := p.ApplyRepresentative(s); err != nil {
		t.Fatal(err)
	}
	dd, live := 0, 0
	for id := range s.An.Points {
		ex, err := s.Explain(id)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Source != "dd" {
			continue
		}
		dd++
		witness := make(map[string]sym.BV, len(ex.Witness))
		for name, val := range ex.Witness {
			witness[name] = parseBV(t, val)
		}
		out, err := core.ResidueValue(s, id, witness)
		if err != nil {
			t.Fatal(err)
		}
		switch ex.Verdict {
		case "live":
			live++
			if ex.Witness == nil || !out.IsTrue() {
				t.Fatalf("point %d: live, but witness %v drives the residue to %s", id, ex.Witness, out)
			}
		case "dead":
			if !out.IsZero() {
				t.Fatalf("point %d: dead, but the residue is %s under the zero assignment", id, out)
			}
		case "const":
			if out.String() != ex.Value {
				t.Fatalf("point %d: const %s, but the residue is %s under the narrated assignment", id, ex.Value, out)
			}
		default:
			if len(ex.Steps) == 0 {
				t.Fatalf("point %d: verdict %s on a diagram with no predicate to vary over", id, ex.Verdict)
			}
		}
	}
	t.Logf("%d of %d points diagram-decided, %d live witnesses checked", dd, len(s.An.Points), live)
}

// parseBV reads sym.BV's String form (width 'w' 0x hex).
func parseBV(t *testing.T, s string) sym.BV {
	t.Helper()
	ws, hex, ok := strings.Cut(s, "w0x")
	w, err := strconv.ParseUint(ws, 10, 16)
	if !ok || err != nil {
		t.Fatalf("bit vector %q", s)
	}
	var hi uint64
	if len(hex) > 16 {
		if hi, err = strconv.ParseUint(hex[:len(hex)-16], 16, 64); err != nil {
			t.Fatalf("bit vector %q", s)
		}
		hex = hex[len(hex)-16:]
	}
	lo, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		t.Fatalf("bit vector %q", s)
	}
	return sym.NewBV2(uint16(w), hi, lo)
}

// TestExplainWidthDecided: a point decided by the width rule keeps no
// diagram, yet Explain still says why it is live — Source "width" and
// the free-bit count — and, where the residue compiles within the update
// path's budget, narrates a predicate path compiled for the call, whose
// liveness witness really satisfies the residue. Then the same calls run
// beside a writer (the on-demand path takes the read lock; -race is the
// assertion).
func TestExplainWidthDecided(t *testing.T) {
	s, _ := aclEngine(t, 150)
	var widthPoints []int
	narrated, witnessed := 0, 0
	for id := range s.An.Points {
		ex, err := s.Explain(id)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Source != "width" {
			if ex.FreeBits != 0 {
				t.Fatalf("point %d: source %q reports %d free bits", id, ex.Source, ex.FreeBits)
			}
			continue
		}
		widthPoints = append(widthPoints, id)
		if ex.FreeBits <= sym.DefaultExhaustiveBits {
			t.Fatalf("point %d: width-decided on %d free bits", id, ex.FreeBits)
		}
		if ex.Verdict != "live" && ex.Verdict != "varies" {
			t.Fatalf("point %d: width-decided verdict %q", id, ex.Verdict)
		}
		if len(ex.Steps) == 0 {
			if len(ex.Witness) != 0 {
				t.Fatalf("point %d: a witness without a path: %+v", id, ex)
			}
			continue
		}
		narrated++
		if ex.Query != "executable" || len(ex.Witness) == 0 {
			continue
		}
		witness := make(map[string]sym.BV, len(ex.Witness))
		for name, val := range ex.Witness {
			witness[name] = parseBV(t, val)
		}
		out, err := core.ResidueValue(s, id, witness)
		if err != nil {
			t.Fatal(err)
		}
		if !out.IsTrue() {
			t.Fatalf("point %d: witness %v does not satisfy the residue", id, ex.Witness)
		}
		witnessed++
	}
	t.Logf("%d width-decided points, %d narrated, %d witnesses checked", len(widthPoints), narrated, witnessed)
	if narrated == 0 || witnessed == 0 {
		t.Fatalf("%d width-decided points, %d narrated, %d with a checked witness; want some of each",
			len(widthPoints), narrated, witnessed)
	}
	if n := s.Statistics().DDNodes; n > 1000 {
		t.Fatalf("narrating left %d nodes in the engine's diagram store", n)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 150; i < 190; i++ {
			s.Apply(progs.MiddleblockACLEntry(i))
		}
		for i := 189; i >= 150; i-- {
			u := progs.MiddleblockACLEntry(i)
			u.Kind = controlplane.DeleteEntry
			s.Apply(u)
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ex, err := s.Explain(widthPoints[i%len(widthPoints)])
				if err != nil {
					t.Error(err)
					return
				}
				if ex.Source != "width" || ex.FreeBits <= sym.DefaultExhaustiveBits {
					t.Errorf("point %d at epoch %d: source %q on %d free bits beside a writer", ex.Point, ex.Epoch, ex.Source, ex.FreeBits)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestEnvVariablesAreAtoms: recompileTarget looks for new diagram atoms
// only in fragments that can introduce one (overapproximated tables,
// register refills). Across the catalog — representative configuration,
// fuzzed updates, a degraded table — every data variable any installed
// assignment mentions must nevertheless be a registered atom.
func TestEnvVariablesAreAtoms(t *testing.T) {
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			s, err := p.LoadWith(core.Options{RepairInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			check := func(when string) {
				t.Helper()
				if err := core.CheckEnvVarsAreAtoms(s); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			}
			check("open")
			if err := p.ApplyRepresentative(s); err != nil {
				t.Fatal(err)
			}
			check("representative")
			for i, u := range makeStream(t, s, 0xa70) {
				s.Apply(u)
				check(fmt.Sprintf("update %d (%s)", i, u))
			}
			if err := s.Degrade(p.BurstTable); err != nil {
				t.Fatal(err)
			}
			check("degraded " + p.BurstTable)
			if _, err := s.PromoteAll(); err != nil {
				t.Fatal(err)
			}
			check("promoted")
		})
	}
}

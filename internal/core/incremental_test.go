// The substitution memo outlives its pass (DESIGN §4.4): what the
// engine finds in it must be what a pass from nothing computes, and
// what it rewrites must be what the written target reaches — counted,
// not timed.
package core_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/fuzz"
	"repro/internal/progs"
	"repro/internal/sym"
)

// TestIncrementalPassMatchesFreshPass: catalog × churn pattern, the
// memo checked against a fresh pass after every call — and across what
// could leave it stale: a batch cancelled before it touched anything, a
// batch under a budget it may not fit, an arena sweep right before a
// pass (every id the memo is indexed by renumbered), a degrade and the
// promotion back, and a Restore (no memo, no kept residues). switch has
// more control targets than the mask has bits, so there the rule runs
// with targets told apart by nobody.
func TestIncrementalPassMatchesFreshPass(t *testing.T) {
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, kind := range fuzz.PatternKinds() {
				s, err := p.LoadWith(core.Options{RepairInterval: -1})
				if err != nil {
					t.Fatal(err)
				}
				check := func(s *core.Specializer, when string) {
					t.Helper()
					if err := core.CheckIncrementalPass(s); err != nil {
						t.Fatalf("%s, %s: %v", kind, when, err)
					}
				}
				check(s, "open")
				if p.Name == "switch" {
					requireAliasedTargets(t, s.An)
				}
				if p.Representative != nil {
					for i, u := range p.Representative() {
						s.Apply(u)
						check(s, fmt.Sprintf("representative %d", i))
					}
				}
				cs, err := fuzz.Churn(s.An, fuzz.ChurnSpec{
					Kind: kind, Table: p.BurstTable, Updates: 48, Seed: uint64(kind)*37 + 11,
				})
				if err != nil {
					t.Fatal(err)
				}
				batches := cs.Batches()
				for bi, batch := range batches {
					when := fmt.Sprintf("batch %d", bi)
					switch bi {
					case len(batches) / 4:
						cancelled, cancel := context.WithCancel(context.Background())
						cancel()
						for _, d := range s.ApplyBatchCtx(cancelled, batch) {
							if d.Kind != core.Rejected {
								t.Fatalf("%s: cancelled batch decided %s", kind, d.Kind)
							}
						}
						check(s, when+", cancelled")
						// Under a budget: admitted or not, degraded or
						// not, the memo has to follow.
						tight, cancel := context.WithTimeout(context.Background(), 40*time.Microsecond)
						ds := s.ApplyBatchCtx(tight, batch)
						cancel()
						if ds[0].Kind == core.Rejected && ds[len(ds)-1].Kind == core.Rejected {
							s.ApplyBatch(batch)
						}
					case len(batches) / 2:
						core.ForceArenaSweep(s)
						s.ApplyBatch(batch)
					case 3 * len(batches) / 4:
						if err := s.Degrade(p.BurstTable); err != nil {
							t.Fatal(err)
						}
						check(s, when+", degraded")
						s.ApplyBatch(batch)
						check(s, when+", applied degraded")
						if unsound, err := s.PromoteAll(); err != nil || unsound != 0 {
							t.Fatalf("%s: PromoteAll unsound=%d err=%v", kind, unsound, err)
						}
					default:
						s.ApplyBatch(batch)
					}
					check(s, when)
				}
				data, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				s.Close()
				r, err := core.Restore(data, core.Options{RepairInterval: -1})
				if err != nil {
					t.Fatal(err)
				}
				check(r, "restored")
				drain := cs.Drain()
				for i, u := range drain[:len(drain)/2] {
					r.Apply(u)
					check(r, fmt.Sprintf("drain apply %d", i))
				}
				r.ApplyBatch(drain[len(drain)/2:])
				check(r, "drain batch")
				r.Close()
			}
		})
	}
}

// requireAliasedTargets asserts the premise of the switch arm: more
// control targets than mask bits, so some table's placeholders carry the
// bit of another's.
func requireAliasedTargets(t *testing.T, an *dataplane.Analysis) {
	t.Helper()
	owners := make(map[string]bool)
	for _, q := range an.VarOwner {
		owners[q] = true
	}
	if len(owners) <= 64 {
		t.Fatalf("switch has %d control targets; the aliasing arm needs more than 64", len(owners))
	}
	byMask := make(map[uint64]string)
	for _, name := range an.TableOrder {
		m := an.Tables[name].ActionVar.CtrlMask()
		if other, ok := byMask[m]; ok {
			t.Logf("%d targets; %s and %s share mask %#x", len(owners), other, name, m)
			return
		}
		byMask[m] = name
	}
	t.Fatal("no two tables of switch share a mask bit")
}

// reachOf counts the distinct nodes under the points' expressions whose
// mask meets bits: what a write to the targets behind those bits can
// reach, and so all a pass after it may rewrite.
func reachOf(pts []*dataplane.Point, bits uint64) int64 {
	seen := make(map[*sym.Expr]bool)
	var walk func(e *sym.Expr)
	walk = func(e *sym.Expr) {
		if e == nil || seen[e] || e.CtrlMask()&bits == 0 {
			return
		}
		seen[e] = true
		walk(e.A)
		walk(e.B)
		walk(e.C)
	}
	for _, p := range pts {
		walk(p.Expr)
	}
	return int64(len(seen))
}

// TestHeadWriteRewritesWhatItReaches pins core.subst_nodes, the
// instrument of the budget's substitute stage: on precise middleblock a
// head insert rewrites exactly the nodes the ACL's placeholders occur in
// — none whose mask lacks the table's bit, however many of the update's
// 241 tainted points they sit under — and as many with 1000 entries
// installed as with 100.
func TestHeadWriteRewritesWhatItReaches(t *testing.T) {
	p := progs.Middleblock()
	rewrote := map[int]int64{}
	for _, n := range []int{100, 1000} {
		s, reg := aclEngine(t, n)
		ti := s.An.Tables[p.ACLTable]
		pts := s.An.PointsOf(p.ACLTable)
		reach := reachOf(pts, ti.ActionVar.CtrlMask())
		if all := reachOf(pts, ^uint64(0)); reach == 0 || reach*4 > all {
			t.Fatalf("the ACL reaches %d of the %d control-dependent nodes under its %d points: no test of reach", reach, all, len(pts))
		}
		nodes := reg.Counter("core.subst_nodes")
		// A sweep drops the memo, and the preload may have left one due:
		// take it now, and let one write refill what it dropped.
		core.ForceArenaSweep(s)
		s.Apply(progs.MiddleblockACLEntry(n + 6))
		sweeps := s.Statistics().ArenaSweeps
		for i := 0; i < 6; i++ {
			// aclEngine's priorities ascend with the index: n+i is a new head.
			u := progs.MiddleblockACLEntry(n + i)
			before := nodes.Value()
			if d := s.Apply(u); d.Kind == core.Rejected {
				t.Fatal(d.Err)
			}
			if got := nodes.Value() - before; got != reach {
				t.Fatalf("%d entries, head insert %d: pass rewrote %d nodes, the table reaches %d", n, i, got, reach)
			}
			rewrote[n] += nodes.Value() - before
			before = nodes.Value()
			del := &controlplane.Update{Kind: controlplane.DeleteEntry, Table: u.Table, Entry: u.Entry}
			if i%2 == 0 {
				continue // keep this one: the next insert goes above it
			}
			if d := s.Apply(del); d.Kind == core.Rejected {
				t.Fatal(d.Err)
			}
			if got := nodes.Value() - before; got != reach {
				t.Fatalf("%d entries, head delete %d: pass rewrote %d nodes, the table reaches %d", n, i, got, reach)
			}
		}
		// Another table's precision transitions reach what that table's
		// placeholders occur in, and a write that leaves its assignment
		// the pointers they were — an insert while it is pinned to
		// "*any*" — reaches nothing. (The first transition also rewrites
		// what the forced sweep dropped and no ACL point sits over.)
		other := s.An.TableOrder[0]
		if other == p.ACLTable {
			other = s.An.TableOrder[1]
		}
		otherPts := s.An.PointsOf(other)
		otherReach := reachOf(otherPts, s.An.Tables[other].ActionVar.CtrlMask())
		entry, err := fuzz.New(s.An, 7).Entry(other)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			before := nodes.Value()
			if err := s.Degrade(other); err != nil {
				t.Fatal(err)
			}
			if got := nodes.Value() - before; round > 0 && got != otherReach {
				t.Fatalf("degrading %s rewrote %d nodes, the table reaches %d", other, got, otherReach)
			}
			before = nodes.Value()
			for _, kind := range []controlplane.UpdateKind{controlplane.InsertEntry, controlplane.DeleteEntry} {
				if d := s.Apply(&controlplane.Update{Kind: kind, Table: other, Entry: entry}); d.Kind == core.Rejected {
					t.Fatal(d.Err)
				}
			}
			if got := nodes.Value() - before; got != 0 {
				t.Fatalf("writes to %s while it is pinned rewrote %d nodes", other, got)
			}
			if _, err := s.PromoteAll(); err != nil {
				t.Fatal(err)
			}
			if got := nodes.Value() - before; got != otherReach {
				t.Fatalf("promoting %s rewrote %d nodes, the table reaches %d", other, got, otherReach)
			}
		}
		if got := s.Statistics().ArenaSweeps; got != sweeps {
			t.Fatalf("%d entries: the arena was swept %d times under measurement", n, got-sweeps)
		}
	}
	if rewrote[100] != rewrote[1000] {
		t.Fatalf("head inserts rewrote %d nodes over 100 entries and %d over 1000", rewrote[100], rewrote[1000])
	}
}

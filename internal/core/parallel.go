package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dataplane"
	"repro/internal/dd"
	"repro/internal/obs"
	"repro/internal/sym"
)

// The parallel update-analysis engine. The paper's headline requirement
// is that update analysis stays on the control-plane fast path (µs–ms
// per update, Tbl. 3); when an update — or a coalesced batch — taints
// many program points, the point re-evaluations are independent of each
// other (points are hermetic by the state-merging construction, §4.1),
// so they fan out across a bounded worker pool sharded by program point.
//
// Sharing discipline:
//
//   - the hash-consing Builder is shared (interning locks internally;
//     pointer identity must stay global or the per-point substitution
//     memo would stop working);
//   - each worker owns an evalShard: a Solver (evaluation and width-walk
//     scratch) and a substitution memo, so symbolic evaluation never
//     shares mutable scratch. The memo lives for one pass: every
//     mutating call compiles the assignments it touches first and
//     re-evaluates afterwards, so the environment is fixed while points
//     are evaluated, and reevalPoints opens one substitution generation
//     per shard in use (sym.SubstPass) that all of the shard's points
//     substitute inside — the path conditions they share are rewritten
//     once per pass, not once per point. The next pass opens the next
//     generation, which also retires whatever an arena sweep in between
//     renumbered;
//   - every point is claimed by exactly one worker, so the per-point
//     caches (verdict, substituted-expression pointer, liveness witness)
//     are written race-free without further locking.
//
// Verdicts are schedule-independent, which is what makes the parallel
// path observationally identical to the sequential one (the equivalence
// suite in equiv_test.go holds it to that): Dead needs a literal false
// or an exhaustive refutation and Const a literal or an exhaustive
// certificate, a residue too wide for either is Live/Varies before
// anything is evaluated (queryAny), and nothing on the query path is
// randomized.

// evalShard is one worker's private evaluation state.
type evalShard struct {
	solver *sym.Solver
	sub    sym.SubstScratch
	// pass is the shard's substitution generation for the evaluation
	// pass in flight, opened by reevalPoints.
	pass sym.SubstPass
	dd   *dd.Ctx
}

// ddCtx returns the worker's diagram compile context against the given
// store, dropping stale memos when the store was rebuilt since the
// worker last compiled.
func (sh *evalShard) ddCtx(st *dd.Store) *dd.Ctx {
	if sh.dd == nil || sh.dd.Store() != st {
		sh.dd = dd.NewCtx(st)
	}
	return sh.dd
}

// minParallelPoints is the fan-out threshold: a pass over fewer points
// runs on the caller's goroutine. Nearly every point of an incremental
// pass is settled by an unchanged residue pointer, a literal or the
// width rule, 0.02–0.16 µs each on the catalog (a whole pass
// over scion's 653 points: ~100 µs), and the points of one pass share
// path conditions that one shard's memo substitutes once and two
// shards' memos twice. Against that the fork/join costs a microsecond
// while the pool's threads still spin and a futex wake of a parked
// thread once calls are further apart than that, so what a fanned-out
// pass costs depends on when it arrives. On the 2-vCPU reference box
// two workers never beat one on any catalog pass (best of 300 back-to-
// back passes, 16 to 999 points), and fanning out from 8 or from 256
// points cost the benchmark's closed-loop writers a fifth to a quarter
// of their rate. The pool is for the pass big enough to pay the wake-up
// whatever its points cost. A variable only so that this package's
// tests can lower it (TestMain) and keep holding the fanned-out path
// to the serial one on catalog-sized programs.
var minParallelPoints = 1024

// minUnitPoints is the smallest evaluation unit planUnits cuts.
const minUnitPoints = 8

// effectiveWorkers resolves the configured worker count against the
// machine and the work at hand.
func (s *Specializer) effectiveWorkers(points int) int {
	w := s.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if points < minParallelPoints {
		return 1
	}
	if w > points {
		w = points
	}
	return w
}

// passShard returns the i-th worker's scratch state with a fresh
// substitution generation over the current environment — the shard as
// one evaluation pass uses it.
func (s *Specializer) passShard(i int) *evalShard {
	sh := s.shard(i)
	sh.pass = s.An.Builder.BeginSubst(&sh.sub, s.env)
	return sh
}

// shard returns the i-th worker's scratch state, growing the pool on
// first use. Shards are only ever handed out under the engine's write
// lock, and workers of one evaluation receive distinct shards.
func (s *Specializer) shard(i int) *evalShard {
	for len(s.shards) <= i {
		solver := sym.NewSolver()
		// All shards share one atomic SolverMetrics (nil when disabled).
		solver.Metrics = s.symMet
		s.shards = append(s.shards, &evalShard{solver: solver})
	}
	return s.shards[i]
}

// reevalPoints re-evaluates the given points (deduplicated, in ID
// order), installs the new verdicts, and returns the IDs of the points
// whose verdict changed, in ascending order. With an effective worker
// count above one the pass is planned by the taint-partition shard map
// (shard.go): points group by owning shard, shard groups chunk into
// evaluation units, and each unit is claimed by exactly one worker via
// an atomic cursor — so points sharing a dependency target keep memo
// and witness locality while a single dominant partition still spreads
// across the pool.
func (s *Specializer) reevalPoints(pts []*dataplane.Point) []int {
	w := s.effectiveWorkers(len(pts))
	s.met.pointsEvaluated.Add(int64(len(pts)))
	capture := s.audit != nil
	s.lastChanges = s.lastChanges[:0]
	if w <= 1 {
		sh := s.passShard(0)
		var changed []int
		for _, p := range pts {
			s.met.shardEval(s.co.shards.ofPoint[p.ID]).Inc()
			old, now, ch := s.evalInto(sh, p)
			if ch {
				changed = append(changed, p.ID)
				if capture {
					s.lastChanges = append(s.lastChanges, obs.PointChange{
						Point: p.ID, Query: queryName(p.Kind),
						Old: old.String(), New: now.String(),
					})
				}
			}
		}
		s.met.pointsChanged.Add(int64(len(changed)))
		if len(changed) > 0 {
			s.verdictsDirty = true
		}
		return changed
	}
	units, shardOfUnit := s.co.shards.planUnits(pts, w)
	changed := make([]bool, len(pts))
	// Per-index change slots: each k is claimed by exactly one worker
	// (units partition the indices), so the slots are written race-free.
	// Allocated only when auditing.
	var slots []obs.PointChange
	if capture {
		slots = make([]obs.PointChange, len(pts))
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		sh := s.passShard(i)
		worker := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := int(cursor.Add(1)) - 1
				if u >= len(units) {
					return
				}
				s.met.shardEval(shardOfUnit[u]).Add(int64(len(units[u])))
				for _, k := range units[u] {
					old, now, ch := s.evalInto(sh, pts[k])
					changed[k] = ch
					if ch && capture {
						slots[k] = obs.PointChange{
							Point: pts[k].ID, Query: queryName(pts[k].Kind),
							Old: old.String(), New: now.String(), Worker: worker,
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	var out []int
	for k, c := range changed {
		if c {
			out = append(out, pts[k].ID)
			if capture {
				s.lastChanges = append(s.lastChanges, slots[k])
			}
		}
	}
	s.met.pointsChanged.Add(int64(len(out)))
	if len(out) > 0 {
		s.verdictsDirty = true
	}
	return out
}

// evalInto re-evaluates one point with the shard's scratch state and
// installs the result; it returns the previous and new verdicts and
// whether they differ.
func (s *Specializer) evalInto(sh *evalShard, p *dataplane.Point) (old, now Verdict, changed bool) {
	now = s.evalPointWith(sh, p)
	old = s.verdicts[p.ID]
	if now == old {
		return old, now, false
	}
	s.verdicts[p.ID] = now
	return old, now, true
}

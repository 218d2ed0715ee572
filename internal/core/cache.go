package core

import (
	"sort"
	"sync/atomic"

	"repro/internal/dataplane"
	"repro/internal/sym"
)

// The taint-keyed specialization-query cache. Every point's verdict is
// a pure function of (the point's symbolic expression, the assignment
// fragments of the objects that taint it): substitution and the solver
// are deterministic, and the engine's determinism invariant
// (parallel.go) guarantees the verdict does not depend on schedule. So
// a verdict may be memoized under the key
//
//	(canonical hash of the point expression,
//	 fold of the dependency targets' assignment fingerprints)
//
// and replayed whenever the key recurs — without substituting, without
// querying the solver. The taint map drives invalidation exactly as it
// drives re-evaluation: when an update changes target T's assignment
// fingerprint, only the entries of points tainted by T are evicted.
//
// Both key halves are canonical (sym.Canon / controlplane
// fingerprints), never builder pointers or ids, which is what lets a
// snapshot carry the warm cache across processes.

// cacheWays bounds the entries retained per point. Eviction keeps only
// entries matching the current dependency fingerprint, so in steady
// state a point holds at most one entry; the bound is a hard backstop
// on memory, not a tuning knob.
const cacheWays = 4

// cacheKey identifies one memoized query result.
type cacheKey struct {
	expr sym.Canon // canonical hash of the point's (unsubstituted) expression
	dep  uint64    // fold of the dependency targets' assignment fingerprints
}

// cacheEntry is one memoized verdict with its liveness witness hint.
type cacheEntry struct {
	key     cacheKey
	verdict Verdict
	witness sym.Env
	used    uint64 // LRU tick
}

// queryCache is the per-point memo table. The outer slice is fixed at
// construction (indexed by point ID) and each point's way slice is only
// touched by the single worker that owns the point during a pass — or
// by the engine under its write lock between passes — so way access
// needs no locking. The counters are atomics because workers bump them
// concurrently.
type queryCache struct {
	points [][]cacheEntry
	tick   atomic.Uint64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	size      atomic.Int64
}

func newQueryCache(points int) *queryCache {
	return &queryCache{points: make([][]cacheEntry, points)}
}

// lookup finds the point's entry for key, bumping its LRU tick.
func (c *queryCache) lookup(id int, key cacheKey) (*cacheEntry, bool) {
	ways := c.points[id]
	for i := range ways {
		if ways[i].key == key {
			ways[i].used = c.tick.Add(1)
			c.hits.Add(1)
			return &ways[i], true
		}
	}
	c.misses.Add(1)
	return nil, false
}

// store memoizes a verdict, evicting the point's least-recently-used
// entry if the way bound is hit; it reports whether it displaced one.
func (c *queryCache) store(id int, key cacheKey, v Verdict, w sym.Env) bool {
	ways := c.points[id]
	for i := range ways {
		if ways[i].key == key {
			ways[i].verdict, ways[i].witness = v, w
			ways[i].used = c.tick.Add(1)
			return false
		}
	}
	e := cacheEntry{key: key, verdict: v, witness: w, used: c.tick.Add(1)}
	if len(ways) >= cacheWays {
		lru := 0
		for i := range ways {
			if ways[i].used < ways[lru].used {
				lru = i
			}
		}
		ways[lru] = e
		c.evictions.Add(1)
		return true
	}
	c.points[id] = append(ways, e)
	c.size.Add(1)
	return false
}

// evictExcept drops every entry of the point whose dependency
// fingerprint differs from keep, returning how many were dropped. The
// engine calls it (under its write lock) for exactly the points the
// taint map routes a changed target to.
func (c *queryCache) evictExcept(id int, keep uint64) int {
	ways := c.points[id]
	out := ways[:0]
	for _, e := range ways {
		if e.key.dep == keep {
			out = append(out, e)
		}
	}
	n := len(ways) - len(out)
	if n > 0 {
		for i := len(out); i < len(ways); i++ {
			ways[i] = cacheEntry{}
		}
		c.points[id] = out
		c.evictions.Add(int64(n))
		c.size.Add(int64(-n))
	}
	return n
}

// buildPointDeps inverts the taint map through the variable-owner map:
// for every point, the sorted, deduplicated qualified names of the
// objects whose control-plane variables can influence it. This is the
// dependency set the cache key folds over — the same routing the
// engine's re-evaluation uses, so an update that cannot re-evaluate a
// point cannot change its key either.
func buildPointDeps(an *dataplane.Analysis) [][]string {
	deps := make([][]string, len(an.Points))
	for v, ids := range an.Taint {
		owner := an.VarOwner[v]
		for _, id := range ids {
			deps[id] = append(deps[id], owner)
		}
	}
	for id, ds := range deps {
		sort.Strings(ds)
		out := ds[:0]
		for i, d := range ds {
			if i == 0 || d != ds[i-1] {
				out = append(out, d)
			}
		}
		deps[id] = out
	}
	return deps
}

// targetOrdinals numbers every configurable object of the program —
// tables, value sets, registers — in name order, and rewrites the
// per-point dependency lists over the numbers. The fold in depFp runs
// once per tainted point per update, twice with eviction; numbered
// targets make each step an index into a slice instead of a string
// hash. Name order keeps a point's list in the order the names sorted
// in, so the fold — and every cache key — is what it was.
func targetOrdinals(an *dataplane.Analysis, depNames [][]string) (names []string, ord map[string]int32, deps [][]int32) {
	ord = make(map[string]int32, len(an.Tables)+len(an.Registers)+len(an.ValueSets))
	for name := range an.Tables {
		ord[name] = 0
	}
	for name := range an.Registers {
		ord[name] = 0
	}
	for _, vi := range an.ValueSets {
		ord[vi.Name] = 0
	}
	for _, owner := range an.VarOwner {
		ord[owner] = 0
	}
	names = sortedNames(ord)
	for i, name := range names {
		ord[name] = int32(i)
	}
	deps = make([][]int32, len(depNames))
	for id, names := range depNames {
		if len(names) == 0 {
			continue
		}
		deps[id] = make([]int32, len(names))
		for i, name := range names {
			deps[id][i] = ord[name]
		}
	}
	return names, ord, deps
}

// depFpSeed is the fold seed for a point with no dependencies.
const depFpSeed = 0x51afd7ed558ccd25

// depFp folds the point's dependency targets' current assignment
// fingerprints into the cache key's dependency half. The fold walks the
// sorted dependency list, so it is deterministic across engines; it is
// order-sensitive (unlike the per-fragment XOR), which keeps distinct
// dependency sets from cancelling. A target not compiled yet folds as
// zero.
func (s *Specializer) depFp(id int) uint64 {
	acc := uint64(depFpSeed)
	for _, t := range s.pointDeps[id] {
		acc = sym.Mix64(acc ^ s.targetFp[t])
	}
	return acc
}

// evictStale performs the taint-driven invalidation for one changed
// target: every point the target taints drops the cache entries whose
// dependency fingerprint no longer matches. Entries keyed on the new
// fingerprint (from an earlier visit to the same configuration within
// the current pass window) survive.
func (s *Specializer) evictStale(target string) {
	// The diagram core re-uses the exact same taint routing: the points
	// this target taints drop their compiled diagram roots (the residue
	// they were compiled from is about to change), nothing else does.
	if s.ddc != nil {
		for _, p := range s.An.PointsOf(target) {
			s.ddc.invalidate(p.ID)
		}
	}
	if s.cache == nil {
		return
	}
	evicted := 0
	for _, p := range s.An.PointsOf(target) {
		evicted += s.cache.evictExcept(p.ID, s.depFp(p.ID))
	}
	if evicted > 0 {
		s.met.cacheEvictions.Add(int64(evicted))
		s.met.cacheEntries.Set(s.cache.size.Load())
	}
}

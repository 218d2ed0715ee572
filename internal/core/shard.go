// Taint-partition sharding. The taint map already proves which points
// an update can reach; inverting it (buildPointDeps) gives each
// point's dependency targets, and targets connected through a shared
// point must change together. Union-find over that relation yields the
// engine's taint partitions: maximal groups of targets whose points
// overlap. Each partition is assigned to exactly one shard, so two
// points in different shards never share a dependency target — a
// batch's re-evaluation can fan shard groups out across workers with
// per-point state (verdicts, witnesses, substitution memos) written
// race-free by construction, not by locking.
//
// Shards are a static property of the program's taint structure, fixed
// at open time. Everything cross-shard — sequence allocation, the
// arena-sweep trigger, epoch publication — lives in coord (epoch.go).
package core

import (
	"slices"
	"sort"

	"repro/internal/dataplane"
)

// maxEngineShards bounds the shard count. Partition counts above it
// are folded together; 16 shards saturate the multicore targets the
// scaling curve measures while keeping per-shard instruments readable.
const maxEngineShards = 16

// shardMap assigns every target and every program point to a shard.
type shardMap struct {
	count      int            // shards in use (≥1)
	partitions int            // taint partitions discovered
	ofTarget   map[string]int // target → shard
	ofPoint    []int          // point ID → shard
	// points counts the points owned by each shard (instrumentation
	// and bin-packing diagnostics).
	points []int
}

// buildPointDeps inverts the taint map through the variable-owner map:
// for every point, the sorted, deduplicated qualified names of the
// objects whose control-plane variables can influence it — the same
// routing the engine's re-evaluation uses. The engine keeps the result
// (underDegraded), so each list is cut to its deduplicated length: a
// point collects one name per tainting variable, tens per table.
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
		deps[id] = slices.Clone(slices.Compact(ds))
	}
	return deps
}

// buildShardMap derives the taint partitions from the analysis and the
// inverted taint map, then bin-packs partitions onto shards
// (longest-processing-time: biggest partition first, always onto the
// least-loaded shard).
func buildShardMap(an *dataplane.Analysis, pointDeps [][]string) *shardMap {
	// Union-find over targets: two targets sharing a tainted point are
	// in one partition.
	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, deps := range pointDeps {
		for i := 1; i < len(deps); i++ {
			union(deps[0], deps[i])
		}
		if len(deps) > 0 {
			find(deps[0])
		}
	}

	// Partition weight = points it owns (a point belongs to the
	// partition of its dependency targets; dependency-free points are
	// spread round-robin later).
	weight := make(map[string]int)
	for _, deps := range pointDeps {
		if len(deps) > 0 {
			weight[find(deps[0])]++
		}
	}
	roots := make([]string, 0, len(weight))
	for r := range weight {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool {
		if weight[roots[i]] != weight[roots[j]] {
			return weight[roots[i]] > weight[roots[j]]
		}
		return roots[i] < roots[j]
	})

	m := &shardMap{
		partitions: len(roots),
		ofTarget:   make(map[string]int),
		ofPoint:    make([]int, len(pointDeps)),
	}
	m.count = min(maxEngineShards, max(1, len(roots)))
	m.points = make([]int, m.count)

	// LPT bin-packing of partitions onto shards.
	shardOfRoot := make(map[string]int, len(roots))
	for _, r := range roots {
		least := 0
		for i := 1; i < m.count; i++ {
			if m.points[i] < m.points[least] {
				least = i
			}
		}
		shardOfRoot[r] = least
		m.points[least] += weight[r]
	}
	for t := range parent {
		m.ofTarget[t] = shardOfRoot[find(t)]
	}
	next := 0
	for id, deps := range pointDeps {
		if len(deps) > 0 {
			m.ofPoint[id] = shardOfRoot[find(deps[0])]
			continue
		}
		// Dependency-free points (never tainted after open) spread
		// round-robin; they only matter for init and ReevaluateAll.
		m.ofPoint[id] = next
		next = (next + 1) % m.count
		m.points[m.ofPoint[id]]++
	}
	return m
}

// shardOf returns the shard owning a target; targets outside every
// partition (no tainted points) fold into shard 0.
func (m *shardMap) shardOf(target string) int { return m.ofTarget[target] }

// planUnits splits the indices of pts into evaluation units for one
// re-evaluation pass: points are grouped by owning shard (preserving
// their relative — ID — order), and each shard group is chunked so a
// pass has enough units for the worker pool to balance even when one
// partition dominates the taint set. Every point lands in exactly one
// unit.
func (m *shardMap) planUnits(pts []*dataplane.Point, workers int) (units [][]int, shardOfUnit []int) {
	groups := make([][]int, m.count)
	for k, p := range pts {
		sh := m.ofPoint[p.ID]
		groups[sh] = append(groups[sh], k)
	}
	chunk := max(len(pts)/(workers*4), minUnitPoints)
	for sh, g := range groups {
		for len(g) > 0 {
			n := min(chunk, len(g))
			units = append(units, g[:n])
			shardOfUnit = append(shardOfUnit, sh)
			g = g[n:]
		}
	}
	return units, shardOfUnit
}

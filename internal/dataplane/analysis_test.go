package dataplane_test

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/progs"
)

// scanPointsOf is PointsOfTargets as it was before the per-object lists
// were built once at analysis time: one walk over the whole taint map
// per call. Kept as the reference the index is checked against.
func scanPointsOf(a *dataplane.Analysis, names ...string) []int {
	seen := make(map[int]bool)
	for v, ids := range a.Taint {
		if !slices.Contains(names, a.VarOwner[v]) {
			continue
		}
		for _, id := range ids {
			seen[id] = true
		}
	}
	out := make([]int, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

func ids(pts []*dataplane.Point) []int {
	out := make([]int, len(pts))
	for i, p := range pts {
		out[i] = p.ID
	}
	return out
}

// TestPointsOfMatchesTaintScan: for every table, value set and register
// of every catalog program, PointsOf serves exactly the list a scan of
// the taint map yields, and PointsOfTargets the scan of the union — for
// single names, pairs (overlapping lists merge without duplicates), the
// whole set at once, a repeated name and an unknown one.
func TestPointsOfMatchesTaintScan(t *testing.T) {
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			s, err := p.Load()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			an := s.An
			var names []string
			for n := range an.Tables {
				names = append(names, n)
			}
			for _, vi := range an.ValueSets {
				if !slices.Contains(names, vi.Name) {
					names = append(names, vi.Name)
				}
			}
			for n := range an.Registers {
				names = append(names, n)
			}
			sort.Strings(names)
			same := func(what string, got []*dataplane.Point, want []int) {
				t.Helper()
				if !slices.Equal(ids(got), want) {
					t.Fatalf("%s: %v, a taint-map scan yields %v", what, ids(got), want)
				}
			}
			for i, n := range names {
				same("PointsOf("+n+")", an.PointsOf(n), scanPointsOf(an, n))
				same("PointsOfTargets("+n+")", an.PointsOfTargets([]string{n}), scanPointsOf(an, n))
				m := names[(i+1)%len(names)]
				same("PointsOfTargets("+n+", "+m+")", an.PointsOfTargets([]string{n, m}), scanPointsOf(an, n, m))
				same("PointsOfTargets("+n+" twice)", an.PointsOfTargets([]string{n, n}), scanPointsOf(an, n))
			}
			same("PointsOfTargets(all)", an.PointsOfTargets(names), scanPointsOf(an, names...))
			same("PointsOfTargets(none)", an.PointsOfTargets(nil), nil)
			same("PointsOf(unknown)", an.PointsOf("no.such_object"), []int{})
			same("PointsOfTargets(unknown + known)", an.PointsOfTargets([]string{"no.such_object", names[0]}), scanPointsOf(an, names[0]))
		})
	}
}

package controlplane

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/sym"
)

// The reference the maintained active list is checked against: sort the
// installed entries by precedence, then keep each entry no earlier kept
// entry covers — re-derived from nothing on every call, quadratic in
// the table size. This is what ActiveEntries used to run on every read.

func oracleActive(ti *dataplane.TableInfo, installed []*TableEntry) ([]*TableEntry, int) {
	entries := append([]*TableEntry(nil), installed...)
	sortEntries(ti, entries)
	var active []*TableEntry
	eclipsed := 0
	for _, e := range entries {
		if coveredByAny(ti, active, e) {
			eclipsed++
			continue
		}
		active = append(active, e)
	}
	return active, eclipsed
}

// sortEntries orders entries by match precedence: priority descending,
// then total prefix/mask specificity descending (longest-prefix-match),
// then insertion order for determinism.
func sortEntries(ti *dataplane.TableInfo, entries []*TableEntry) {
	spec := func(e *TableEntry) int {
		s := 0
		for i, m := range e.Matches {
			s += m.ternaryMask(ti.KeyWidths[i]).PopCount()
		}
		return s
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Priority != entries[j].Priority {
			return entries[i].Priority > entries[j].Priority
		}
		si, sj := spec(entries[i]), spec(entries[j])
		if si != sj {
			return si > sj
		}
		return entries[i].seq < entries[j].seq
	})
}

func coveredByAny(ti *dataplane.TableInfo, active []*TableEntry, e *TableEntry) bool {
	for _, a := range active {
		if oracleCovers(ti, a, e) {
			return true
		}
	}
	return false
}

// oracleCovers reports whether entry a matches a superset of the packets
// entry b matches: for every key component, a's mask is a subset of b's
// mask and the two values agree on a's mask.
func oracleCovers(ti *dataplane.TableInfo, a, b *TableEntry) bool {
	for i := range a.Matches {
		w := ti.KeyWidths[i]
		ma := a.Matches[i].ternaryMask(w)
		mb := b.Matches[i].ternaryMask(w)
		if ma.And(mb) != ma {
			return false // a constrains a bit b doesn't: a can miss where b hits
		}
		if a.Matches[i].Value.And(ma) != b.Matches[i].Value.And(ma) {
			return false
		}
	}
	return true
}

const mixSrc = `
header h_t { bit<8> a; bit<16> b; bit<32> c; bit<8> d; }
struct headers { h_t h; }
struct metadata { }
control Mix(inout headers hdr, inout metadata meta, inout standard_metadata_t std) {
    action allow() { }
    action deny() { mark_to_drop(std); }
    table mix {
        key = { hdr.h.a: exact; hdr.h.b: ternary; hdr.h.c: lpm; hdr.h.d: optional; }
        actions = { allow; deny; NoAction; }
        default_action = NoAction;
    }
    apply {
        mix.apply();
    }
}
`

// mixEntry draws one entry from domains small enough that inserts
// collide: same key at another priority, a wildcard row over everything
// below it, a short prefix under a long one.
func mixEntry(r *rand.Rand) *TableEntry {
	e := &TableEntry{
		Priority: r.Intn(3),
		Matches: []FieldMatch{
			{Kind: MatchExact, Value: sym.NewBV(8, uint64(r.Intn(2)))},
			{Kind: MatchTernary, Value: sym.NewBV(16, uint64(r.Intn(4))<<7), Mask: sym.NewBV(16, []uint64{0, 0xff00, 0x00ff, 0xffff}[r.Intn(4)])},
			{Kind: MatchLPM, Value: sym.NewBV(32, uint64(r.Intn(4))<<29), PrefixLen: []int{0, 1, 3, 32}[r.Intn(4)]},
			{Kind: MatchOptional, Value: sym.NewBV(8, uint64(r.Intn(2))), Wildcard: r.Intn(2) == 0},
		},
		Action: []string{"allow", "deny"}[r.Intn(2)],
	}
	if r.Intn(8) == 0 { // a row that matches anything with this exact key
		e.Matches[1].Mask = sym.NewBV(16, 0)
		e.Matches[2].PrefixLen = 0
		e.Matches[3].Wildcard = true
	}
	return e
}

func checkActive(t *testing.T, cfg *Config, table, when string) {
	t.Helper()
	want, wantEclipsed := oracleActive(cfg.Analysis.Tables[table], cfg.Entries(table))
	got, gotEclipsed := cfg.ActiveEntries(table)
	if gotEclipsed != wantEclipsed || len(got) != len(want) {
		t.Fatalf("%s: %d active / %d eclipsed, oracle %d / %d", when, len(got), gotEclipsed, len(want), wantEclipsed)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: active[%d] is seq %d, oracle has seq %d", when, i, got[i].seq, want[i].seq)
		}
	}
}

// TestActiveEntriesMatchOracle drives insert / modify / delete sequences
// over a table mixing all four match kinds and checks the maintained
// list against the from-scratch oracle after every write — same
// entries, same order, same eclipsed count — and again after a State
// round trip, which rebuilds the lists in bulk.
func TestActiveEntriesMatchOracle(t *testing.T) {
	an := analyze(t, mixSrc)
	const table = "Mix.mix"
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := NewConfig(an)
		for step := 0; step < 300; step++ {
			installed := cfg.Entries(table)
			u := &Update{Kind: InsertEntry, Table: table, Entry: mixEntry(r)}
			// Bias towards inserts early and deletes late so the table
			// fills up and then drains.
			if n := len(installed); n > 0 && r.Intn(300) < 60+step/2 {
				victim := *installed[r.Intn(n)]
				u.Entry = &victim
				if u.Kind = DeleteEntry; r.Intn(3) == 0 {
					u.Kind = ModifyEntry
					victim.Action = []string{"allow", "deny"}[r.Intn(2)]
				}
			}
			if err := cfg.Apply(u); err != nil {
				continue // duplicate insert
			}
			checkActive(t, cfg, table, u.String())
			if u.Kind == ModifyEntry {
				found := false
				for _, e := range cfg.Entries(table) {
					found = found || (matchesEqual(e, u.Entry) && e.Action == u.Entry.Action)
				}
				if !found {
					t.Fatalf("seed %d step %d: modify did not install the new action", seed, step)
				}
			}
		}
		restored := NewConfig(an)
		if err := restored.SetState(cfg.State()); err != nil {
			t.Fatal(err)
		}
		checkActive(t, restored, table, "after SetState")
		got, _ := restored.ActiveEntries(table)
		want, _ := cfg.ActiveEntries(table)
		for i := range want {
			if got[i].seq != want[i].seq {
				t.Fatalf("seed %d: restored active[%d] is seq %d, live config has seq %d", seed, i, got[i].seq, want[i].seq)
			}
		}
	}
}

// TestActiveEntriesExactTable is the shape session tables have: every
// key exact, so one signature, one probe per write — including the same
// key installed at several priorities, where only the first is active.
func TestActiveEntriesExactTable(t *testing.T) {
	an := analyze(t, fig5Src)
	const table = "Ingress.port_table"
	r := rand.New(rand.NewSource(7))
	cfg := NewConfig(an)
	for step := 0; step < 400; step++ {
		e := exactEntry(uint64(r.Intn(24)), "noop")
		e.Priority = r.Intn(3)
		kind := InsertEntry
		if r.Intn(3) == 0 {
			kind = DeleteEntry
		}
		if cfg.Apply(&Update{Kind: kind, Table: table, Entry: e}) == nil {
			checkActive(t, cfg, table, kind.String())
		}
	}
	if st := cfg.tables[table]; len(st.sigs) != 1 {
		t.Fatalf("all-exact table holds %d signatures, want 1", len(st.sigs))
	}
}

// TestStateRejectsMalformedTables: match order is only total, and an
// installed entry only findable, if a table's entries are pairwise
// distinct and listed in strictly ascending sequence order — which
// State always produces.
func TestStateRejectsMalformedTables(t *testing.T) {
	an := analyze(t, fig5Src)
	cfg := NewConfig(an)
	for _, k := range []uint64{1, 2} {
		if err := cfg.Apply(&Update{Kind: InsertEntry, Table: "Ingress.port_table", Entry: exactEntry(k, "noop")}); err != nil {
			t.Fatal(err)
		}
	}
	st := cfg.State()
	st.Tables[0].Entries[1].Seq = st.Tables[0].Entries[0].Seq
	if err := NewConfig(an).SetState(st); err == nil {
		t.Fatal("SetState accepted two entries sharing a sequence number")
	}
	st = cfg.State()
	st.Tables[0].Entries[0], st.Tables[0].Entries[1] = st.Tables[0].Entries[1], st.Tables[0].Entries[0]
	if err := NewConfig(an).SetState(st); err == nil {
		t.Fatal("SetState accepted entries in descending sequence order")
	}
	st = cfg.State()
	st.Tables[0].Entries[1].Matches = st.Tables[0].Entries[0].Matches
	if err := NewConfig(an).SetState(st); err == nil {
		t.Fatal("SetState accepted the same match key twice")
	}
}

// TestSignatureBucketChain: entries share a bucket when they match the
// same packets at different priorities, or when their key hashes
// collide; force a three-entry chain, and take the chain apart from the middle,
// the head and the tail.
func TestSignatureBucketChain(t *testing.T) {
	s := &signature{byKey: make(map[uint64]*TableEntry)}
	es := make([]*TableEntry, 3)
	for i := range es {
		es[i] = &TableEntry{seq: i, sig: s, key: 42}
		link(es[i])
	}
	chain := func() (seqs []int) {
		for e := s.byKey[42]; e != nil; e = e.chain {
			seqs = append(seqs, e.seq)
		}
		return seqs
	}
	for _, step := range []struct {
		drop int
		want []int
	}{{1, []int{2, 0}}, {2, []int{0}}, {0, nil}} {
		unlink(es[step.drop])
		if got := chain(); !slices.Equal(got, step.want) {
			t.Fatalf("after unlinking %d: chain %v, want %v", step.drop, got, step.want)
		}
	}
	if len(s.byKey) != 0 {
		t.Fatalf("empty bucket left in the map: %v", s.byKey)
	}
}

package controlplane

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/sym"
)

// The reference the spine is checked against: the from-scratch chain
// build CompileTable ran on every call before chain.go — the miss
// assignment, then one ite per active entry from lowest to highest
// precedence, every match condition re-derived. Hash-consing makes
// "same expression" a pointer comparison, so the check is exact: on the
// same Builder, every placeholder of the spine's environment must be
// bound to the very node this loop returns.

func oracleTableEnv(c *Config, b *sym.Builder, table string) Env {
	ti := c.Analysis.Tables[table]
	active, _ := c.ActiveEntries(table)

	defIdx := ti.DefaultIndex
	defParams := ti.DefaultArgs
	if d, ok := c.defaults[table]; ok {
		defIdx = actionIndex(ti, d.Name)
		defParams = d.Params
	}

	sel := b.ConstUint(8, uint64(defIdx))
	hit := b.False()
	params := make(map[*sym.Expr]*sym.Expr)
	for ai := range ti.Actions {
		info := &ti.Actions[ai]
		for pi, pv := range info.Params {
			val := sym.BV{W: info.ParamWidths[pi]}
			if ai == defIdx && pi < len(defParams) {
				val = defParams[pi]
			}
			params[pv] = b.Const(val.ZeroExtend(info.ParamWidths[pi]))
		}
	}

	for i := len(active) - 1; i >= 0; i-- {
		e := active[i]
		m := entryCond(b, ti, e)
		ai := actionIndex(ti, e.Action)
		sel = b.Ite(m, b.ConstUint(8, uint64(ai)), sel)
		hit = b.Or(m, hit)
		info := &ti.Actions[ai]
		for pi, pv := range info.Params {
			params[pv] = b.Ite(m, b.Const(e.Params[pi]), params[pv])
		}
	}
	env := Env{ti.ActionVar: sel, ti.HitVar: hit}
	for pv, val := range params {
		env[pv] = val
	}
	return env
}

const spineSrc = `
header h_t { bit<8> a; bit<16> b; bit<32> c; bit<8> d; }
struct headers { h_t h; }
struct metadata { bit<9> port; bit<16> tag; bit<1> seen; }
control Spine(inout headers hdr, inout metadata meta, inout standard_metadata_t std) {
    action fwd(bit<9> port, bit<1> seen) { meta.port = port; meta.seen = seen; }
    action tag(bit<16> v) { meta.tag = v; }
    action deny() { mark_to_drop(std); }
    table t {
        key = { hdr.h.a: exact; hdr.h.b: ternary; hdr.h.c: lpm; hdr.h.d: optional; }
        actions = { fwd; tag; deny; }
        default_action = tag(7);
    }
    apply {
        t.apply();
    }
}
`

const spineTable = "Spine.t"

// choices turns a byte string into the stream's decisions, so the
// seeded test and the fuzz target drive one interpreter. An exhausted
// string answers zero, which ends the stream.
type choices struct {
	data []byte
	pos  int
}

func (c *choices) done() bool { return c.pos >= len(c.data) }

func (c *choices) intn(n int) int {
	if c.done() {
		return 0
	}
	v := int(c.data[c.pos]) % n
	c.pos++
	return v
}

// spineCall draws an action with parameters: a width-1 parameter among
// them, because a boolean ite folds into connectives instead of staying
// an ite.
func spineCall(c *choices) (string, []sym.BV) {
	switch c.intn(3) {
	case 0:
		return "fwd", []sym.BV{sym.NewBV(9, uint64(c.intn(4))), sym.NewBV(1, uint64(c.intn(2)))}
	case 1:
		return "tag", []sym.BV{sym.NewBV(16, uint64(c.intn(3)))}
	default:
		return "deny", nil
	}
}

// spineEntry draws from domains small enough that entries collide,
// eclipse each other and free each other again (mixEntry's shapes).
func spineEntry(c *choices) *TableEntry {
	e := &TableEntry{
		Priority: c.intn(3),
		Matches: []FieldMatch{
			{Kind: MatchExact, Value: sym.NewBV(8, uint64(c.intn(2)))},
			{Kind: MatchTernary, Value: sym.NewBV(16, uint64(c.intn(4))<<7), Mask: sym.NewBV(16, []uint64{0, 0xff00, 0x00ff, 0xffff}[c.intn(4)])},
			{Kind: MatchLPM, Value: sym.NewBV(32, uint64(c.intn(4))<<29), PrefixLen: []int{0, 1, 3, 32}[c.intn(4)]},
			{Kind: MatchOptional, Value: sym.NewBV(8, uint64(c.intn(2))), Wildcard: c.intn(2) == 0},
		},
	}
	e.Action, e.Params = spineCall(c)
	if c.intn(8) == 0 { // a row that matches anything with this exact key
		e.Matches[1].Mask = sym.NewBV(16, 0)
		e.Matches[2].PrefixLen = 0
		e.Matches[3].Wildcard = true
	}
	return e
}

func sameEnv(t *testing.T, when string, got, want Env) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: environment binds %d placeholders, oracle %d", when, len(got), len(want))
	}
	for k, w := range want {
		if g := got[k]; g != w {
			t.Fatalf("%s: %s bound to\n  %s\noracle builds\n  %s", when, k, g, w)
		}
	}
}

// runChainStream interprets data as a stream of writes — insert, modify,
// delete, set-default, drawn so that entries eclipse and free each
// other — with one to eight of them between two compiles, and between
// compiles pins and unpins the table, moves the threshold across the
// entry count both ways, switches Builders and sweeps the current one
// with the spine's own report as the only roots beyond the schema. Every
// environment CompileTable and CompileTablePrecise return must be
// pointer-equal to the from-scratch build on the same Builder.
func runChainStream(t *testing.T, data []byte) {
	an := analyze(t, spineSrc)
	ti := an.Tables[spineTable]
	cfg := NewConfig(an)
	cfg.OverapproxThreshold = 12
	builders := []*sym.Builder{an.Builder, sym.NewBuilder()}
	b := builders[0]
	c := &choices{data: data}
	schema := append([]*sym.Expr{ti.ActionVar, ti.HitVar}, ti.KeyExprs...)
	for _, ai := range ti.Actions {
		schema = append(schema, ai.Params...)
	}

	for step := 0; !c.done(); step++ {
		for w := 1 + c.intn(8); w > 0 && !c.done(); w-- {
			installed := cfg.Entries(spineTable)
			u := &Update{Kind: InsertEntry, Table: spineTable}
			switch k := c.intn(8); {
			case k == 0:
				u.Kind = SetDefault
				u.Default.Name, u.Default.Params = spineCall(c)
			case k <= 3 && len(installed) > 0:
				victim := *installed[c.intn(len(installed))]
				u.Entry = &victim
				if u.Kind = DeleteEntry; k == 3 {
					u.Kind = ModifyEntry
					victim.Action, victim.Params = spineCall(c)
				}
			default:
				u.Entry = spineEntry(c)
			}
			_ = cfg.Apply(u) // a duplicate insert is rejected and changes nothing
		}
		switch c.intn(12) {
		case 0:
			cfg.ForceOverapprox(spineTable, !cfg.ForcedOverapprox(spineTable))
		case 1:
			cfg.OverapproxThreshold = []int{4, 12, -1}[c.intn(3)]
		case 2:
			b = builders[c.intn(2)]
		case 3:
			// Only the analysis' own Builder: the other one interns over
			// foreign key expressions, whose ids a sweep of either side
			// reorders against its own — a state no engine produces.
			if b == an.Builder {
				b.Sweep(cfg.ChainExprs(append([]*sym.Expr(nil), schema...)))
			}
		}

		st := cfg.tables[spineTable]
		var held *chain
		stale := 0
		if st != nil && st.chain != nil {
			held, stale = st.chain, st.chain.stale
		}
		precise, pstats, err := cfg.CompileTablePrecise(b, spineTable)
		if err != nil {
			t.Fatal(err)
		}
		if st != nil && (st.chain != held || (held != nil && held.stale != stale)) {
			t.Fatalf("step %d: CompileTablePrecise changed the spine", step)
		}
		if !pstats.Overapproximate {
			sameEnv(t, "CompileTablePrecise", precise, oracleTableEnv(cfg, b, spineTable))
		}

		env, stats, err := cfg.CompileTable(b, spineTable)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Overapproximate != cfg.Overapproximated(spineTable) {
			t.Fatalf("step %d: compiled overapproximate=%v, configuration says %v",
				step, stats.Overapproximate, cfg.Overapproximated(spineTable))
		}
		if st = cfg.tables[spineTable]; st == nil {
			continue // nothing was ever installed: no state, no spine
		}
		if stats.Overapproximate {
			if st.chain != nil {
				t.Fatalf("step %d: an overapproximated table holds a spine", step)
			}
			continue
		}
		sameEnv(t, "CompileTable", env, oracleTableEnv(cfg, b, spineTable))
		if st.chain == nil || st.chain.b != b || st.chain.stale != 0 || len(st.chain.links) != len(st.active)+1 {
			t.Fatalf("step %d: spine not current after a precise compile", step)
		}
	}
}

func TestChainMatchesFreshBuild(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		data := make([]byte, 4000)
		rand.New(rand.NewSource(seed)).Read(data)
		runChainStream(t, data)
	}
}

func FuzzChainMatchesFresh(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The oracle rebuilds the whole chain at every step: bound the
		// stream so one input stays milliseconds, not minutes.
		runChainStream(t, data[:min(len(data), 4096)])
	})
}

// TestSpineIsLazyAndDropped: no spine exists before a table first
// compiles precisely, writes to a table that compiles "*any*" leave
// none behind, and a pin or a threshold crossing drops the one that was
// there.
func TestSpineIsLazyAndDropped(t *testing.T) {
	an := analyze(t, fig5Src)
	const table = "Ingress.port_table"
	b := an.Builder
	cfg := NewConfig(an)
	cfg.OverapproxThreshold = 4
	insert := func(k uint64) {
		t.Helper()
		if err := cfg.Apply(&Update{Kind: InsertEntry, Table: table, Entry: exactEntry(k, "noop")}); err != nil {
			t.Fatal(err)
		}
	}
	compile := func() {
		t.Helper()
		if _, _, err := cfg.CompileTable(b, table); err != nil {
			t.Fatal(err)
		}
	}
	links := func() int {
		if ch := cfg.tables[table].chain; ch != nil {
			return len(ch.links)
		}
		return 0
	}

	insert(1)
	insert(2)
	if links() != 0 {
		t.Fatal("a table that never compiled holds a spine")
	}
	compile()
	if links() != 3 {
		t.Fatalf("spine holds %d links after a precise compile of 2 entries, want 3", links())
	}
	cfg.ForceOverapprox(table, true)
	compile()
	if links() != 0 || len(cfg.ChainExprs(nil)) != 0 {
		t.Fatal("a pinned table still holds a spine")
	}
	insert(3)
	if links() != 0 {
		t.Fatal("a write to a pinned table built a spine")
	}
	cfg.ForceOverapprox(table, false)
	compile()
	if links() != 4 {
		t.Fatalf("spine holds %d links after unpinning at 3 entries, want 4", links())
	}
	insert(4)
	insert(5) // over the threshold of 4
	compile()
	if links() != 0 {
		t.Fatal("a table over the threshold still holds a spine")
	}
}

// TestStaleMarkMovesWithSlice: with several writes between two compiles
// the mark must follow the links as they shift — an insert below it
// grows it, a delete below it shrinks it — so the next compile rebuilds
// the links the writes reached, no fewer (a link handed out as fresh
// that was never built) and no more. Counted by cp.chain_links_rebuilt.
func TestStaleMarkMovesWithSlice(t *testing.T) {
	an := analyze(t, aclSrc)
	const table = "Acl.acl"
	entry := func(priority int) *TableEntry {
		return &TableEntry{
			Priority: priority,
			Matches: []FieldMatch{
				{Kind: MatchTernary, Value: sym.NewBV(32, uint64(priority)), Mask: sym.AllOnes(32)},
				{Kind: MatchLPM, Value: sym.NewBV(32, 0x0a000000), PrefixLen: 8},
			},
			Action: "allow",
		}
	}
	for _, tc := range []struct {
		name   string
		writes []Update // Entry priorities name the rank: installed are 10, 20, … 100
		want   int64    // links the next compile rebuilds
	}{
		{"insert at rank 5, then above the chain", []Update{
			{Kind: InsertEntry, Entry: entry(55)}, {Kind: InsertEntry, Entry: entry(200)}}, 7},
		{"insert at rank 5, then delete the head", []Update{
			{Kind: InsertEntry, Entry: entry(55)}, {Kind: DeleteEntry, Entry: entry(100)}}, 5},
		{"insert above the chain and take it out again", []Update{
			{Kind: InsertEntry, Entry: entry(200)}, {Kind: DeleteEntry, Entry: entry(200)}}, 0},
		{"modify rank 3, then delete rank 7", []Update{
			{Kind: ModifyEntry, Entry: entry(70)}, {Kind: DeleteEntry, Entry: entry(30)}}, 7},
		{"delete the tail, then insert below the chain", []Update{
			{Kind: DeleteEntry, Entry: entry(10)}, {Kind: InsertEntry, Entry: entry(5)}}, 10},
		{"set-default", []Update{
			{Kind: SetDefault, Default: ActionCall{Name: "deny"}}}, 10},
	} {
		reg := obs.NewRegistry()
		cfg := NewConfig(an)
		cfg.SetObserver(reg)
		for p := 10; p <= 100; p += 10 {
			if err := cfg.Apply(&Update{Kind: InsertEntry, Table: table, Entry: entry(p)}); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := cfg.CompileTable(an.Builder, table); err != nil {
			t.Fatal(err)
		}
		rebuilt := reg.Counter("cp.chain_links_rebuilt")
		if got := rebuilt.Value(); got != 10 {
			t.Fatalf("first compile of 10 entries rebuilt %d links", got)
		}
		for i := range tc.writes {
			u := tc.writes[i]
			u.Table = table
			if err := cfg.Apply(&u); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		env, _, err := cfg.CompileTable(an.Builder, table)
		if err != nil {
			t.Fatal(err)
		}
		if got := rebuilt.Value() - 10; got != tc.want {
			t.Errorf("%s: rebuilt %d links, want %d", tc.name, got, tc.want)
		}
		sameEnv(t, tc.name, env, oracleTableEnv(cfg, an.Builder, table))
		if got, want := reg.Gauge("cp.chain_links").Value(), int64(len(cfg.tables[table].active)); got != want {
			t.Errorf("%s: cp.chain_links = %d with %d active entries", tc.name, got, want)
		}
	}
}

// TestRebuildKeepsMatchConditions: whatever a write makes a compile
// rebuild, the match condition of an entry that stays in the chain is
// built once — a tail insert rebuilds every link and derives one
// condition, the new entry's; a modify derives none.
func TestRebuildKeepsMatchConditions(t *testing.T) {
	an := analyze(t, spineSrc)
	cfg := NewConfig(an)
	c := &choices{data: make([]byte, 400)}
	rand.New(rand.NewSource(3)).Read(c.data)
	for len(cfg.Entries(spineTable)) < 8 {
		e := spineEntry(c)
		e.Priority += 10
		_ = cfg.Apply(&Update{Kind: InsertEntry, Table: spineTable, Entry: e})
	}
	compile := func() {
		t.Helper()
		if _, _, err := cfg.CompileTable(an.Builder, spineTable); err != nil {
			t.Fatal(err)
		}
	}
	compile()
	st := cfg.tables[spineTable]
	conds := func() map[*TableEntry]*sym.Expr {
		m := make(map[*TableEntry]*sym.Expr)
		for i, e := range st.active {
			m[e] = st.chain.links[i].cond
		}
		return m
	}

	before := conds()
	tail := spineEntry(c)
	tail.Priority = 0
	tail.Matches[0].Value = sym.NewBV(8, 77) // no installed entry covers it
	if err := cfg.Apply(&Update{Kind: InsertEntry, Table: spineTable, Entry: tail}); err != nil {
		t.Fatal(err)
	}
	if n := len(st.active); st.active[n-1].Priority != 0 || st.chain.stale != n {
		t.Fatalf("tail insert: entry not last or %d of %d links stale", st.chain.stale, n)
	}
	unbuilt := 0
	for i, e := range st.active {
		if l := st.chain.links[i]; l.cond == nil {
			unbuilt++
		} else if l.cond != before[e] {
			t.Fatalf("link %d changed its condition across a tail insert", i)
		}
	}
	if unbuilt != 1 {
		t.Fatalf("%d links await a condition after one insert", unbuilt)
	}
	compile()

	kept := make([]*sym.Expr, len(st.active))
	for i := range kept {
		kept[i] = st.chain.links[i].cond
	}
	mid := len(st.active) / 2
	victim := *st.active[mid]
	victim.Action, victim.Params = "deny", nil
	if err := cfg.Apply(&Update{Kind: ModifyEntry, Table: spineTable, Entry: &victim}); err != nil {
		t.Fatal(err)
	}
	if st.chain.stale != mid+1 {
		t.Fatalf("modify at rank %d left %d links stale", mid, st.chain.stale)
	}
	for i := range kept {
		if st.chain.links[i].cond != kept[i] {
			t.Fatalf("link %d changed its condition across a modify", i)
		}
	}
	compile()
	sameEnv(t, "after modify", cfg.tables[spineTable].chain.env(an.Tables[spineTable]), oracleTableEnv(cfg, an.Builder, spineTable))
}

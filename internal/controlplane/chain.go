package controlplane

import (
	"slices"

	"repro/internal/dataplane"
	"repro/internal/sym"
)

// The persistent ite spine. A precisely compiled table's assignment is a
// chain of ites over its active entries, highest precedence outermost
// (Fig. 5b). Hash-consing already shares every unchanged suffix of that
// chain between two compiles; what a from-scratch build pays for is
// walking back down to it — re-interning the match condition and the
// three-plus-parameters nodes of every entry below the one that changed.
// The spine keeps the walk's intermediate results instead: one link per
// active entry, holding the entry's match condition and the assignment
// of the suffix that starts at it, plus a base link for the miss
// behaviour. A write invalidates the links above the entry it touched
// and a compile rebuilds exactly those, bottom up, over the links that
// stand. Each rebuilt link makes the same Builder calls the from-scratch
// loop made for that entry (chain_oracle_test.go keeps the loop), on the
// same operands, so the head link is pointer-identical to a fresh build
// and nothing downstream can tell the difference.
//
// Four invariants keep that true:
//
//   - The spine is lazy and gone when not needed. It appears when a table
//     first compiles precisely and is dropped the moment the table
//     compiles to "*any*" (over threshold or pinned), so a write to an
//     overapproximated table pays one nil check and holds nothing. A
//     spine built on another Builder is discarded, never mixed.
//   - The stale count moves with the slice. Links are spliced by the same
//     two helpers that splice the active list (active.go); an insert
//     below the stale mark grows it and a delete there shrinks it, so
//     several writes between two compiles compose.
//   - Everything a link holds is an arena root. A sweep reassigns ids and
//     un-interns what it cannot reach, and the spine is not always
//     reachable from the environment last read off it (a suffix
//     assignment a simplification folded out of the head; links written
//     to but not compiled since — a caller that sweeps between write
//     and compile, or stopped compiling); exprs reports every held
//     expression. Of a stale link only the condition counts: its
//     assignment is never read, never reported, and overwritten by the
//     next rebuild.
//   - Only CompileTable stores. CompileTablePrecise runs under the
//     engine's read lock, possibly from several goroutines: it reads a
//     fresh spine, otherwise it builds on a private one and keeps
//     nothing.

// chainLink is one link of the spine: the match condition of active[i]
// and the assignment of the suffix active[i:] — what one iteration of
// the chain build produces from the link below.
type chainLink struct {
	cond     *sym.Expr   // nil until first built, and on the base link
	sel, hit *sym.Expr   // selector and hit placeholder values
	params   []*sym.Expr // parameter placeholder values, by slot
}

// chain is a table's spine: links[i] belongs to active[i] and the last
// link is the miss behaviour. links[:stale] await a rebuild.
type chain struct {
	b     *sym.Builder
	links []chainLink
	stale int
	// slot[ai] is the parameter slot of action ai's first parameter;
	// slot[len(actions)] is the slot count.
	slot []int
}

func newChain(b *sym.Builder, ti *dataplane.TableInfo, entries int) *chain {
	ch := &chain{b: b, links: make([]chainLink, entries+1), stale: entries + 1}
	ch.slot = make([]int, len(ti.Actions)+1)
	for ai := range ti.Actions {
		ch.slot[ai+1] = ch.slot[ai] + len(ti.Actions[ai].Params)
	}
	return ch
}

// touch invalidates the links that depend on link i: itself and
// everything above it. Their conditions stand.
func (ch *chain) touch(i int) {
	ch.stale = max(ch.stale, i+1)
}

// insert opens an unbuilt link at i, for an entry spliced into the
// active list there.
func (ch *chain) insert(i int) {
	ch.links = slices.Insert(ch.links, i, chainLink{})
	if i < ch.stale {
		ch.stale++ // the mark counts links, and one more sits under it
	}
	ch.touch(i)
}

// remove takes out link i, for an entry leaving the active list.
func (ch *chain) remove(i int) {
	ch.links = slices.Delete(ch.links, i, i+1)
	if i < ch.stale {
		ch.stale--
	}
	ch.touch(i - 1)
}

// rebuild brings the stale links up to date over the ones that stand,
// lowest precedence first, and returns how many entry links it built.
// active is the table's active list; defIdx and defParams are the miss
// behaviour.
func (ch *chain) rebuild(ti *dataplane.TableInfo, active []*TableEntry, defIdx int, defParams []sym.BV) int {
	b, n := ch.b, len(active)
	if ch.stale > n {
		ch.links[n] = baseLink(b, ti, defIdx, defParams, ch.slot[len(ti.Actions)])
	}
	built := min(ch.stale, n)
	for i := built - 1; i >= 0; i-- {
		l, below, e := &ch.links[i], &ch.links[i+1], active[i]
		if l.cond == nil {
			l.cond = entryCond(b, ti, e)
		}
		ai := actionIndex(ti, e.Action)
		l.sel = b.Ite(l.cond, b.ConstUint(8, uint64(ai)), below.sel)
		l.hit = b.Or(l.cond, below.hit)
		l.params = append(l.params[:0], below.params...)
		for pi := range ti.Actions[ai].Params {
			s := ch.slot[ai] + pi
			l.params[s] = b.Ite(l.cond, b.Const(e.Params[pi]), below.params[s])
		}
	}
	ch.stale = 0
	return built
}

// baseLink is the assignment of an empty suffix: the default action
// (possibly overridden), a miss, and each parameter's fallback — the
// default action's bound argument when this is the default action, else
// zero (the value is irrelevant unless the selector picks the action).
func baseLink(b *sym.Builder, ti *dataplane.TableInfo, defIdx int, defParams []sym.BV, slots int) chainLink {
	l := chainLink{sel: b.ConstUint(8, uint64(defIdx)), hit: b.False()}
	if slots > 0 {
		l.params = make([]*sym.Expr, 0, slots)
	}
	for ai := range ti.Actions {
		info := &ti.Actions[ai]
		for pi := range info.Params {
			val := sym.BV{W: info.ParamWidths[pi]}
			if ai == defIdx && pi < len(defParams) {
				val = defParams[pi]
			}
			l.params = append(l.params, b.Const(val.ZeroExtend(info.ParamWidths[pi])))
		}
	}
	return l
}

// env renders the head link as the table's substitution environment.
func (ch *chain) env(ti *dataplane.TableInfo) Env {
	head := &ch.links[0]
	env := make(Env, 2+len(head.params))
	env[ti.ActionVar] = head.sel
	env[ti.HitVar] = head.hit
	for ai := range ti.Actions {
		for pi, pv := range ti.Actions[ai].Params {
			env[pv] = head.params[ch.slot[ai]+pi]
		}
	}
	return env
}

// exprs appends every expression the spine holds: the condition of
// every link that has one, and the assignments of the links that stand.
func (ch *chain) exprs(out []*sym.Expr) []*sym.Expr {
	for i := range ch.links {
		l := &ch.links[i]
		if l.cond != nil {
			out = append(out, l.cond)
		}
		if i >= ch.stale {
			out = append(out, l.sel, l.hit)
			out = append(out, l.params...)
		}
	}
	return out
}

// ChainExprs appends every expression the tables' spines hold (chain.go)
// to out. Whoever sweeps the Builder the spines were built on must count
// them among the roots: a spine is not always reachable from the last
// environment CompileTable returned.
func (c *Config) ChainExprs(out []*sym.Expr) []*sym.Expr {
	for _, t := range c.tables {
		if t.chain != nil {
			out = t.chain.exprs(out)
		}
	}
	return out
}

// entryCond is the match condition of one entry against the table's
// symbolic key expressions.
func entryCond(b *sym.Builder, ti *dataplane.TableInfo, e *TableEntry) *sym.Expr {
	cond := b.True()
	for i, m := range e.Matches {
		key := ti.KeyExprs[i]
		w := ti.KeyWidths[i]
		mask := m.ternaryMask(w)
		switch {
		case mask.IsZero():
			// Wildcard component: matches everything.
		case mask.IsAllOnes():
			cond = b.And(cond, b.Eq(key, b.Const(m.Value)))
		default:
			masked := b.And(key, b.Const(mask))
			cond = b.And(cond, b.Eq(masked, b.Const(m.Value.And(mask))))
		}
	}
	return cond
}

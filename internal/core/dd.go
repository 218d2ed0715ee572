// The decision-diagram query core (internal/dd) integration: per-point
// conditions compile into a canonical ordered decision diagram over
// match-key predicates, so re-evaluating a point after an update is a
// near-O(1) diagram walk instead of an enumeration of the residue's
// domain. The diagram path serves exactly the residues the solver can
// decide — those whose free variables fit sym.DefaultExhaustiveBits;
// the width rule in queryAny (specializer.go) answers everything wider
// before a diagram is ever compiled — and inside that bound it is a
// pure accelerator with a hard behavioural contract: every verdict it
// installs is the verdict the solver's enumeration would have installed
// (the differential suite in dddiff_test.go holds it to that on the
// whole catalog), and any query it cannot decide within budget falls
// through to the solver. Structure is shared three ways: hash-consing
// dedups across the points of one pass, the per-worker compile memo
// dedups across updates (an incremental update re-compiles only the
// changed region of a residue), and the fixed taint-frequency variable
// order keeps equal conditions pointer-equal across points.
//
// Lifecycle hooks, mirroring the existing machinery exactly:
//
//   - a root lives exactly as long as the residue it was compiled from:
//     evalPointWith drops it the moment the point's substituted pointer
//     changes (specializer.go), whatever then answers the new residue;
//   - epoch publication carries the diagram store and per-point roots
//     copy-on-write, so Explain is wait-free on every point that holds
//     a root (epoch.go); a width-decided point holds none, and Explain
//     compiles its residue on demand under the read lock;
//   - the residue backing a live root is the point's pointSub entry,
//     an arena root, and the per-worker memos (keyed on hash-consed
//     expression pointers) are discarded when the arena is swept
//     (arena.go);
//   - snapshots persist the variable order only; diagrams are rebuilt,
//     not serialized (snapshot.go).
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/dd"
	"repro/internal/sym"
)

const (
	// ddWalkBudget bounds the node visits of one feasibility walk. The
	// catalog's worst residues are entry-match ite chains whose walks
	// visit O(entries) nodes, so the budget clears multi-thousand-entry
	// precise tables; a blown budget falls back to the solver.
	ddWalkBudget = 1 << 14
	// ddSweepFactor/ddSweepFloor arm the diagram-store rebuild the same
	// way the expression arena's trigger works: rebuild when the store
	// grows past factor × the post-rebuild size. Old stores stay alive
	// as long as a published epoch references them.
	ddSweepFactor = 4
	ddSweepFloor  = 1 << 15
	// ddCompileBudget bounds one root compile at update rate. The cap
	// is deliberately far below the dd package's own limit: a residue
	// that cannot compile in ~16k steps is recompiled on every update
	// it survives (priority-chain ACL residues change wholesale when
	// an entry lands), so burning a large budget per update costs more
	// than the solver fallback it replaces. Each consecutive strike
	// halves the next attempt's budget down to ddCompileFloor.
	ddCompileBudget = 1 << 14
	ddCompileFloor  = 1 << 10
	// ddMaxSkip caps the exponential backoff window: a point whose
	// residues keep blowing the budget retries at most every
	// ddMaxSkip-th residue change rather than never, so a table that
	// shrinks back into compilable range is eventually re-adopted.
	ddMaxSkip = 256
)

// ddRoot is one point's compiled condition — compiled from the point's
// pointSub entry, the hash-consed residue, and dropped when that
// changes. node is nil when the point holds no diagram: the residue is
// outside the diagram fragment, or something else answered it; vars are
// the residue's free variables (walk assignments are completed over
// them into witnesses) and bits their total width — at most
// sym.DefaultExhaustiveBits, since only residues inside the bound get a
// root.
type ddRoot struct {
	node *dd.Node
	vars []*sym.Expr
	bits int
	// strikes/skip are the compile-backoff state: strikes counts
	// consecutive attempts that blew (or nearly blew) their budget,
	// skip is the number of future residue changes to sit out before
	// trying again. Both survive invalidation — the whole point is
	// remembering across updates that this point's conditions are too
	// expensive to rebuild at update rate.
	strikes int
	skip    int
}

// ddCore is the engine-side state of the diagram query core. roots is
// indexed by point ID and written only by the point's owning worker
// during a pass (the same race-freedom argument as pointSub); the
// store pointer is atomic so wait-free readers (Statistics) can sample
// node counts while a rebuild swaps it under the write lock.
type ddCore struct {
	store    atomic.Pointer[dd.Store]
	atomVars []*sym.Expr // atom index → data-plane variable node
	roots    []ddRoot
	// rootsDirty marks that a worker recompiled or dropped a root since
	// the last publication; publish() then re-copies the root slice
	// (copy-on-write, like the verdict slice).
	rootsDirty atomic.Bool
	baseline   int // store size that arms the next rebuild

	// Verdicts answered on the diagram path are counted by queryAny's
	// dispatch (answeredBy[byDD]).
	fallbacks atomic.Int64 // queries that reached the diagram stage and were punted to the solver
	compiles  atomic.Int64 // root compilations
}

// ddEpoch is the published read-state: the store (immutable for
// readers — nodes never mutate and the atom table is copy-on-write)
// and the per-point roots frozen at publication. Sweep-safe by the
// same argument as the rest of the epoch: nothing in it is compared
// against builder state; Explain walks diagram nodes, which reference
// atoms by index and constants by value, never *sym.Expr.
type ddEpoch struct {
	store *dd.Store
	roots []*dd.Node
}

// newDDCore builds the diagram core for a freshly analyzed program:
// it derives the variable order and registers every atom the residues
// can mention. Data-plane variables are ordered by taint frequency —
// how many program points test them — most-frequent first (ties by
// name), so the hottest match keys sit near the root and cross-point
// sharing is maximal. Variables that only appear through assignments
// (table keys, value-set keys, register read sites) follow, in
// deterministic name order. order, when non-nil, is a persisted
// variable order from a snapshot and is registered verbatim instead —
// a resumed engine must walk its diagrams in the exact order the
// snapshotting engine used, or the rebuilt witnesses would diverge.
func newDDCore(an *dataplane.Analysis, order []dd.Atom) *ddCore {
	d := &ddCore{roots: make([]ddRoot, len(an.Points))}
	st := dd.NewStore()
	d.store.Store(st)
	vars := make(map[string]*sym.Expr)
	if order != nil {
		b := an.Builder
		for _, a := range order {
			v := b.Data(a.Name, a.Width)
			d.register(st, v)
		}
		return d
	}
	counts := make(map[string]int)
	seen := make(map[*sym.Expr]bool)
	perPoint := make(map[*sym.Expr]bool)
	for _, p := range an.Points {
		clear(perPoint)
		collectDataVars(p.Expr, seen, func(v *sym.Expr) {
			if !perPoint[v] {
				perPoint[v] = true
				counts[v.Name]++
				vars[v.Name] = v
			}
		})
		clear(seen)
	}
	collect := func(e *sym.Expr) {
		collectDataVars(e, seen, func(v *sym.Expr) {
			if _, ok := counts[v.Name]; !ok {
				counts[v.Name] = 0
				vars[v.Name] = v
			}
		})
	}
	for _, name := range sortedNames(an.Tables) {
		for _, e := range an.Tables[name].KeyExprs {
			collect(e)
		}
	}
	for _, name := range sortedNames(an.ValueSets) {
		collect(an.ValueSets[name].KeyExpr)
	}
	for _, name := range sortedNames(an.Registers) {
		for _, rv := range an.Registers[name].ReadVars {
			collect(rv)
		}
	}
	for _, name := range dd.SortAtomsByCount(counts) {
		d.register(st, vars[name])
	}
	return d
}

// register adds one data variable as an atom, keeping the atom-index →
// variable-node mirror in step.
func (d *ddCore) register(st *dd.Store, v *sym.Expr) {
	id := st.Register(v.Name, v.Width)
	for int(id) >= len(d.atomVars) {
		d.atomVars = append(d.atomVars, nil)
	}
	d.atomVars[id] = v
}

// ensureAtoms registers any data variable of a freshly compiled
// assignment fragment that the open-time derivation did not see —
// overapproximated tables and register refills substitute fresh
// unconstrained data variables, which must become atoms before a
// residue mentioning them compiles. recompileTarget calls it for those
// fragments only (a precise fragment is built from key expressions
// registered at open, and walking its whole entry chain on every update
// to find nothing was a cost that grew with the table), serially under
// the engine write lock, so the append order — and with it the variable
// order — stays deterministic for a given update sequence.
func (d *ddCore) ensureAtoms(frag controlplane.Env) {
	st := d.store.Load()
	keys := make([]*sym.Expr, 0, len(frag))
	for k := range frag {
		keys = append(keys, k)
	}
	sortExprsByName(keys)
	seen := make(map[*sym.Expr]bool)
	for _, k := range keys {
		collectDataVars(frag[k], seen, func(v *sym.Expr) {
			if !st.Has(v.Name) {
				d.register(st, v)
			}
		})
	}
}

// invalidate drops one point's diagram root, keeping its compile-backoff
// state. evalPointWith calls it for exactly the points whose residue
// changed.
func (d *ddCore) invalidate(id int) {
	r := &d.roots[id]
	if r.node == nil {
		return
	}
	d.roots[id] = ddRoot{strikes: r.strikes, skip: r.skip}
	d.rootsDirty.Store(true)
}

// rootFor compiles (through the worker's memo) the diagram root of a
// point whose residue just changed — evalPointWith dropped the previous
// root. ok=false means the residue is outside the diagram fragment.
func (s *Specializer) rootFor(sh *evalShard, id int, sub *sym.Expr) (*dd.Node, *ddRoot, bool) {
	d := s.ddc
	r := &d.roots[id]
	// Backoff window: this point's last compiles blew their budget, so
	// it sits out skip residue changes on the solver path before the
	// next (cheaper) attempt. A memo hit below never strikes, so a
	// point cycling through a bounded residue set — the steady churn
	// shape — pays for each distinct residue once and then reads the
	// memo forever.
	if r.skip > 0 {
		r.skip--
		return nil, r, false
	}
	limit := ddCompileBudget >> r.strikes
	if limit < ddCompileFloor {
		limit = ddCompileFloor
	}
	n, used, ok := sh.ddCtx(d.store.Load()).CompileBudget(sub, limit)
	strikes, skip := r.strikes, 0
	if ok && used < limit/2 {
		strikes = 0
	} else {
		// Failed, or succeeded while consuming most of the budget —
		// either way this residue family is too expensive to rebuild
		// on every update.
		if strikes < 16 {
			strikes++
		}
		skip = min(1<<strikes, ddMaxSkip)
	}
	*r = ddRoot{strikes: strikes, skip: skip}
	if ok {
		r.node = n
		r.vars = sh.solver.FreeVars(sub)
		for _, v := range r.vars {
			r.bits += int(v.Width)
		}
		d.rootsDirty.Store(true)
	}
	d.compiles.Add(1)
	return r.node, r, ok
}

// ddQuery is the diagram stage of queryAny: it answers the query on the
// point's compiled root, or reports ok=false when the residue has to go
// to the solver — the root did not compile, the walk ran out of budget,
// or the point sits under a degraded target. A degraded target's
// residue is deliberately overapproximated — replaced wholesale on
// every update, the opposite of the stable precise conditions the
// diagram compiles compactly — so attempting those compiles would burn
// the budget per point per update for nothing; the differential check
// and promotion already re-prove degraded verdicts precisely.
func (s *Specializer) ddQuery(sh *evalShard, p *dataplane.Point, sub *sym.Expr) (v Verdict, ok bool) {
	if !s.underDegraded(p.ID) {
		// bits == 0 is a closed term the simplifier left unfolded: the
		// solver's single evaluation decides it.
		if root, r, compiled := s.rootFor(sh, p.ID, sub); compiled && r.bits > 0 {
			if constQuery(p.Kind) {
				v, ok = s.ddConst(sh, sub, root, r)
			} else {
				v, ok = s.ddExec(sh, p.ID, sub, root, r)
			}
		}
	}
	if !ok {
		s.ddc.fallbacks.Add(1)
	}
	return v, ok
}

func (s *Specializer) underDegraded(id int) bool {
	if len(s.degraded) == 0 {
		return false
	}
	for _, t := range s.pointDeps[id] {
		if _, deg := s.degraded[t]; deg {
			return true
		}
	}
	return false
}

// ddExec answers an executability query on the diagram. The residue is
// inside the exhaustive bound (queryAny's width rule), so the verdict
// contract with the solver path (CheckWitness) is exact:
//
//   - a True root, a working witness, or a feasible true-path is Live
//     (the solver answers Sat);
//   - a proof that no feasible true-path exists is Dead (the solver's
//     enumeration would have come up empty);
//   - anything the walk cannot decide within budget goes to the
//     solver.
//
// Fresh witnesses are verified against the residue before
// installation, so the walk can never plant a lying hint.
func (s *Specializer) ddExec(sh *evalShard, id int, sub *sym.Expr, root *dd.Node, r *ddRoot) (Verdict, bool) {
	d := s.ddc
	// Witness re-proof: one path walk, O(path) instead of a residue
	// traversal. A hint that still satisfies keeps the point Live with
	// the same witness the solver path would have kept.
	if hint := s.witnesses[id]; len(hint) > 0 {
		if v, done := dd.EvalNode(root, d.hintGetter(hint)); done && v.IsTrue() {
			return Verdict{Kind: VerdictLive}, true
		}
	}
	if root.IsTrue() {
		s.witnesses[id] = zerosEnv(r.vars)
		return Verdict{Kind: VerdictLive}, true
	}
	if root.IsFalse() {
		return Verdict{Kind: VerdictDead}, true
	}
	asg, out := dd.Sat(root, d.store.Load().Atoms(), ddWalkBudget)
	switch out {
	case dd.SatYes:
		env := d.envOf(asg, r.vars)
		if v, done := sh.solver.Eval(sub, env); done && v.IsTrue() {
			s.witnesses[id] = env
			return Verdict{Kind: VerdictLive}, true
		}
		// The walk and the evaluator disagree — never trust the walk
		// over the evaluator; take the solver path.
	case dd.SatNo:
		return Verdict{Kind: VerdictDead}, true
	}
	return Verdict{}, false
}

// ddConst answers a constancy query on the diagram, with the same
// verdict contract against ConstValue: a uniform diagram is Const (the
// solver's enumeration certifies it), two verified differing
// evaluations are Varies (the solver's refutation), and everything else
// goes to the solver.
func (s *Specializer) ddConst(sh *evalShard, sub *sym.Expr, root *dd.Node, r *ddRoot) (Verdict, bool) {
	d := s.ddc
	if root.IsTerminal() {
		return Verdict{Kind: VerdictConst, Val: root.Value()}, true
	}
	val, ea, eb, out := dd.ConstCheck(root, d.store.Load().Atoms(), ddWalkBudget)
	switch out {
	case dd.ConstVaries:
		envA, envB := d.envOf(ea, r.vars), d.envOf(eb, r.vars)
		va, okA := sh.solver.Eval(sub, envA)
		vb, okB := sh.solver.Eval(sub, envB)
		if okA && okB && va != vb {
			return Verdict{Kind: VerdictVaries}, true
		}
	case dd.ConstUniform:
		return Verdict{Kind: VerdictConst, Val: val}, true
	}
	return Verdict{}, false
}

// hintGetter adapts a residue witness (keyed by variable node) to the
// diagram's atom indexing.
func (d *ddCore) hintGetter(hint sym.Env) func(int32) (sym.BV, bool) {
	return func(a int32) (sym.BV, bool) {
		if int(a) >= len(d.atomVars) || d.atomVars[a] == nil {
			return sym.BV{}, false
		}
		v, ok := hint[d.atomVars[a]]
		return v, ok
	}
}

// envOf completes a walk assignment into a full residue witness:
// walk-constrained atoms take their walked values, every other free
// variable is zero (any value preserves the walked path — the path's
// predicates only test constrained atoms).
func (d *ddCore) envOf(asg map[int32]sym.BV, vars []*sym.Expr) sym.Env {
	env := make(sym.Env, len(vars))
	for _, v := range vars {
		env[v] = sym.BV{W: v.Width}
	}
	for a, val := range asg {
		if int(a) < len(d.atomVars) && d.atomVars[a] != nil {
			if _, in := env[d.atomVars[a]]; in {
				env[d.atomVars[a]] = val
			}
		}
	}
	return env
}

func zerosEnv(vars []*sym.Expr) sym.Env {
	env := make(sym.Env, len(vars))
	for _, v := range vars {
		env[v] = sym.BV{W: v.Width}
	}
	return env
}

// publishState cuts the epoch's diagram state, copy-on-write: when no
// root changed since the last publication and the store was not
// rebuilt, the previous epoch's frozen copy is re-used — the Forward
// fast path publishes without touching O(points) state.
func (d *ddCore) publishState(prev *epoch) *ddEpoch {
	st := d.store.Load()
	dirty := d.rootsDirty.Swap(false)
	if prev != nil && prev.dd != nil && prev.dd.store == st && !dirty {
		return prev.dd
	}
	roots := make([]*dd.Node, len(d.roots))
	for i := range d.roots {
		roots[i] = d.roots[i].node
	}
	return &ddEpoch{store: st, roots: roots}
}

// ddMaybeSweep rebuilds the diagram store when it has grown past the
// sweep factor — the diagram analogue of the expression arena's
// generational trigger. Live roots recompile into a fresh store
// (sharing one memo, so the rebuild costs one compile pass over live
// state, not history); old stores stay reachable from any epoch that
// still references them and are reclaimed by the runtime when the last
// such epoch is dropped. Called under the engine write lock.
func (s *Specializer) ddMaybeSweep() {
	d := s.ddc
	if d == nil {
		return
	}
	st := d.store.Load()
	n := st.NumNodes()
	if d.baseline == 0 {
		d.baseline = max(ddSweepFloor, n*ddSweepFactor)
		return
	}
	if n < d.baseline {
		return
	}
	fresh := dd.NewStore()
	for _, a := range st.Atoms() {
		fresh.Register(a.Name, a.Width)
	}
	ctx := dd.NewCtx(fresh)
	for i := range d.roots {
		r := &d.roots[i]
		if r.node == nil {
			continue
		}
		if nn, _, ok := ctx.CompileBudget(s.pointSub[i], ddCompileBudget); ok {
			r.node = nn
		} else {
			r.node = nil
		}
	}
	d.store.Store(fresh)
	d.rootsDirty.Store(true)
	s.flushDDCtxs()
	d.baseline = max(ddSweepFloor, fresh.NumNodes()*ddSweepFactor)
}

// flushDDCtxs discards every worker's compile/apply memos — after an
// arena sweep (the compile memo's expression-pointer keys are retired)
// or a store rebuild (the memo values point into the old store).
func (s *Specializer) flushDDCtxs() {
	for _, sh := range s.shards {
		sh.dd = nil
	}
}

// ddArenaRoots appends the expressions the diagram core keeps live
// across arena sweeps: the atom-index variable mirror, so witness
// translation never holds a stale alias. The residues the roots were
// compiled from are the points' pointSub entries, rooted already.
func (s *Specializer) ddArenaRoots(roots []*sym.Expr) []*sym.Expr {
	if s.ddc == nil {
		return roots
	}
	return append(roots, s.ddc.atomVars...)
}

// collectDataVars walks an expression DAG and reports every distinct
// data-plane variable node (seen is the caller's visited set, reused
// across calls for determinism of the enumeration order: first
// encounter in a deterministic DFS).
func collectDataVars(e *sym.Expr, seen map[*sym.Expr]bool, out func(v *sym.Expr)) {
	if e == nil || seen[e] {
		return
	}
	seen[e] = true
	if e.Op == sym.OpVar {
		if e.Class == sym.DataVar {
			out(e)
		}
		return
	}
	collectDataVars(e.A, seen, out)
	collectDataVars(e.B, seen, out)
	collectDataVars(e.C, seen, out)
}

func sortedNames[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

func sortExprsByName(xs []*sym.Expr) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1].Name > xs[j].Name; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

// ExplainStep is one predicate test along an explained diagram path.
type ExplainStep struct {
	// Pred is the predicate in the paper's notation, e.g.
	// "@hdr.ipv4.dstAddr@ == 0x0a000001".
	Pred string `json:"pred"`
	// Taken reports which branch the witness assignment took.
	Taken bool `json:"taken"`
}

// Explanation is the introspection record of one program point under
// the published epoch: what the point asks, what the engine concluded,
// and — when the point's condition lives in the diagram core — the
// exact predicate path and witness assignment behind the verdict.
type Explanation struct {
	// Point is the program-point ID.
	Point int `json:"point"`
	// Kind is the point kind (if-branch, table-action, ...).
	Kind string `json:"kind"`
	// Query names the specialization question: "executable" or
	// "constant".
	Query string `json:"query"`
	// Control is the enclosing control block; Table the associated
	// table, when any.
	Control string `json:"control,omitempty"`
	Table   string `json:"table,omitempty"`
	// Verdict is the point's verdict under the explained epoch.
	Verdict string `json:"verdict"`
	// Value is the constant's value when Verdict is "const".
	Value string `json:"value,omitempty"`
	// Source reports what produced the verdict evidence: "dd" when the
	// point's condition is compiled in the diagram core (Steps/Witness
	// are populated); "width" when the residue's free variables exceed
	// the exhaustive bound (FreeBits says by how much), so the verdict
	// is Live/Varies conservatively, not by proof — Steps/Witness then
	// narrate a diagram compiled for this call, when the residue
	// compiles within budget; "solver" when the point is decided by a
	// literal residue or the solver's enumeration (no path evidence).
	Source string `json:"source"`
	// FreeBits is the total width of the residue's distinct free
	// variables when Source is "width".
	FreeBits int `json:"free_bits,omitempty"`
	// Steps is the root-to-terminal predicate path of the witness
	// assignment through the canonical diagram.
	Steps []ExplainStep `json:"steps,omitempty"`
	// Witness maps data-plane variables to the values that drive the
	// explained path (a liveness witness for executability, one
	// realizing assignment for constancy).
	Witness map[string]string `json:"witness,omitempty"`
	// Epoch is the epoch sequence number the explanation was cut from.
	Epoch uint64 `json:"epoch"`
}

// Explain reports how the published epoch's verdict for one program
// point comes about: the specialization query, the verdict, and — for
// diagram-compiled points — the predicates tested along the witness
// path with the witness assignment itself. It may be called
// concurrently with writers from any number of goroutines. For a point
// that holds a diagram root it is wait-free (one epoch load plus walks
// over immutable diagram nodes). Any other point's residue is
// re-derived under the engine read lock — an arena sweep renumbers
// expression ids, so this part waits for a writer in flight — and a
// width-decided residue is compiled there into a private store seeded
// with the engine's variable order, under the update path's own compile
// budget: the engine keeps no diagram for a verdict no diagram can
// change, so narrating one is paid by the operator's call, not by every
// update.
func (s *Specializer) Explain(id int) (*Explanation, error) {
	if id < 0 || id >= len(s.An.Points) {
		return nil, fmt.Errorf("unknown program point %d (have %d)", id, len(s.An.Points))
	}
	e := s.loadEpoch()
	root := e.dd.root(id)
	if root == nil {
		s.mu.RLock()
		defer s.mu.RUnlock()
		// Publication happens under the write lock, so this epoch and
		// s.env describe the same configuration.
		e = s.loadEpoch()
		root = e.dd.root(id)
	}
	if root != nil {
		out := s.explanation(e, id, "dd")
		narrate(out, root, e.dd.store.Atoms())
		return out, nil
	}
	out := s.explanation(e, id, "solver")
	b := s.An.Builder
	var scratch sym.SubstScratch
	sub := b.SubstWith(&scratch, s.An.Points[id].Expr, s.env)
	solver := sym.NewSolver()
	if !solver.Wide(sub) {
		return out, nil
	}
	out.Source = "width"
	for _, v := range solver.FreeVars(sub) {
		out.FreeBits += int(v.Width)
	}
	if s.ddc == nil {
		return out, nil
	}
	atoms := s.ddc.store.Load().Atoms()
	private := dd.NewStore()
	for _, a := range atoms {
		private.Register(a.Name, a.Width)
	}
	if root, _, ok := dd.NewCtx(private).CompileBudget(sub, ddCompileBudget); ok {
		narrate(out, root, atoms)
	}
	return out, nil
}

// root returns the point's frozen diagram root, nil when it has none
// (or the core is disabled).
func (d *ddEpoch) root(id int) *dd.Node {
	if d == nil || id >= len(d.roots) {
		return nil
	}
	return d.roots[id]
}

// explanation fills the part of an Explanation every source shares.
func (s *Specializer) explanation(e *epoch, id int, source string) *Explanation {
	p := s.An.Points[id]
	out := &Explanation{
		Point:   id,
		Kind:    p.Kind.String(),
		Query:   queryName(p.Kind),
		Control: p.Control,
		Table:   p.Table,
		Verdict: e.verdicts[id].Kind.String(),
		Source:  source,
		Epoch:   e.seq,
	}
	if e.verdicts[id].Kind == VerdictConst {
		out.Value = e.verdicts[id].Val.String()
	}
	return out
}

// narrate fills Steps and Witness from a diagram root. The assignment
// whose path is narrated is a satisfying walk when one exists, the zero
// assignment otherwise (for a dead point every assignment reaches the
// false terminal — zero is as good a narrative as any).
func narrate(out *Explanation, root *dd.Node, atoms []dd.Atom) {
	asg, res := dd.Sat(root, atoms, ddWalkBudget)
	if res != dd.SatYes {
		asg = nil
	}
	get := func(a int32) sym.BV {
		if v, ok := asg[a]; ok {
			return v
		}
		w := uint16(1)
		if int(a) < len(atoms) {
			w = atoms[a].Width
		}
		return sym.BV{W: w}
	}
	steps, _ := dd.PathSteps(atoms, root, get)
	out.Steps = make([]ExplainStep, len(steps))
	for i, st := range steps {
		out.Steps[i] = ExplainStep{Pred: st.Pred, Taken: st.Taken}
	}
	if asg != nil {
		out.Witness = make(map[string]string, len(asg))
		for a, v := range asg {
			if int(a) < len(atoms) {
				out.Witness[atoms[a].Name] = v.String()
			}
		}
	}
}

// variableOrder returns the diagram core's current atom order (the
// snapshot codec persists it; diagrams themselves are rebuilt on
// restore). Nil when the core is disabled. Called under the engine
// read lock by Snapshot.
func (s *Specializer) variableOrder() []dd.Atom {
	if s.ddc == nil {
		return nil
	}
	return s.ddc.store.Load().Atoms()
}

// VariableOrder reports the diagram core's variable order — the atoms
// (match keys and value-set membership bits) in the position the
// taint-frequency heuristic assigned them, which every diagram in the
// store tests top-down. Nil when the core is disabled (NoDD). The
// order is append-only for the life of the engine and survives
// Snapshot/Restore verbatim.
func (s *Specializer) VariableOrder() []dd.Atom {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.variableOrder()
}

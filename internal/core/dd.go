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
// dedups across the points of one pass, the compile memo dedups across
// updates (an incremental update re-compiles only the changed region of
// a residue), and the fixed taint-frequency variable order keeps equal
// conditions pointer-equal across points.
//
// Lifetimes:
//
//   - a diagram lives for the query that compiled it. The engine keeps
//     no per-point diagram state: a diagram is a pure function of its
//     hash-consed residue and the variable order, so the next query of
//     the same residue gets the same node back from the compile memo,
//     and a changed residue pays for the changed region only;
//   - the compile memo is keyed on hash-consed expression pointers,
//     which an arena sweep retires, so the store and the memo are
//     replaced together at every arena sweep (arena.go) — and whenever
//     the store has passed ddSweepFloor at the end of a mutating call,
//     which bounds it by a constant rather than by update history;
//   - Explain compiles the residue it narrates into a store of its own,
//     under the read lock, for the call;
//   - snapshots persist the variable order only (snapshot.go).
package core

import (
	"fmt"
	"slices"
	"sort"
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
	// ddSweepFloor bounds the diagram store: a mutating call that ends
	// with more nodes than this replaces the store (ddBoundStore). With
	// no diagram kept between queries there is nothing to recompile, so
	// a replacement costs an empty store plus the atom list and the
	// bound can be a constant.
	ddSweepFloor = 1 << 15
	// ddCompileBudget is the one cap on a diagram compile. It is
	// deliberately far below the dd package's own limit: program and
	// configuration are outside input, and a residue that cannot compile
	// in ~16k steps would be recompiled on every update it survives
	// (priority-chain ACL residues change wholesale when an entry
	// lands), which costs more than the enumeration it replaces. The
	// catalog's largest compile uses 1 474 steps (nat44).
	ddCompileBudget = 1 << 14
)

// ddCore is the engine-side state of the diagram query core. The store
// pointer and the counters are atomic so the wait-free Statistics can
// sample them while the writer replaces the store or counts a query.
type ddCore struct {
	store    atomic.Pointer[dd.Store]
	atomVars []*sym.Expr // atom index → data-plane variable node

	// Verdicts answered on the diagram path are counted by queryAny's
	// dispatch (answeredBy[byDD]).
	fallbacks atomic.Int64 // queries that reached the diagram stage and were punted to the solver
	compiles  atomic.Int64 // diagram compilations (memo hits included)
}

// newDDCore builds the diagram core for a freshly analyzed program:
// it derives the variable order and registers every atom the residues
// can mention. Data-plane variables are ordered by taint frequency —
// how many program points test them — most-frequent first (ties by
// name), so the hottest match keys sit near the root and cross-point
// sharing is maximal. Variables that only appear through assignments
// (table keys, value-set keys, register read sites) follow, in
// deterministic name order. order, when not empty, is a snapshot's
// variable order and is registered verbatim instead: a resumed engine
// builds the diagrams, and Explain narrates the paths, of the engine
// that was snapshotted. A snapshot of an engine without the core has
// none, and the order is derived.
func newDDCore(an *dataplane.Analysis, order []dd.Atom) *ddCore {
	d := &ddCore{}
	st := dd.NewStore()
	d.store.Store(st)
	vars := make(map[string]*sym.Expr)
	if len(order) > 0 {
		for _, a := range order {
			d.register(st, an.Builder.Data(a.Name, a.Width))
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

// rootFor compiles sub through the compile memo under ddCompileBudget.
// On success it returns the diagram with the residue's free variables
// (walk assignments are completed over them into witnesses; they fit
// sym.DefaultExhaustiveBits, since queryAny sends only residues inside
// the bound here). ok=false means the residue is outside the diagram
// fragment or past the budget; it goes to the solver's enumeration, and
// the memo remembers the bail for as long as the residue pointer lives.
func (s *Specializer) rootFor(sub *sym.Expr) (root *dd.Node, vars []*sym.Expr, ok bool) {
	d := s.ddc
	d.compiles.Add(1)
	if s.eval.dd == nil {
		s.eval.dd = dd.NewCtx(d.store.Load())
	}
	if root, ok = s.eval.dd.CompileBudget(sub, ddCompileBudget); !ok {
		return nil, nil, false
	}
	return root, s.eval.solver.FreeVars(sub), true
}

// ddQuery is the diagram stage of queryAny: it answers the query on the
// residue's diagram, or reports ok=false when the residue has to go to
// the solver — it did not compile, the walk ran out of budget, or the
// point sits under a degraded target. A degraded target's
// residue is deliberately overapproximated — replaced wholesale on
// every update, the opposite of the stable precise conditions the
// diagram compiles compactly — so attempting those compiles would burn
// the budget per point per update for nothing; the differential check
// and promotion already re-prove degraded verdicts precisely.
func (s *Specializer) ddQuery(p *dataplane.Point, sub *sym.Expr) (v Verdict, ok bool) {
	if !s.underDegraded(p.ID) {
		// No free variable is a closed term the simplifier left unfolded:
		// the solver's single evaluation decides it.
		if root, vars, compiled := s.rootFor(sub); compiled && len(vars) > 0 {
			if constQuery(p.Kind) {
				v, ok = s.ddConst(sub, root, vars)
			} else {
				v, ok = s.ddExec(p.ID, sub, root, vars)
			}
		}
	}
	if !ok {
		s.ddc.fallbacks.Add(1)
	}
	return v, ok
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

// underDegraded reports whether any of the point's dependency targets is
// currently degraded.
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
func (s *Specializer) ddExec(id int, sub *sym.Expr, root *dd.Node, vars []*sym.Expr) (Verdict, bool) {
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
		s.witnesses[id] = zerosEnv(vars)
		return Verdict{Kind: VerdictLive}, true
	}
	if root.IsFalse() {
		return Verdict{Kind: VerdictDead}, true
	}
	asg, out := dd.Sat(root, d.store.Load().Atoms(), ddWalkBudget)
	switch out {
	case dd.SatYes:
		env := d.envOf(asg, vars)
		if v, done := s.eval.solver.Eval(sub, env); done && v.IsTrue() {
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
func (s *Specializer) ddConst(sub *sym.Expr, root *dd.Node, vars []*sym.Expr) (Verdict, bool) {
	d := s.ddc
	if root.IsTerminal() {
		return Verdict{Kind: VerdictConst, Val: root.Value()}, true
	}
	val, ea, eb, out := dd.ConstCheck(root, d.store.Load().Atoms(), ddWalkBudget)
	switch out {
	case dd.ConstVaries:
		envA, envB := d.envOf(ea, vars), d.envOf(eb, vars)
		va, okA := s.eval.solver.Eval(sub, envA)
		vb, okB := s.eval.solver.Eval(sub, envB)
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

// emptyStore returns a diagram store holding nothing but the given
// atoms, registered in order — the variable order carried over.
func emptyStore(atoms []dd.Atom) *dd.Store {
	st := dd.NewStore()
	for _, a := range atoms {
		st.Register(a.Name, a.Width)
	}
	return st
}

// ddReplaceStore swaps in an empty store with the same variable order
// and drops the compile memo, whose values point into the old store.
// Nothing else references a store: no diagram outlives its query.
// Called under the engine write lock.
func (s *Specializer) ddReplaceStore() {
	if s.ddc == nil {
		return
	}
	s.ddc.store.Store(emptyStore(s.ddc.store.Load().Atoms()))
	s.eval.dd = nil
}

// ddBoundStore replaces the store once it has passed ddSweepFloor.
// Every mutating call ends in publish, which calls it.
func (s *Specializer) ddBoundStore() {
	if s.ddc != nil && s.ddc.store.Load().NumNodes() > ddSweepFloor {
		s.ddReplaceStore()
	}
}

// ddArenaRoots appends the expressions the diagram core keeps live
// across arena sweeps: the atom-index variable mirror, so witness
// translation never holds a stale alias.
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
	slices.Sort(out)
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
// and — when the point's condition compiles into a diagram — the exact
// predicate path and witness assignment behind the verdict.
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
	// point's condition compiles into a diagram, the way the update path
	// decides it (Steps/Witness are populated); "width" when the
	// residue's free variables exceed the exhaustive bound (FreeBits
	// says by how much), so the verdict is Live/Varies conservatively,
	// not by proof — Steps/Witness are then populated when the residue
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
// point comes about: the specialization query, the verdict, and — where
// the residue compiles into a diagram — the predicates tested along the
// witness path with the witness assignment itself. It may be called
// concurrently with writers from any number of goroutines and takes the
// engine read lock — an arena sweep renumbers expression ids, so it
// waits for a writer in flight. The residue is re-derived and compiled
// for the call, into a private store seeded with the engine's variable
// order and under the update path's own compile budget: the engine
// keeps no diagram between queries, so narrating one is paid by the
// operator's call, not by every update.
func (s *Specializer) Explain(id int) (*Explanation, error) {
	if id < 0 || id >= len(s.An.Points) {
		return nil, fmt.Errorf("unknown program point %d (have %d)", id, len(s.An.Points))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Publication happens under the write lock, so this epoch and s.env
	// describe the same configuration.
	out := s.explanation(s.loadEpoch(), id, "solver")
	var scratch sym.SubstScratch
	sub := s.An.Builder.SubstWith(&scratch, s.An.Points[id].Expr, s.env)
	if sub.IsConst() {
		return out, nil
	}
	solver := sym.NewSolver()
	wide := solver.Wide(sub)
	if wide {
		out.Source = "width"
		for _, v := range solver.FreeVars(sub) {
			out.FreeBits += int(v.Width)
		}
	}
	// The update path sends a narrow residue under a degraded table
	// straight to the solver (ddQuery).
	if s.ddc == nil || !wide && s.underDegraded(id) {
		return out, nil
	}
	atoms := s.ddc.store.Load().Atoms()
	root, ok := dd.NewCtx(emptyStore(atoms)).CompileBudget(sub, ddCompileBudget)
	if !ok {
		return out, nil
	}
	if !wide {
		out.Source = "dd"
	}
	narrate(out, root, atoms)
	return out, nil
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
// store tests top-down. Nil when the core is disabled (Options.noDD). The
// order is append-only for the life of the engine and survives
// Snapshot/Restore verbatim.
func (s *Specializer) VariableOrder() []dd.Atom {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.variableOrder()
}

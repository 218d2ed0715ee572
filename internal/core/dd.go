// The decision-diagram query core (internal/dd) integration and the
// one decision procedure built on it (decide). Per-point conditions
// compile into a canonical ordered decision diagram over match-key
// predicates, so re-evaluating a point after an update is a near-O(1)
// diagram walk. A residue whose free variables fit
// sym.DefaultExhaustiveBits is compiled; a wider one never is. A
// diagram decides a query only by proof — a refuting or certifying walk
// over feasible paths, every walk-derived witness checked by the
// solver's evaluator — and a query it cannot decide within budget gets
// no proof, which only ever keeps code (PAPER.md: Unknown means
// "behaviour may change"). The solver's enumeration is the test
// reference only: CheckAgainstPerPointSubst (export_test.go) holds every
// verdict the engine installs to it.
// Structure is shared three ways: hash-consing dedups across the points
// of one pass, the compile memo dedups across updates (an incremental
// update re-compiles only the changed region of a residue), and the
// fixed taint-frequency variable order keeps equal conditions
// pointer-equal across points.
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
//   - Explain and DifferentialCheck compile the residues they decide
//     into a store of their own, under the read lock, for the call;
//   - snapshots persist the variable order only (snapshot.go).
package core

import (
	"fmt"
	"slices"
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
	// precise tables; a blown budget decides nothing.
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
	// lands), which costs more than the proof is worth. The catalog's
	// largest compile uses 1 474 steps (nat44).
	ddCompileBudget = 1 << 14
)

// ddCore is the engine-side state of the diagram query core. The store
// pointer is atomic so the wait-free Statistics can sample it while the
// writer replaces the store.
type ddCore struct {
	store    atomic.Pointer[dd.Store]
	atomVars []*sym.Expr  // atom index → data-plane variable node
	compiles atomic.Int64 // the engine decider's compiles (memo hits included)
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
// that was snapshotted.
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

// decision is what one run of the decision procedure found: the
// verdict, how it was reached, and the residue's diagram when one was
// compiled (Explain narrates it).
type decision struct {
	v    Verdict
	by   queryPath
	root *dd.Node
}

// decider is what the decision procedure runs on: a solver for the
// width walk and the witness checks, and a diagram compile context over
// a store, created on the first compile. The engine keeps one in its
// evaluation scratch (ddReplaceStore points it at each new store);
// Explain and DifferentialCheck each build one over a private store
// that starts from the engine's variable order.
type decider struct {
	solver   *sym.Solver
	ddc      *ddCore // atomVars: atom index → variable node
	store    *dd.Store
	ctx      *dd.Ctx
	compiles *atomic.Int64 // the engine's: ddCore.compiles; nil for a private decider
}

// privateDecider returns a decider over an empty store holding the
// engine's atoms, for a caller under the read lock. Its work is not
// counted: the engine's instruments count the update path.
func (s *Specializer) privateDecider() *decider {
	return &decider{solver: sym.NewSolver(), ddc: s.ddc, store: emptyStore(s.ddc.store.Load().Atoms())}
}

// compile compiles sub into the decider's store under ddCompileBudget.
// ok=false means the residue is outside the diagram fragment or past
// the budget; the compile memo remembers the bail for as long as the
// residue pointer lives. Every call counts as a compile, a memo hit
// included.
func (d *decider) compile(sub *sym.Expr) (*dd.Node, bool) {
	if d.compiles != nil {
		d.compiles.Add(1)
	}
	if d.ctx == nil {
		d.ctx = dd.NewCtx(d.store)
	}
	return d.ctx.CompileBudget(sub, ddCompileBudget)
}

// decide is the one decision procedure: the update path (queryAny),
// DifferentialCheck and Explain all answer a point's query with it, in
// this order:
//
//  1. a literal residue is its own answer — the overwhelmingly common
//     case, substitution having folded the condition away;
//  2. a residue whose distinct free variables exceed the exhaustive
//     bound (sym.Solver.Wide) gets no proof, and nothing is compiled or
//     evaluated for it;
//  3. otherwise the residue is compiled under ddCompileBudget, and a
//     decided walk of its diagram is the answer;
//  4. anything else gets no proof.
//
// No proof is Live for an executability query and Varies for a
// constancy query. Both only keep code, so a missing proof is always a
// sound answer, under a degraded table as anywhere else.
func (d *decider) decide(kind dataplane.PointKind, sub *sym.Expr) decision {
	isConst := constQuery(kind)
	switch {
	case isConst && sub.IsConst():
		return decision{v: Verdict{Kind: VerdictConst, Val: sub.Val}, by: byLiteral}
	case !isConst && sub.IsTrue():
		return decision{v: Verdict{Kind: VerdictLive}, by: byLiteral}
	case !isConst && sub.IsFalse():
		return decision{v: Verdict{Kind: VerdictDead}, by: byLiteral}
	}
	noProof := Verdict{Kind: VerdictLive}
	if isConst {
		noProof = Verdict{Kind: VerdictVaries}
	}
	if d.solver.Wide(sub) {
		return decision{v: noProof, by: byWidth}
	}
	root, ok := d.compile(sub)
	if !ok {
		return decision{v: noProof, by: unproven}
	}
	var v Verdict
	if isConst {
		v, ok = d.constant(sub, root)
	} else {
		v, ok = d.executable(sub, root)
	}
	if !ok {
		return decision{v: noProof, by: unproven, root: root}
	}
	return decision{v: v, by: byDD, root: root}
}

// executable answers an executability query on the diagram: a True
// root or a feasible true-path whose witness the evaluator confirms is
// Live; a False root or a proof that no feasible true-path exists is
// Dead. A walk out of budget, or a witness the evaluator does not
// confirm — never trust the walk over the evaluator — decides nothing.
func (d *decider) executable(sub *sym.Expr, root *dd.Node) (Verdict, bool) {
	switch {
	case root.IsTrue():
		return Verdict{Kind: VerdictLive}, true
	case root.IsFalse():
		return Verdict{Kind: VerdictDead}, true
	}
	asg, out := dd.Sat(root, d.store.Atoms(), ddWalkBudget)
	switch out {
	case dd.SatYes:
		if v, ok := d.solver.Eval(sub, d.envOf(sub, asg)); ok && v.IsTrue() {
			return Verdict{Kind: VerdictLive}, true
		}
	case dd.SatNo:
		return Verdict{Kind: VerdictDead}, true
	}
	return Verdict{}, false
}

// constant answers a constancy query on the diagram: a terminal root or
// a uniform diagram is Const, and two evaluator-confirmed assignments
// with different values are Varies. Anything else decides nothing.
func (d *decider) constant(sub *sym.Expr, root *dd.Node) (Verdict, bool) {
	if root.IsTerminal() {
		return Verdict{Kind: VerdictConst, Val: root.Value()}, true
	}
	val, ea, eb, out := dd.ConstCheck(root, d.store.Atoms(), ddWalkBudget)
	switch out {
	case dd.ConstVaries:
		va, okA := d.solver.Eval(sub, d.envOf(sub, ea))
		vb, okB := d.solver.Eval(sub, d.envOf(sub, eb))
		if okA && okB && va != vb {
			return Verdict{Kind: VerdictVaries}, true
		}
	case dd.ConstUniform:
		return Verdict{Kind: VerdictConst, Val: val}, true
	}
	return Verdict{}, false
}

// envOf completes a walk assignment into a full residue witness:
// walk-constrained atoms take their walked values, every other free
// variable is zero (any value preserves the walked path — the path's
// predicates only test constrained atoms).
func (d *decider) envOf(sub *sym.Expr, asg map[int32]sym.BV) sym.Env {
	vars := d.solver.FreeVars(sub)
	env := make(sym.Env, len(vars))
	for _, v := range vars {
		env[v] = sym.BV{W: v.Width}
	}
	atomVars := d.ddc.atomVars
	for a, val := range asg {
		if int(a) < len(atomVars) && atomVars[a] != nil {
			if _, in := env[atomVars[a]]; in {
				env[atomVars[a]] = val
			}
		}
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
	st := emptyStore(s.ddc.store.Load().Atoms())
	s.ddc.store.Store(st)
	s.eval.dec.store, s.eval.dec.ctx = st, nil
}

// ddBoundStore replaces the store once it has passed ddSweepFloor.
// Every mutating call ends in publish, which calls it.
func (s *Specializer) ddBoundStore() {
	if s.ddc.store.Load().NumNodes() > ddSweepFloor {
		s.ddReplaceStore()
	}
}

// ddArenaRoots appends the expressions the diagram core keeps live
// across arena sweeps: the atom-index variable mirror, so witness
// translation never holds a stale alias.
func (s *Specializer) ddArenaRoots(roots []*sym.Expr) []*sym.Expr {
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
	// Source reports which step of the decision procedure answered the
	// point, the way the update path answers it: "literal" when the
	// residue folded to a literal (no path evidence); "dd" when a walk of
	// the residue's diagram decided it (Steps/Witness are populated);
	// "width" when the residue's free variables exceed the exhaustive
	// bound (FreeBits says by how much), so the verdict is Live/Varies
	// without a proof; "unproven" when the residue reached the diagram
	// stage and got no proof, which is Live/Varies too. Steps/Witness are
	// populated for "width" and "unproven" when the residue compiles
	// within budget.
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
// waits for a writer in flight. The residue is re-derived and decided
// for the call by the update path's own procedure (decide), into a
// private store seeded with the engine's variable order: the engine
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
	out := s.explanation(s.loadEpoch(), id)
	var scratch sym.SubstScratch
	sub := s.An.Builder.SubstWith(&scratch, s.An.Points[id].Expr, s.env)
	d := s.privateDecider()
	dec := d.decide(s.An.Points[id].Kind, sub)
	out.Source = queryPathNames[dec.by]
	if dec.by == byWidth {
		for _, v := range d.solver.FreeVars(sub) {
			out.FreeBits += int(v.Width)
		}
		// No proof, but a path is still worth narrating when the residue
		// compiles within the update path's budget.
		dec.root, _ = d.compile(sub)
	}
	if dec.root != nil {
		narrate(out, dec.root, d.store.Atoms())
	}
	return out, nil
}

// explanation fills the part of an Explanation every source shares.
func (s *Specializer) explanation(e *epoch, id int) *Explanation {
	p := s.An.Points[id]
	out := &Explanation{
		Point:   id,
		Kind:    p.Kind.String(),
		Query:   queryName(p.Kind),
		Control: p.Control,
		Table:   p.Table,
		Verdict: e.verdicts[id].Kind.String(),
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
// restore). Called under the engine read lock by Snapshot.
func (s *Specializer) variableOrder() []dd.Atom {
	return s.ddc.store.Load().Atoms()
}

// VariableOrder reports the diagram core's variable order — the atoms
// (match keys and value-set membership bits) in the position the
// taint-frequency heuristic assigned them, which every diagram in the
// store tests top-down. The order is append-only for the life of the engine and survives
// Snapshot/Restore verbatim.
func (s *Specializer) VariableOrder() []dd.Atom {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.variableOrder()
}

package core

import (
	"slices"

	"repro/internal/dataplane"
	"repro/internal/p4/ast"
	"repro/internal/p4/token"
	"repro/internal/p4/typecheck"
	"repro/internal/sym"
)

// SpecializedProgram rebuilds the program with every specialization the
// current verdicts permit: dead-branch elimination, constant
// propagation, table inlining, dead-action removal, match-kind
// narrowing, empty-table removal and select-case pruning (paper §3,
// §4.1). The parser keeps every extract of the original, in order:
// specialization never changes where a header is read or which short
// frame the parser rejects. The original program is never mutated.
func (s *Specializer) SpecializedProgram() *ast.Program {
	s.mu.RLock()
	defer s.mu.RUnlock()
	prog, _ := s.specializedProgramLocked()
	return prog
}

// specializedProgramLocked is SpecializedProgram with the lock already
// held — in either mode: the rewriter only reads. The image builder
// calls it from inside publish(), under the write lock. It also returns
// the program's type information, derived from the original's as the
// rewriter builds it: the program is never checked again.
func (s *Specializer) specializedProgramLocked() (*ast.Program, *typecheck.Info) {
	sp := s.trace.Start("pass", 0)
	defer s.trace.End(sp)
	if s.quality == QualityNone {
		return s.Prog, s.Info
	}
	r := &rewriter{s: s, plan: s.plan, types: make(map[ast.Expr]typecheck.T)}
	r.prepare()
	prog := r.program()
	return prog, s.Info.Derive(prog, r.types)
}

// rewritePlan is what the rewriter reads that no verdict moves: the
// points grouped by the construct they decide (an if inside a shared
// action body yields one point per execution context, and the construct
// goes only if every context says so), and the apply sites whose hit
// result feeds a branch. It depends on An.Points and the original AST
// alone, so open builds it once and every publication only reads it. It
// lives as long as the engine, so a construct's points are a span of one
// shared array rather than a slice of their own.
type rewritePlan struct {
	ids      []int32                      // point IDs, grouped by construct
	branches map[*ast.IfStmt][2]pointSpan // per if node: then, else
	assigns  map[*ast.AssignStmt]pointSpan
	cases    map[string][]pointSpan // parser.state → per case index
	hitSites []hitSite              // `if (t.apply().hit)`, in program order
}

// pointSpan is one construct's points, ids[lo:hi] of its plan.
type pointSpan struct{ lo, hi int32 }

// hitSite is an if whose condition applies table qname.
type hitSite struct {
	ifs   *ast.IfStmt
	qname string
}

func newRewritePlan(an *dataplane.Analysis, prog *ast.Program) *rewritePlan {
	// Group the points by construct in first-seen order, then lay the
	// groups out in one array.
	type construct struct {
		node any // *ast.IfStmt, *ast.AssignStmt, or a parser state's name
		sub  int // else branch (1) of an if, case index of a state
	}
	groups := make(map[construct][]int32)
	var order []construct
	for _, p := range an.Points {
		var c construct
		switch p.Kind {
		case dataplane.PointIfBranch:
			c = construct{p.If, 0}
			if !p.ThenBranch {
				c.sub = 1
			}
		case dataplane.PointAssignValue:
			c = construct{p.Assign, 0}
		case dataplane.PointSelectCase:
			c = construct{p.Control + "." + p.ParserState, p.CaseIndex}
		default:
			continue
		}
		if _, seen := groups[c]; !seen {
			order = append(order, c)
		}
		groups[c] = append(groups[c], int32(p.ID))
	}
	pl := &rewritePlan{
		branches: make(map[*ast.IfStmt][2]pointSpan),
		assigns:  make(map[*ast.AssignStmt]pointSpan),
		cases:    make(map[string][]pointSpan),
	}
	for _, c := range order {
		sp := pointSpan{lo: int32(len(pl.ids))}
		pl.ids = append(pl.ids, groups[c]...)
		sp.hi = int32(len(pl.ids))
		switch node := c.node.(type) {
		case *ast.IfStmt:
			b := pl.branches[node]
			b[c.sub] = sp
			pl.branches[node] = b
		case *ast.AssignStmt:
			pl.assigns[node] = sp
		case string:
			cs := pl.cases[node]
			for len(cs) <= c.sub {
				cs = append(cs, pointSpan{})
			}
			cs[c.sub] = sp
			pl.cases[node] = cs
		}
	}
	for _, cd := range prog.Controls {
		ast.WalkStmts(cd.Apply, func(st ast.Stmt) {
			ifs, ok := st.(*ast.IfStmt)
			if !ok {
				return
			}
			m, ok := ifs.Cond.(*ast.Member)
			if !ok || m.Name != "hit" {
				return
			}
			call, ok := m.X.(*ast.CallExpr)
			if !ok {
				return
			}
			inner, ok := call.Fun.(*ast.Member)
			if !ok || inner.Name != "apply" {
				return
			}
			if id, ok := inner.X.(*ast.Ident); ok {
				pl.hitSites = append(pl.hitSites, hitSite{ifs: ifs, qname: cd.Name + "." + id.Name})
			}
		})
	}
	return pl
}

type rewriter struct {
	s    *Specializer
	plan *rewritePlan

	// kept holds, per qualified table name, the implementation prepare
	// force-kept in place of the installed one.
	kept map[string]*tableImpl
	// types holds the type of every expression node the rewrite made;
	// every other node keeps the type the original program's check gave
	// it.
	types map[ast.Expr]typecheck.T

	control *ast.ControlDecl
}

// typed records t as the type of e, a node the rewrite made.
func (r *rewriter) typed(e ast.Expr, t typecheck.T) ast.Expr {
	r.types[e] = t
	return e
}

// lit is v as a sized literal, of type bit<W>.
func (r *rewriter) lit(v sym.BV, pos token.Pos) ast.Expr {
	return r.typed(&ast.IntLit{Width: int(v.W), Hi: v.Hi, Lo: v.Lo, TokPos: pos},
		typecheck.T{Kind: typecheck.KBits, Width: int(v.W)})
}

// prepare force-keeps the apply site of every table whose hit result
// feeds a live two-way branch, even if it would otherwise be inlined.
func (r *rewriter) prepare() {
	for _, h := range r.plan.hitSites {
		if r.branchDead(h.ifs, true) || r.branchDead(h.ifs, false) {
			continue
		}
		if impl := r.impl(h.qname); impl != nil && (impl.removed || impl.inlineParams != nil) {
			keep := *impl
			keep.removed = false
			keep.inlineParams = nil
			if r.kept == nil {
				r.kept = make(map[string]*tableImpl)
			}
			r.kept[h.qname] = &keep
		}
	}
}

// impl is the implementation the rewrite gives table qname.
func (r *rewriter) impl(qname string) *tableImpl {
	if impl, ok := r.kept[qname]; ok {
		return impl
	}
	return r.s.impls[qname]
}

// allDead reports whether a construct's points decide it dead: there is
// at least one, and every one is Dead.
func (r *rewriter) allDead(sp pointSpan) bool {
	for _, id := range r.plan.ids[sp.lo:sp.hi] {
		if r.s.verdicts[id].Kind != VerdictDead {
			return false
		}
	}
	return sp.hi > sp.lo
}

func (r *rewriter) branchDead(ifs *ast.IfStmt, thenBranch bool) bool {
	b := r.plan.branches[ifs]
	if thenBranch {
		return r.allDead(b[0])
	}
	return r.allDead(b[1])
}

// constAssign reports the constant an assignment's RHS is in every
// context, if it is one.
func (r *rewriter) constAssign(asg *ast.AssignStmt) (sym.BV, bool) {
	sp := r.plan.assigns[asg]
	ids := r.plan.ids[sp.lo:sp.hi]
	var val sym.BV
	for i, id := range ids {
		v := r.s.verdicts[id]
		if v.Kind != VerdictConst || (i > 0 && v.Val != val) {
			return sym.BV{}, false
		}
		val = v.Val
	}
	return val, len(ids) > 0
}

// ---------------------------------------------------------------------------
// Program rebuild

func (r *rewriter) program() *ast.Program {
	src := r.s.Prog
	out := &ast.Program{
		Name:     src.Name + ".specialized",
		Typedefs: src.Typedefs,
		Consts:   src.Consts,
		Headers:  src.Headers,
		Structs:  src.Structs,
	}
	for _, cd := range src.Controls {
		out.Controls = append(out.Controls, r.controlDecl(cd))
	}
	for _, pd := range src.Parsers {
		out.Parsers = append(out.Parsers, r.parserDecl(pd))
	}
	return out
}

func (r *rewriter) parserDecl(pd *ast.ParserDecl) *ast.ParserDecl {
	out := &ast.ParserDecl{
		Name:      pd.Name,
		Params:    pd.Params,
		ValueSets: pd.ValueSets,
		TokPos:    pd.TokPos,
	}
	for _, st := range pd.States {
		out.States = append(out.States, r.state(pd, st))
	}
	return out
}

// state keeps a parser state's statements and drops the select cases
// the verdicts prove are never taken.
func (r *rewriter) state(pd *ast.ParserDecl, st *ast.State) *ast.State {
	out := &ast.State{Name: st.Name, Stmts: st.Stmts, TokPos: st.TokPos}
	tr := st.Trans
	if tr.Select == nil {
		out.Trans = tr
		return out
	}
	casePoints := r.plan.cases[pd.Name+"."+st.Name]
	var cases []ast.SelectCase
	for i, cs := range tr.Cases {
		if i < len(casePoints) && r.allDead(casePoints[i]) {
			continue
		}
		cases = append(cases, cs)
	}
	switch {
	case len(cases) == 0:
		out.Trans = ast.Transition{Next: "reject", TokPos: tr.TokPos}
	case len(cases) == 1 && cases[0].Keysets[0].Kind == ast.KeysetDefault:
		out.Trans = ast.Transition{Next: cases[0].Next, TokPos: tr.TokPos}
	default:
		out.Trans = ast.Transition{Select: tr.Select, Cases: cases, TokPos: tr.TokPos}
	}
	return out
}

func (r *rewriter) controlDecl(cd *ast.ControlDecl) *ast.ControlDecl {
	r.control = cd
	out := &ast.ControlDecl{
		Name:      cd.Name,
		Params:    cd.Params,
		Registers: cd.Registers,
		Locals:    cd.Locals,
		Consts:    cd.Consts,
		TokPos:    cd.TokPos,
	}
	out.Apply = r.blockStmt(cd.Apply)

	// Tables: drop removed/inlined ones, specialize the survivors.
	for _, t := range cd.Tables {
		impl := r.impl(cd.Name + "." + t.Name)
		if impl != nil && (impl.removed || impl.inlineParams != nil) {
			continue
		}
		out.Tables = append(out.Tables, r.table(cd, t, impl))
	}

	// Actions: keep those still referenced by a table or a direct call.
	used := make(map[string]bool)
	for _, t := range out.Tables {
		for _, ar := range t.Actions {
			used[ar.Name] = true
		}
		if t.Default != nil {
			used[t.Default.Name] = true
		}
	}
	ast.WalkStmts(out.Apply, func(st ast.Stmt) {
		if call, ok := st.(*ast.CallStmt); ok {
			if id, ok := call.Call.Fun.(*ast.Ident); ok {
				used[id.Name] = true
			}
		}
	})
	for _, a := range cd.Actions {
		if used[a.Name] {
			out.Actions = append(out.Actions, a)
		}
	}
	return out
}

func (r *rewriter) table(cd *ast.ControlDecl, t *ast.Table, impl *tableImpl) *ast.Table {
	out := &ast.Table{
		Name:    t.Name,
		Default: t.Default,
		Size:    t.Size,
		TokPos:  t.TokPos,
	}
	defaultName := "NoAction"
	if t.Default != nil {
		defaultName = t.Default.Name
	}
	ti := r.s.An.Tables[cd.Name+"."+t.Name]
	for i, ar := range t.Actions {
		if impl != nil && ti != nil && i < len(impl.deadActions) && impl.deadActions[i] && ar.Name != defaultName {
			continue // dead-action removal (Fig. 3 C/D)
		}
		out.Actions = append(out.Actions, ar)
	}
	for i, k := range t.Keys {
		nk := k
		if impl != nil && i < len(impl.matchKinds) {
			nk.Match = impl.matchKinds[i] // match-kind narrowing
		}
		out.Keys = append(out.Keys, nk)
	}
	return out
}

// ---------------------------------------------------------------------------
// Statements

func (r *rewriter) blockStmt(b *ast.BlockStmt) *ast.BlockStmt {
	out := &ast.BlockStmt{TokPos: b.TokPos}
	for _, s := range b.Stmts {
		out.Stmts = append(out.Stmts, r.stmt(s)...)
	}
	return out
}

// stmt rewrites one statement into zero or more statements.
func (r *rewriter) stmt(s ast.Stmt) []ast.Stmt {
	switch s := s.(type) {
	case *ast.BlockStmt:
		nb := r.blockStmt(s)
		if len(nb.Stmts) == 0 {
			return nil
		}
		return []ast.Stmt{nb}
	case *ast.IfStmt:
		return r.ifStmt(s)
	case *ast.AssignStmt:
		if val, ok := r.constAssign(s); ok && r.s.quality <= QualityNoNarrowing {
			return []ast.Stmt{&ast.AssignStmt{LHS: s.LHS, RHS: r.lit(val, s.TokPos), TokPos: s.TokPos}}
		}
		return []ast.Stmt{s}
	case *ast.CallStmt:
		if m, ok := s.Call.Fun.(*ast.Member); ok && m.Name == "apply" {
			return r.applyStmt(s)
		}
		return []ast.Stmt{s}
	default:
		return []ast.Stmt{s}
	}
}

func (r *rewriter) ifStmt(s *ast.IfStmt) []ast.Stmt {
	thenDead := r.branchDead(s, true)
	elseDead := r.branchDead(s, false)

	// `if (t.apply().hit)` carries the apply's side effects in the
	// condition; splice them out before branch pruning.
	var applyStmts []ast.Stmt
	plainCond := true
	if m, ok := s.Cond.(*ast.Member); ok && m.Name == "hit" {
		if call, ok := m.X.(*ast.CallExpr); ok {
			if inner, ok := call.Fun.(*ast.Member); ok && inner.Name == "apply" {
				plainCond = false
				qname := r.control.Name + "." + inner.X.(*ast.Ident).Name
				applyStmts = r.applyReplacement(qname, &ast.CallStmt{Call: call, TokPos: s.TokPos})
				if !thenDead && !elseDead {
					// Both branches live: the condition must stay, so
					// the table must survive (prepare() force-keeps it).
					out := &ast.IfStmt{Cond: s.Cond, TokPos: s.TokPos}
					out.Then = r.wrap(r.stmt(s.Then), s.Then)
					if s.Else != nil {
						out.Else = r.wrap(r.stmt(s.Else), s.Else)
					}
					return []ast.Stmt{out}
				}
			}
		}
	}

	switch {
	case thenDead && elseDead:
		// The whole if is unreachable.
		return applyStmts
	case elseDead:
		return append(applyStmts, r.stmt(s.Then)...)
	case thenDead:
		var rest []ast.Stmt
		if s.Else != nil {
			rest = r.stmt(s.Else)
		}
		return append(applyStmts, rest...)
	}
	if !plainCond {
		// Unreachable: handled above, but keep the compiler happy.
		return applyStmts
	}
	out := &ast.IfStmt{Cond: s.Cond, TokPos: s.TokPos}
	out.Then = r.wrap(r.stmt(s.Then), s.Then)
	if s.Else != nil {
		elseStmts := r.stmt(s.Else)
		if len(elseStmts) > 0 {
			out.Else = r.wrap(elseStmts, s.Else)
		}
	}
	if emptyStmt(out.Then) && out.Else == nil {
		return nil
	}
	return []ast.Stmt{out}
}

func emptyStmt(s ast.Stmt) bool {
	b, ok := s.(*ast.BlockStmt)
	return ok && len(b.Stmts) == 0
}

// wrap folds a rewritten statement list back into a single statement.
func (r *rewriter) wrap(stmts []ast.Stmt, orig ast.Stmt) ast.Stmt {
	if len(stmts) == 1 {
		return stmts[0]
	}
	pos := orig.Pos()
	return &ast.BlockStmt{Stmts: stmts, TokPos: pos}
}

func (r *rewriter) applyStmt(s *ast.CallStmt) []ast.Stmt {
	m := s.Call.Fun.(*ast.Member)
	id, ok := m.X.(*ast.Ident)
	if !ok {
		return []ast.Stmt{s}
	}
	return r.applyReplacement(r.control.Name+"."+id.Name, s)
}

// applyReplacement rewrites a table apply site per the table's
// implementation: dropped when removed, inlined to the constant
// action's body when possible, kept otherwise.
func (r *rewriter) applyReplacement(qname string, orig *ast.CallStmt) []ast.Stmt {
	impl := r.impl(qname)
	ti := r.s.An.Tables[qname]
	if impl == nil || ti == nil {
		return []ast.Stmt{orig}
	}
	if impl.removed {
		return nil
	}
	if impl.inlineParams == nil {
		return []ast.Stmt{orig}
	}
	act := ti.Actions[impl.constAction]
	if act.Decl == nil || len(act.Decl.Body.Stmts) == 0 {
		return nil // inlining a no-op
	}
	// Rewrite the body (pruning its own dead branches), then substitute
	// the constant parameters.
	var rewritten []ast.Stmt
	for _, st := range act.Decl.Body.Stmts {
		rewritten = append(rewritten, r.stmt(st)...)
	}
	params := make(map[string]ast.Expr, len(act.Decl.Params))
	for i, p := range act.Decl.Params {
		params[p.Name] = r.lit(impl.inlineParams[i], orig.TokPos)
	}
	return r.substStmts(rewritten, params)
}

// ---------------------------------------------------------------------------
// Identifier substitution (for action inlining). A subtree that holds no
// substituted identifier is returned as it is; every node a substitution
// copies is an original one, and the copy has its type.

func (r *rewriter) substStmts(stmts []ast.Stmt, env map[string]ast.Expr) []ast.Stmt {
	out := make([]ast.Stmt, 0, len(stmts))
	for _, s := range stmts {
		// A local declaration shadowing a parameter stops substitution
		// for the remaining statements.
		if vd, ok := s.(*ast.VarDecl); ok {
			if _, shadows := env[vd.Name]; shadows {
				env = copyEnvWithout(env, vd.Name)
			}
		}
		out = append(out, r.substStmt(s, env))
	}
	return out
}

func copyEnvWithout(env map[string]ast.Expr, name string) map[string]ast.Expr {
	n := make(map[string]ast.Expr, len(env))
	for k, v := range env {
		if k != name {
			n[k] = v
		}
	}
	return n
}

func (r *rewriter) substStmt(s ast.Stmt, env map[string]ast.Expr) ast.Stmt {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return &ast.BlockStmt{Stmts: r.substStmts(s.Stmts, env), TokPos: s.TokPos}
	case *ast.VarDecl:
		n := *s
		if s.Init != nil {
			n.Init = r.substExpr(s.Init, env)
		}
		return &n
	case *ast.AssignStmt:
		return &ast.AssignStmt{
			LHS:    r.substExpr(s.LHS, env),
			RHS:    r.substExpr(s.RHS, env),
			TokPos: s.TokPos,
		}
	case *ast.IfStmt:
		n := &ast.IfStmt{Cond: r.substExpr(s.Cond, env), TokPos: s.TokPos}
		n.Then = r.substStmt(s.Then, env)
		if s.Else != nil {
			n.Else = r.substStmt(s.Else, env)
		}
		return n
	case *ast.CallStmt:
		return &ast.CallStmt{Call: r.substExpr(s.Call, env).(*ast.CallExpr), TokPos: s.TokPos}
	default:
		return s
	}
}

func (r *rewriter) substExpr(e ast.Expr, env map[string]ast.Expr) ast.Expr {
	var n ast.Expr
	switch e := e.(type) {
	case *ast.Ident:
		if repl, ok := env[e.Name]; ok {
			return repl
		}
		return e
	case *ast.Member:
		x := r.substExpr(e.X, env)
		if x == e.X {
			return e
		}
		n = &ast.Member{X: x, Name: e.Name, TokPos: e.TokPos}
	case *ast.CallExpr:
		fun, args, copied := r.substExpr(e.Fun, env), e.Args, false
		for i, a := range e.Args {
			if na := r.substExpr(a, env); na != a {
				if !copied {
					args, copied = slices.Clone(e.Args), true
				}
				args[i] = na
			}
		}
		if fun == e.Fun && !copied {
			return e
		}
		n = &ast.CallExpr{Fun: fun, Args: args, TokPos: e.TokPos}
	case *ast.UnaryExpr:
		x := r.substExpr(e.X, env)
		if x == e.X {
			return e
		}
		n = &ast.UnaryExpr{Op: e.Op, X: x, TokPos: e.TokPos}
	case *ast.BinaryExpr:
		x, y := r.substExpr(e.X, env), r.substExpr(e.Y, env)
		if x == e.X && y == e.Y {
			return e
		}
		n = &ast.BinaryExpr{Op: e.Op, X: x, Y: y, TokPos: e.TokPos}
	case *ast.TernaryExpr:
		c, th, el := r.substExpr(e.Cond, env), r.substExpr(e.Then, env), r.substExpr(e.Else, env)
		if c == e.Cond && th == e.Then && el == e.Else {
			return e
		}
		n = &ast.TernaryExpr{Cond: c, Then: th, Else: el, TokPos: e.TokPos}
	case *ast.SliceExpr:
		x := r.substExpr(e.X, env)
		if x == e.X {
			return e
		}
		n = &ast.SliceExpr{X: x, Hi: e.Hi, Lo: e.Lo, TokPos: e.TokPos}
	default:
		return e
	}
	return r.typed(n, r.s.Info.TypeOf(e))
}

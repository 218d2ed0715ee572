package dataplane

import (
	"fmt"

	"repro/internal/p4/ast"
	"repro/internal/p4/typecheck"
	"repro/internal/sym"
)

// aliveSlot is the pseudo-variable tracking whether the pipeline is
// still processing (false after exit).
const aliveSlot = "$alive"

// Analyze runs the one-time data-plane pass over a checked program.
func Analyze(prog *ast.Program, info *typecheck.Info, opts Options) (*Analysis, error) {
	a := &analyzer{
		b:    sym.NewBuilder(),
		prog: prog,
		info: info,
		opts: opts,
	}
	a.an = &Analysis{
		Builder:       a.b,
		Prog:          prog,
		Info:          info,
		Tables:        make(map[string]*TableInfo),
		ValueSets:     make(map[string]*ValueSetInfo),
		Registers:     make(map[string]*RegisterInfo),
		Taint:         make(map[*sym.Expr][]int),
		VarOwner:      make(map[*sym.Expr]string),
		SkippedParser: opts.SkipParser,
	}
	sp := opts.Trace.Start("dataflow", opts.Parent)
	if err := a.run(); err != nil {
		opts.Trace.End(sp)
		return nil, err
	}
	opts.Trace.Attr(sp, "points", int64(len(a.an.Points)))
	opts.Trace.Attr(sp, "tables", int64(len(a.an.Tables)))
	opts.Trace.End(sp)

	sp = opts.Trace.Start("taint", opts.Parent)
	a.buildTaint()
	a.an.indexPoints()
	edges := 0
	for _, ids := range a.an.Taint {
		edges += len(ids)
	}
	opts.Trace.Attr(sp, "vars", int64(len(a.an.Taint)))
	opts.Trace.Attr(sp, "edges", int64(edges))
	opts.Trace.End(sp)

	opts.Metrics.Gauge("dp.points").Set(int64(len(a.an.Points)))
	opts.Metrics.Gauge("dp.tables").Set(int64(len(a.an.Tables)))
	opts.Metrics.Gauge("dp.taint_vars").Set(int64(len(a.an.Taint)))
	opts.Metrics.Gauge("dp.taint_edges").Set(int64(edges))
	opts.Metrics.Gauge("dp.expr_nodes").Set(int64(a.b.NumNodes()))
	return a.an, nil
}

type analyzer struct {
	b    *sym.Builder
	prog *ast.Program
	info *typecheck.Info
	opts Options
	an   *Analysis

	slotSeq int
	vsSeq   map[string]int
	regSeq  map[string]int
	// targets numbers the control targets — qualified tables, registers
	// and value sets, the units the control plane assigns — in order of
	// first appearance (ctrl).
	targets map[string]int
}

// ctrl makes a placeholder of control target q. Every placeholder of a
// target carries the target's number into the expression masks
// (sym.CtrlOf), which is how a substitution pass knows what a write to q
// can reach.
func (a *analyzer) ctrl(q, name string, w uint16) *sym.Expr {
	n, ok := a.targets[q]
	if !ok {
		n = len(a.targets)
		a.targets[q] = n
	}
	return a.b.CtrlOf(n, name, w)
}

// binding resolves an identifier: either to a store slot (variables,
// params standing for struct roots) or directly to an expression (action
// data parameters).
type binding struct {
	slot string
	expr *sym.Expr
}

type execCtx struct {
	a      *analyzer
	store  map[string]*sym.Expr
	scopes []map[string]binding
	path   []*sym.Expr

	controlName string
	control     *ast.ControlDecl
	parser      *ast.ParserDecl
	inAction    bool
}

func (a *analyzer) run() error {
	ctx := &execCtx{
		a:      a,
		store:  map[string]*sym.Expr{aliveSlot: a.b.True()},
		scopes: []map[string]binding{make(map[string]binding)},
	}
	a.vsSeq = make(map[string]int)
	a.regSeq = make(map[string]int)
	a.targets = make(map[string]int)

	// Bind every block's parameters up front; identical names share
	// storage, which is how state flows parser → ingress → egress.
	rootTypes := make(map[string]typecheck.T)
	bindParams := func(params []ast.Param) error {
		for _, p := range params {
			t := a.info.Resolve(p.Type)
			if t.Kind == typecheck.KPacket {
				ctx.scopes[0][p.Name] = binding{slot: "$packet:" + p.Name}
				continue
			}
			if prev, ok := rootTypes[p.Name]; ok {
				if prev != t {
					return errorf("parameter %s has type %s in one block and %s in another; pipeline parameters must agree", p.Name, prev, t)
				}
				continue
			}
			rootTypes[p.Name] = t
			ctx.scopes[0][p.Name] = binding{slot: p.Name}
			if err := a.initRoot(ctx, p.Name, t); err != nil {
				return err
			}
		}
		return nil
	}
	for _, pd := range a.prog.Parsers {
		if err := bindParams(pd.Params); err != nil {
			return err
		}
	}
	for _, cd := range a.prog.Controls {
		if err := bindParams(cd.Params); err != nil {
			return err
		}
	}

	if len(a.prog.Parsers) > 1 {
		return errorf("at most one parser is supported, found %d", len(a.prog.Parsers))
	}
	if len(a.prog.Parsers) == 1 && !a.opts.SkipParser {
		pd := a.prog.Parsers[0]
		ctx.parser = pd
		if err := a.execParserState(ctx, pd, "start", 0); err != nil {
			return err
		}
		ctx.parser = nil
	}

	for _, cd := range a.prog.Controls {
		ctx.control = cd
		ctx.controlName = cd.Name
		ctx.pushScope()
		// Control locals.
		for _, v := range cd.Locals {
			if err := a.declVar(ctx, v); err != nil {
				return err
			}
		}
		for _, r := range cd.Registers {
			q := cd.Name + "." + r.Name
			t := a.info.Resolve(r.Elem)
			a.an.Registers[q] = &RegisterInfo{
				Name: q, Control: cd.Name, Decl: r, Width: uint16(t.Width),
			}
			ctx.scopes[len(ctx.scopes)-1][r.Name] = binding{slot: "$register:" + q}
		}
		if err := a.execStmt(ctx, cd.Apply); err != nil {
			return err
		}
		ctx.popScope()
	}
	a.an.Final = ctx.store
	return nil
}

// initRoot seeds the store for a pipeline parameter.
func (a *analyzer) initRoot(ctx *execCtx, path string, t typecheck.T) error {
	haveParser := len(a.prog.Parsers) == 1 && !a.opts.SkipParser
	switch t.Kind {
	case typecheck.KHeader:
		h := a.prog.Header(t.Name)
		if haveParser {
			ctx.store[path+".$valid"] = a.b.False()
		} else {
			ctx.store[path+".$valid"] = a.b.Data(path+".$valid", 1)
		}
		for _, f := range h.Fields {
			ft := a.info.Resolve(f.Type)
			fp := path + "." + f.Name
			if haveParser {
				ctx.store[fp] = a.b.ConstUint(uint16(ft.Width), 0)
			} else {
				ctx.store[fp] = a.b.Data(fp, uint16(ft.Width))
			}
		}
		return nil
	case typecheck.KStruct:
		s := a.prog.Struct(t.Name)
		std := t.Name == "standard_metadata_t"
		for _, f := range s.Fields {
			ft := a.info.Resolve(f.Type)
			fp := path + "." + f.Name
			switch ft.Kind {
			case typecheck.KBits:
				// Standard-metadata inputs come from the environment;
				// user metadata is zero-initialised (BMv2 semantics).
				if std && (f.Name == "ingress_port" || f.Name == "packet_length") {
					ctx.store[fp] = a.b.Data(fp, uint16(ft.Width))
				} else {
					ctx.store[fp] = a.b.ConstUint(uint16(ft.Width), 0)
				}
			case typecheck.KBool:
				ctx.store[fp] = a.b.False()
			case typecheck.KHeader, typecheck.KStruct:
				if err := a.initRoot(ctx, fp, ft); err != nil {
					return err
				}
			default:
				return errorf("unsupported field type %s at %s", ft, fp)
			}
		}
		return nil
	case typecheck.KBits:
		ctx.store[path] = a.b.ConstUint(uint16(t.Width), 0)
		return nil
	case typecheck.KBool:
		ctx.store[path] = a.b.False()
		return nil
	default:
		return errorf("unsupported parameter type %s", t)
	}
}

// ---------------------------------------------------------------------------
// Context helpers

func (c *execCtx) pushScope() { c.scopes = append(c.scopes, make(map[string]binding)) }
func (c *execCtx) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *execCtx) lookup(name string) (binding, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if b, ok := c.scopes[i][name]; ok {
			return b, true
		}
	}
	return binding{}, false
}

func (c *execCtx) clone() *execCtx {
	n := *c
	n.store = make(map[string]*sym.Expr, len(c.store))
	for k, v := range c.store {
		n.store[k] = v
	}
	n.scopes = make([]map[string]binding, len(c.scopes))
	copy(n.scopes, c.scopes)
	n.path = append([]*sym.Expr(nil), c.path...)
	return &n
}

// pathCond is the executability condition at the current program point.
func (c *execCtx) pathCond() *sym.Expr {
	b := c.a.b
	cond := c.store[aliveSlot]
	for _, p := range c.path {
		cond = b.And(cond, p)
	}
	return cond
}

// assign writes a store slot, masking the effect when the pipeline has
// exited.
func (c *execCtx) assign(path string, v *sym.Expr) error {
	old, ok := c.store[path]
	if !ok {
		return errorf("assignment to unknown location %s", path)
	}
	alive := c.store[aliveSlot]
	if alive.IsTrue() {
		c.store[path] = v
	} else {
		c.store[path] = c.a.b.Ite(alive, v, old)
	}
	return nil
}

// mergeInto merges branch stores: for every slot, self[k] =
// ite(cond, then[k], else[k]). Slots missing from either side are
// branch-local and die here.
func (c *execCtx) mergeInto(cond *sym.Expr, thenStore, elseStore map[string]*sym.Expr) {
	b := c.a.b
	for k := range c.store {
		tv, tok := thenStore[k]
		ev, eok := elseStore[k]
		switch {
		case tok && eok:
			c.store[k] = b.Ite(cond, tv, ev)
		case tok:
			c.store[k] = tv
		case eok:
			c.store[k] = ev
		}
	}
}

func (a *analyzer) record(p *Point) *Point {
	p.ID = len(a.an.Points)
	a.an.Points = append(a.an.Points, p)
	return p
}

// ---------------------------------------------------------------------------
// Parser execution

func (a *analyzer) execParserState(ctx *execCtx, pd *ast.ParserDecl, name string, depth int) error {
	if name == "accept" || name == "reject" {
		// Rejected packets never reach the controls; we conservatively
		// treat reject like accept so every control path stays analysed.
		return nil
	}
	if depth > 64 {
		return errorf("parser state graph too deep (loop through %s?)", name)
	}
	st := pd.State(name)
	if st == nil {
		return errorf("unknown parser state %s", name)
	}
	for _, s := range st.Stmts {
		if err := a.execStmt(ctx, s); err != nil {
			return err
		}
	}
	tr := st.Trans
	if tr.Select == nil {
		return a.execParserState(ctx, pd, tr.Next, depth+1)
	}
	sel := make([]*sym.Expr, len(tr.Select))
	for i, e := range tr.Select {
		v, err := a.evalExpr(ctx, e)
		if err != nil {
			return err
		}
		sel[i] = v
	}
	return a.execSelect(ctx, pd, st, sel, tr.Cases, 0, depth)
}

// execSelect walks select cases with first-match semantics, merging the
// resulting stores.
func (a *analyzer) execSelect(ctx *execCtx, pd *ast.ParserDecl, st *ast.State, sel []*sym.Expr, cases []ast.SelectCase, i, depth int) error {
	b := a.b
	if i == len(cases) {
		// No case matched: P4 rejects; we stop parsing here (treated
		// like accept, see execParserState).
		return nil
	}
	cs := cases[i]
	cond := b.True()
	if !(len(cs.Keysets) == 1 && cs.Keysets[0].Kind == ast.KeysetDefault) {
		for ki, ks := range cs.Keysets {
			comp, err := a.keysetCond(ctx, pd, ks, sel[ki])
			if err != nil {
				return err
			}
			cond = b.And(cond, comp)
		}
	}
	a.record(&Point{
		Kind:        PointSelectCase,
		Expr:        b.And(ctx.pathCond(), cond),
		Control:     pd.Name,
		ParserState: st.Name,
		CaseIndex:   i,
	})
	if cond.IsTrue() {
		return a.execParserState(ctx, pd, cs.Next, depth+1)
	}
	thenCtx := ctx.clone()
	thenCtx.path = append(thenCtx.path, cond)
	if err := a.execParserState(thenCtx, pd, cs.Next, depth+1); err != nil {
		return err
	}
	elseCtx := ctx.clone()
	elseCtx.path = append(elseCtx.path, b.Not(cond))
	if err := a.execSelect(elseCtx, pd, st, sel, cases, i+1, depth); err != nil {
		return err
	}
	ctx.mergeInto(cond, thenCtx.store, elseCtx.store)
	return nil
}

func (a *analyzer) keysetCond(ctx *execCtx, pd *ast.ParserDecl, ks ast.Keyset, key *sym.Expr) (*sym.Expr, error) {
	b := a.b
	switch ks.Kind {
	case ast.KeysetDefault:
		return b.True(), nil
	case ast.KeysetValue:
		v, err := a.evalExpr(ctx, ks.Value)
		if err != nil {
			return nil, err
		}
		return b.Eq(key, v), nil
	case ast.KeysetMask:
		v, err := a.evalExpr(ctx, ks.Value)
		if err != nil {
			return nil, err
		}
		m, err := a.evalExpr(ctx, ks.Mask)
		if err != nil {
			return nil, err
		}
		return b.Eq(b.And(key, m), b.And(v, m)), nil
	case ast.KeysetValueSet:
		q := pd.Name + "." + ks.Ref
		var decl *ast.ValueSet
		for _, vs := range pd.ValueSets {
			if vs.Name == ks.Ref {
				decl = vs
			}
		}
		if decl == nil {
			return nil, errorf("unknown value_set %s", ks.Ref)
		}
		site := a.vsSeq[q]
		a.vsSeq[q] = site + 1
		mv := a.ctrl(q, fmt.Sprintf("%s#%d", q, site), 1)
		vi := &ValueSetInfo{
			Name:     q,
			Parser:   pd.Name,
			Decl:     decl,
			KeyExpr:  key,
			Width:    key.Width,
			MatchVar: mv,
		}
		a.an.ValueSets[fmt.Sprintf("%s#%d", q, site)] = vi
		a.an.VarOwner[mv] = q
		return mv, nil
	default:
		return nil, errorf("unknown keyset kind")
	}
}

// ---------------------------------------------------------------------------
// Statements

func (a *analyzer) execStmt(ctx *execCtx, s ast.Stmt) error {
	switch s := s.(type) {
	case *ast.BlockStmt:
		ctx.pushScope()
		for _, inner := range s.Stmts {
			if err := a.execStmt(ctx, inner); err != nil {
				return err
			}
		}
		ctx.popScope()
		return nil
	case *ast.VarDecl:
		return a.declVar(ctx, s)
	case *ast.AssignStmt:
		v, err := a.evalExpr(ctx, s.RHS)
		if err != nil {
			return err
		}
		a.record(&Point{
			Kind:    PointAssignValue,
			Expr:    v,
			Control: ctx.controlName,
			Assign:  s,
		})
		path, err := a.lvaluePath(ctx, s.LHS)
		if err != nil {
			return err
		}
		return ctx.assign(path, v)
	case *ast.IfStmt:
		return a.execIf(ctx, s)
	case *ast.CallStmt:
		return a.execCall(ctx, s.Call)
	case *ast.ExitStmt:
		ctx.store[aliveSlot] = a.b.False()
		return nil
	default:
		return errorf("unsupported statement %T", s)
	}
}

func (a *analyzer) declVar(ctx *execCtx, v *ast.VarDecl) error {
	t := a.info.Resolve(v.Type)
	a.slotSeq++
	slot := fmt.Sprintf("%s.%s#%d", ctx.controlName, v.Name, a.slotSeq)
	var init *sym.Expr
	if v.Init != nil {
		var err error
		init, err = a.evalExpr(ctx, v.Init)
		if err != nil {
			return err
		}
	} else if t.Kind == typecheck.KBool {
		init = a.b.False()
	} else {
		init = a.b.ConstUint(uint16(t.Width), 0)
	}
	ctx.store[slot] = init
	ctx.scopes[len(ctx.scopes)-1][v.Name] = binding{slot: slot}
	return nil
}

func (a *analyzer) execIf(ctx *execCtx, s *ast.IfStmt) error {
	b := a.b
	cond, err := a.evalCond(ctx, s.Cond)
	if err != nil {
		return err
	}
	pc := ctx.pathCond()
	a.record(&Point{
		Kind: PointIfBranch, Expr: b.And(pc, cond),
		Control: ctx.controlName, If: s, ThenBranch: true,
	})
	a.record(&Point{
		Kind: PointIfBranch, Expr: b.And(pc, b.Not(cond)),
		Control: ctx.controlName, If: s, ThenBranch: false,
	})
	thenCtx := ctx.clone()
	thenCtx.path = append(thenCtx.path, cond)
	if err := a.execStmt(thenCtx, s.Then); err != nil {
		return err
	}
	elseCtx := ctx.clone()
	elseCtx.path = append(elseCtx.path, b.Not(cond))
	if s.Else != nil {
		if err := a.execStmt(elseCtx, s.Else); err != nil {
			return err
		}
	}
	ctx.mergeInto(cond, thenCtx.store, elseCtx.store)
	return nil
}

// evalCond evaluates an if condition, handling the side-effecting
// `t.apply().hit` form.
func (a *analyzer) evalCond(ctx *execCtx, e ast.Expr) (*sym.Expr, error) {
	if m, ok := e.(*ast.Member); ok && m.Name == "hit" {
		if call, ok := m.X.(*ast.CallExpr); ok {
			ti, err := a.tableOfApply(ctx, call)
			if err != nil {
				return nil, err
			}
			if err := a.execTableApply(ctx, ti); err != nil {
				return nil, err
			}
			return ti.HitVar, nil
		}
	}
	// Reject other side-effecting conditions.
	var applyErr error
	ast.WalkExprs(e, func(sub ast.Expr) {
		if call, ok := sub.(*ast.CallExpr); ok {
			if m, ok := call.Fun.(*ast.Member); ok && m.Name == "apply" {
				applyErr = errorf("table apply inside a compound condition is not supported; use `if (t.apply().hit)` alone")
			}
		}
	})
	if applyErr != nil {
		return nil, applyErr
	}
	return a.evalExpr(ctx, e)
}

func (a *analyzer) execCall(ctx *execCtx, call *ast.CallExpr) error {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "mark_to_drop":
			path, err := a.lvaluePath(ctx, call.Args[0])
			if err != nil {
				return err
			}
			return ctx.assign(path+".drop", a.b.True())
		case "count":
			return nil // counters have no data-plane-visible effect
		default:
			// Direct action call: inline the body with argument exprs.
			if ctx.control == nil {
				return errorf("call to %s outside a control", fun.Name)
			}
			act := ctx.control.Action(fun.Name)
			if act == nil {
				return errorf("unknown function %s", fun.Name)
			}
			ctx.pushScope()
			for i, p := range act.Params {
				v, err := a.evalExpr(ctx, call.Args[i])
				if err != nil {
					ctx.popScope()
					return err
				}
				ctx.scopes[len(ctx.scopes)-1][p.Name] = binding{expr: v}
			}
			wasInAction := ctx.inAction
			ctx.inAction = true
			err := a.execStmt(ctx, act.Body)
			ctx.inAction = wasInAction
			ctx.popScope()
			return err
		}
	case *ast.Member:
		switch fun.Name {
		case "apply":
			ti, err := a.tableOfApply(ctx, call)
			if err != nil {
				return err
			}
			return a.execTableApply(ctx, ti)
		case "setValid":
			path, err := a.lvaluePath(ctx, fun.X)
			if err != nil {
				return err
			}
			return ctx.assign(path+".$valid", a.b.True())
		case "setInvalid":
			path, err := a.lvaluePath(ctx, fun.X)
			if err != nil {
				return err
			}
			return ctx.assign(path+".$valid", a.b.False())
		case "extract":
			path, err := a.lvaluePath(ctx, call.Args[0])
			if err != nil {
				return err
			}
			ht := a.info.TypeOf(call.Args[0])
			h := a.prog.Header(ht.Name)
			if h == nil {
				return errorf("extract of non-header %s", path)
			}
			if err := ctx.assign(path+".$valid", a.b.True()); err != nil {
				return err
			}
			for _, f := range h.Fields {
				ft := a.info.Resolve(f.Type)
				fp := path + "." + f.Name
				if err := ctx.assign(fp, a.b.Data(fp, uint16(ft.Width))); err != nil {
					return err
				}
			}
			return nil
		case "read":
			bnd, q, err := a.registerOf(ctx, fun.X)
			if err != nil {
				return err
			}
			_ = bnd
			ri := a.an.Registers[q]
			site := a.regSeq[q]
			a.regSeq[q] = site + 1
			rv := a.ctrl(q, fmt.Sprintf("%s#%d", q, site), ri.Width)
			ri.ReadVars = append(ri.ReadVars, rv)
			a.an.VarOwner[rv] = q
			dst, err := a.lvaluePath(ctx, call.Args[0])
			if err != nil {
				return err
			}
			return ctx.assign(dst, rv)
		case "write":
			// Data-plane register writes do not feed back into this
			// packet's analysis (documented approximation), but they do
			// disqualify the register from fill-constant specialization.
			_, q, err := a.registerOf(ctx, fun.X)
			if err != nil {
				return err
			}
			a.an.Registers[q].Written = true
			return nil
		default:
			return errorf("unknown method %s", fun.Name)
		}
	default:
		return errorf("invalid call")
	}
}

func (a *analyzer) registerOf(ctx *execCtx, e ast.Expr) (binding, string, error) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return binding{}, "", errorf("register reference must be an identifier")
	}
	bnd, ok := ctx.lookup(id.Name)
	if !ok || len(bnd.slot) < 10 || bnd.slot[:10] != "$register:" {
		return binding{}, "", errorf("%s is not a register", id.Name)
	}
	return bnd, bnd.slot[10:], nil
}

// ---------------------------------------------------------------------------
// Table application

func (a *analyzer) tableOfApply(ctx *execCtx, call *ast.CallExpr) (*TableInfo, error) {
	m := call.Fun.(*ast.Member)
	id, ok := m.X.(*ast.Ident)
	if !ok {
		return nil, errorf("table apply target must be a table name")
	}
	if ctx.control == nil {
		return nil, errorf("table apply outside a control")
	}
	tbl := ctx.control.Table(id.Name)
	if tbl == nil {
		return nil, errorf("unknown table %s", id.Name)
	}
	q := ctx.controlName + "." + id.Name
	if ti, ok := a.an.Tables[q]; ok {
		return ti, nil
	}
	ti := &TableInfo{
		Name:    q,
		Control: ctx.controlName,
		Table:   tbl,
		Decl:    ctx.control,
	}
	// Resolve the action list and the default.
	defaultName := "NoAction"
	if tbl.Default != nil {
		defaultName = tbl.Default.Name
	}
	ti.DefaultIndex = -1
	for i, ar := range tbl.Actions {
		ai := ActionInfo{Name: ar.Name}
		if ar.Name != "NoAction" {
			ai.Decl = ctx.control.Action(ar.Name)
			for _, p := range ai.Decl.Params {
				pt := a.info.Resolve(p.Type)
				w := uint16(pt.Width)
				if pt.Kind == typecheck.KBool {
					w = 1
				}
				pv := a.ctrl(q, fmt.Sprintf("%s.%s.%s", q, ar.Name, p.Name), w)
				ai.Params = append(ai.Params, pv)
				ai.ParamWidths = append(ai.ParamWidths, w)
				a.an.VarOwner[pv] = q
			}
		}
		if ar.Name == defaultName {
			ti.DefaultIndex = i
		}
		ti.Actions = append(ti.Actions, ai)
	}
	if ti.DefaultIndex < 0 {
		// An implicit NoAction default that isn't in the actions list:
		// append it.
		ti.DefaultIndex = len(ti.Actions)
		ti.Actions = append(ti.Actions, ActionInfo{Name: "NoAction"})
	}
	if tbl.Default != nil {
		for i, argE := range tbl.Default.Args {
			t := a.info.TypeOf(argE)
			lit, ok := argE.(*ast.IntLit)
			if !ok {
				return nil, errorf("table %s: default_action arguments must be literals", q)
			}
			_ = i
			ti.DefaultArgs = append(ti.DefaultArgs, sym.NewBV2(uint16(t.Width), lit.Hi, lit.Lo))
		}
	}
	ti.ActionVar = a.ctrl(q, q+".$action", 8)
	ti.HitVar = a.ctrl(q, q+".$hit", 1)
	a.an.VarOwner[ti.ActionVar] = q
	a.an.VarOwner[ti.HitVar] = q
	a.an.Tables[q] = ti
	a.an.TableOrder = append(a.an.TableOrder, q)
	return ti, nil
}

func (a *analyzer) execTableApply(ctx *execCtx, ti *TableInfo) error {
	b := a.b
	if ti.applied {
		return errorf("table %s is applied more than once; each table may have a single apply site", ti.Name)
	}
	ti.applied = true
	for _, k := range ti.Table.Keys {
		kv, err := a.evalExpr(ctx, k.Expr)
		if err != nil {
			return err
		}
		ti.KeyExprs = append(ti.KeyExprs, kv)
		ti.KeyWidths = append(ti.KeyWidths, kv.Width)
		ti.KeyMatch = append(ti.KeyMatch, k.Match)
	}
	reach := ctx.pathCond()
	a.record(&Point{
		Kind: PointTableReach, Expr: reach,
		Control: ctx.controlName, Table: ti.Name,
	})
	a.record(&Point{
		Kind: PointTableAction, Expr: ti.ActionVar,
		Control: ctx.controlName, Table: ti.Name,
	})

	// Execute every action body on its own copy of the state, then
	// merge with an ite chain over the selector (state merging).
	stores := make([]map[string]*sym.Expr, len(ti.Actions))
	for i, ai := range ti.Actions {
		guard := b.Eq(ti.ActionVar, b.ConstUint(8, uint64(i)))
		a.record(&Point{
			Kind: PointActionReach, Expr: b.And(reach, guard),
			Control: ctx.controlName, Table: ti.Name, ActionIndex: i,
		})
		if ai.Decl == nil { // NoAction
			stores[i] = ctx.store
			continue
		}
		actCtx := ctx.clone()
		actCtx.path = append(actCtx.path, guard)
		actCtx.pushScope()
		for pi, p := range ai.Decl.Params {
			actCtx.scopes[len(actCtx.scopes)-1][p.Name] = binding{expr: ai.Params[pi]}
		}
		actCtx.inAction = true
		if err := a.execStmt(actCtx, ai.Decl.Body); err != nil {
			return err
		}
		actCtx.popScope()
		stores[i] = actCtx.store
	}
	// Fold: result = ite(av==0, s0, ite(av==1, s1, ... s_{n-1})).
	merged := stores[len(stores)-1]
	for i := len(stores) - 2; i >= 0; i-- {
		guard := b.Eq(ti.ActionVar, b.ConstUint(8, uint64(i)))
		next := make(map[string]*sym.Expr, len(ctx.store))
		for k := range ctx.store {
			tv, tok := stores[i][k]
			ev, eok := merged[k]
			switch {
			case tok && eok:
				next[k] = b.Ite(guard, tv, ev)
			case tok:
				next[k] = tv
			case eok:
				next[k] = ev
			}
		}
		merged = next
	}
	ctx.store = merged
	return nil
}

// Package typecheck resolves names and widths for a parsed program and
// validates the constructs the rest of goflay relies on: field paths,
// table shapes, action references, parser transitions and expression
// widths.
package typecheck

import (
	"fmt"
	"strings"

	"repro/internal/p4/ast"
	"repro/internal/p4/token"
)

// Kind classifies a resolved type.
type Kind uint8

const (
	// KInvalid marks an unresolved type.
	KInvalid Kind = iota
	// KBits is bit<W>.
	KBits
	// KBool is bool.
	KBool
	// KHeader is a header instance.
	KHeader
	// KStruct is a struct instance.
	KStruct
	// KTable is a table reference.
	KTable
	// KRegister is a register reference.
	KRegister
	// KPacket is the packet_in extern.
	KPacket
	// KApplyResult is the value of table.apply(), carrying .hit.
	KApplyResult
	// KVoid is the result of an effectful call.
	KVoid
)

// T is a resolved type.
type T struct {
	Kind  Kind
	Width int    // KBits
	Name  string // KHeader/KStruct type name, KTable/KRegister object name
}

func (t T) String() string {
	switch t.Kind {
	case KBits:
		return fmt.Sprintf("bit<%d>", t.Width)
	case KBool:
		return "bool"
	case KHeader:
		return "header " + t.Name
	case KStruct:
		return "struct " + t.Name
	case KTable:
		return "table " + t.Name
	case KRegister:
		return "register " + t.Name
	case KPacket:
		return "packet_in"
	case KApplyResult:
		return "apply_result"
	case KVoid:
		return "void"
	default:
		return "invalid"
	}
}

// Val is a compile-time constant value.
type Val struct {
	Width  int
	Hi, Lo uint64
}

// Info is the result of checking: resolved types for every expression,
// constant values, and helpers the analyzer and interpreter use.
type Info struct {
	Prog *ast.Program
	// Types records the resolved type of every checked expression,
	// including the inferred width of unsized integer literals. A
	// derived Info (Derive) shares the checked original's; read types
	// through TypeOf.
	Types map[ast.Expr]T
	// Consts maps a constant's name to its value (program-level and
	// control-level consts share a namespace; duplicates are rejected).
	Consts map[string]Val
	// HeaderBits maps header type name to total bit width.
	HeaderBits map[string]int

	resolvedTypedefs map[string]ast.Type
	// created holds the types of the nodes a rewrite made (Derive);
	// TypeOf looks here before Types.
	created map[ast.Expr]T
}

// TypeOf returns the resolved type of e; KInvalid if e was never checked.
func (in *Info) TypeOf(e ast.Expr) T {
	if t, ok := in.created[e]; ok {
		return t
	}
	return in.Types[e]
}

// Derive returns the Info of prog, a rewrite of in.Prog that keeps its
// typedefs, consts, headers and structs, without checking prog again:
// every node prog shares with in.Prog keeps its type, and created gives
// the type of each expression node the rewrite made. in is an Info
// Check returned; the result shares its tables, and neither is modified.
func (in *Info) Derive(prog *ast.Program, created map[ast.Expr]T) *Info {
	d := *in
	d.Prog, d.created = prog, created
	return &d
}

// Resolve maps a syntactic type to its resolved form, following
// typedefs. Unknown names yield KInvalid (checking has already reported
// them).
func (in *Info) Resolve(t ast.Type) T {
	switch t.Kind {
	case ast.TypeBit:
		return T{Kind: KBits, Width: t.Width}
	case ast.TypeBool:
		return T{Kind: KBool}
	case ast.TypeNamed:
		if t.Name == "packet_in" {
			return T{Kind: KPacket}
		}
		if under, ok := in.resolvedTypedefs[t.Name]; ok {
			return in.Resolve(under)
		}
		if in.Prog.Header(t.Name) != nil {
			return T{Kind: KHeader, Name: t.Name}
		}
		if in.Prog.Struct(t.Name) != nil {
			return T{Kind: KStruct, Name: t.Name}
		}
		return T{}
	default:
		return T{}
	}
}

// FieldPath returns the canonical dotted path of a variable or field
// reference expression ("hdr.eth.dst", "meta.nexthop", "egress_port") and
// whether e is such a reference.
func FieldPath(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.Member:
		base, ok := FieldPath(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Name, true
	default:
		return "", false
	}
}

// Error is a type error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList collects multiple type errors.
type ErrorList []*Error

func (l ErrorList) Error() string {
	parts := make([]string, 0, len(l))
	for i, e := range l {
		if i == 8 {
			parts = append(parts, fmt.Sprintf("... and %d more", len(l)-i))
			break
		}
		parts = append(parts, e.Error())
	}
	return strings.Join(parts, "\n")
}

type checker struct {
	prog *ast.Program
	info *Info
	errs ErrorList

	headers map[string]*ast.HeaderDecl
	structs map[string]*ast.StructDecl

	// Current scope chain for identifier resolution.
	scopes []map[string]T
}

// Check validates the program and returns resolved type information.
func Check(prog *ast.Program) (*Info, error) {
	c := &checker{
		prog: prog,
		info: &Info{
			Prog:             prog,
			Types:            make(map[ast.Expr]T, countExprs(prog)),
			Consts:           make(map[string]Val),
			HeaderBits:       make(map[string]int),
			resolvedTypedefs: make(map[string]ast.Type),
		},
		headers: make(map[string]*ast.HeaderDecl),
		structs: make(map[string]*ast.StructDecl),
	}
	c.injectStandardMetadata()
	c.collectTypes()
	c.collectConsts()
	for _, pd := range prog.Parsers {
		c.checkParser(pd)
	}
	for _, cd := range prog.Controls {
		c.checkControl(cd)
	}
	if len(c.errs) > 0 {
		return nil, c.errs
	}
	return c.info, nil
}

// countExprs counts the expression nodes of prog — about the entries
// Check records in Info.Types, so the map is sized once instead of
// growing through every doubling.
func countExprs(prog *ast.Program) int {
	n := 0
	expr := func(e ast.Expr) { ast.WalkExprs(e, func(ast.Expr) { n++ }) }
	stmt := func(s ast.Stmt) {
		ast.WalkStmts(s, func(s ast.Stmt) {
			switch s := s.(type) {
			case *ast.VarDecl:
				expr(s.Init)
			case *ast.AssignStmt:
				expr(s.LHS)
				expr(s.RHS)
			case *ast.IfStmt:
				expr(s.Cond)
			case *ast.CallStmt:
				expr(s.Call)
			}
		})
	}
	for _, cd := range prog.Consts {
		expr(cd.Value)
	}
	for _, pd := range prog.Parsers {
		for _, st := range pd.States {
			for _, s := range st.Stmts {
				stmt(s)
			}
			for _, e := range st.Trans.Select {
				expr(e)
			}
			for _, cs := range st.Trans.Cases {
				for _, ks := range cs.Keysets {
					expr(ks.Value)
					expr(ks.Mask)
				}
			}
		}
	}
	for _, cd := range prog.Controls {
		for _, k := range cd.Consts {
			expr(k.Value)
		}
		for _, v := range cd.Locals {
			stmt(v)
		}
		for _, a := range cd.Actions {
			stmt(a.Body)
		}
		for _, t := range cd.Tables {
			for _, k := range t.Keys {
				expr(k.Expr)
			}
			if t.Default != nil {
				for _, a := range t.Default.Args {
					expr(a)
				}
			}
		}
		stmt(cd.Apply)
	}
	return n
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// injectStandardMetadata provides the builtin standard_metadata_t struct
// when the program references it without declaring it, mirroring the
// v1model convention.
func (c *checker) injectStandardMetadata() {
	const name = "standard_metadata_t"
	if c.prog.Struct(name) != nil {
		return
	}
	used := false
	for _, pd := range c.prog.Parsers {
		for _, p := range pd.Params {
			if p.Type.Kind == ast.TypeNamed && p.Type.Name == name {
				used = true
			}
		}
	}
	for _, cd := range c.prog.Controls {
		for _, p := range cd.Params {
			if p.Type.Kind == ast.TypeNamed && p.Type.Name == name {
				used = true
			}
		}
	}
	if !used {
		return
	}
	c.prog.Structs = append(c.prog.Structs, &ast.StructDecl{
		Name: name,
		Fields: []ast.Field{
			{Type: ast.Type{Kind: ast.TypeBit, Width: 9}, Name: "ingress_port"},
			{Type: ast.Type{Kind: ast.TypeBit, Width: 9}, Name: "egress_port"},
			{Type: ast.Type{Kind: ast.TypeBit, Width: 1}, Name: "drop"},
			{Type: ast.Type{Kind: ast.TypeBit, Width: 16}, Name: "mcast_grp"},
			{Type: ast.Type{Kind: ast.TypeBit, Width: 32}, Name: "packet_length"},
		},
	})
}

func (c *checker) collectTypes() {
	for _, td := range c.prog.Typedefs {
		if _, dup := c.info.resolvedTypedefs[td.Name]; dup {
			c.errorf(td.Pos(), "duplicate typedef %s", td.Name)
			continue
		}
		c.info.resolvedTypedefs[td.Name] = td.Type
	}
	for _, h := range c.prog.Headers {
		if _, dup := c.headers[h.Name]; dup {
			c.errorf(h.Pos(), "duplicate header %s", h.Name)
			continue
		}
		c.headers[h.Name] = h
	}
	for _, s := range c.prog.Structs {
		if _, dup := c.structs[s.Name]; dup {
			c.errorf(s.Pos(), "duplicate struct %s", s.Name)
			continue
		}
		c.structs[s.Name] = s
	}
	// Validate member types once every type name is known.
	for _, h := range c.prog.Headers {
		total := 0
		for _, f := range h.Fields {
			ft := c.resolve(f.Type, f.Pos())
			if ft.Kind != KBits {
				c.errorf(f.Pos(), "header %s field %s must have bit type, has %s", h.Name, f.Name, ft)
				continue
			}
			total += ft.Width
		}
		c.info.HeaderBits[h.Name] = total
	}
	for _, s := range c.prog.Structs {
		for _, f := range s.Fields {
			ft := c.resolve(f.Type, f.Pos())
			switch ft.Kind {
			case KBits, KBool, KHeader, KStruct:
			default:
				c.errorf(f.Pos(), "struct %s field %s has unsupported type %s", s.Name, f.Name, ft)
			}
		}
	}
}

func (c *checker) collectConsts() {
	for _, cd := range c.prog.Consts {
		c.addConst(cd)
	}
	for _, ctrl := range c.prog.Controls {
		for _, cd := range ctrl.Consts {
			c.addConst(cd)
		}
	}
}

func (c *checker) addConst(cd *ast.ConstDecl) {
	t := c.resolve(cd.Type, cd.Pos())
	if t.Kind != KBits {
		c.errorf(cd.Pos(), "const %s must have bit type", cd.Name)
		return
	}
	lit, ok := cd.Value.(*ast.IntLit)
	if !ok {
		c.errorf(cd.Pos(), "const %s initializer must be an integer literal", cd.Name)
		return
	}
	if lit.Width != 0 && lit.Width != t.Width {
		c.errorf(cd.Pos(), "const %s: literal width %d does not match type width %d", cd.Name, lit.Width, t.Width)
		return
	}
	if _, dup := c.info.Consts[cd.Name]; dup {
		c.errorf(cd.Pos(), "duplicate const %s", cd.Name)
		return
	}
	c.info.Types[cd.Value] = T{Kind: KBits, Width: t.Width}
	c.info.Consts[cd.Name] = Val{Width: t.Width, Hi: lit.Hi, Lo: lit.Lo}
}

// resolve maps a syntactic type to a resolved one, following typedefs.
func (c *checker) resolve(t ast.Type, pos token.Pos) T {
	switch t.Kind {
	case ast.TypeBit:
		if t.Width < 1 || t.Width > 128 {
			c.errorf(pos, "bit width %d out of supported range 1..128", t.Width)
			return T{}
		}
		return T{Kind: KBits, Width: t.Width}
	case ast.TypeBool:
		return T{Kind: KBool}
	case ast.TypeNamed:
		if t.Name == "packet_in" {
			return T{Kind: KPacket}
		}
		if under, ok := c.info.resolvedTypedefs[t.Name]; ok {
			return c.resolve(under, pos)
		}
		if _, ok := c.headers[t.Name]; ok {
			return T{Kind: KHeader, Name: t.Name}
		}
		if _, ok := c.structs[t.Name]; ok {
			return T{Kind: KStruct, Name: t.Name}
		}
		c.errorf(pos, "unknown type %s", t.Name)
		return T{}
	default:
		c.errorf(pos, "invalid type")
		return T{}
	}
}

// ---------------------------------------------------------------------------
// Scopes

func (c *checker) pushScope() { c.scopes = append(c.scopes, make(map[string]T)) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(name string, t T, pos token.Pos) {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[name]; dup {
		c.errorf(pos, "redeclaration of %s", name)
		return
	}
	top[name] = t
}

func (c *checker) lookup(name string) (T, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if t, ok := c.scopes[i][name]; ok {
			return t, true
		}
	}
	if v, ok := c.info.Consts[name]; ok {
		return T{Kind: KBits, Width: v.Width}, true
	}
	return T{}, false
}

// ---------------------------------------------------------------------------
// Parsers

func (c *checker) checkParser(pd *ast.ParserDecl) {
	c.pushScope()
	defer c.popScope()
	for _, p := range pd.Params {
		c.declare(p.Name, c.resolve(p.Type, p.Pos()), p.Pos())
	}
	vsets := make(map[string]T, len(pd.ValueSets))
	for _, vs := range pd.ValueSets {
		t := c.resolve(vs.Type, vs.Pos())
		if t.Kind != KBits {
			c.errorf(vs.Pos(), "value_set %s must have bit element type", vs.Name)
			continue
		}
		if _, dup := vsets[vs.Name]; dup {
			c.errorf(vs.Pos(), "duplicate value_set %s", vs.Name)
		}
		vsets[vs.Name] = t
	}
	if pd.State("start") == nil {
		c.errorf(pd.Pos(), "parser %s has no start state", pd.Name)
	}
	seen := make(map[string]bool, len(pd.States))
	for _, st := range pd.States {
		if seen[st.Name] {
			c.errorf(st.Pos(), "duplicate state %s", st.Name)
		}
		seen[st.Name] = true
	}
	for _, st := range pd.States {
		c.pushScope()
		for _, s := range st.Stmts {
			c.checkStmt(s, stmtCtx{inParser: true})
		}
		c.checkTransition(pd, st, vsets)
		c.popScope()
	}
}

func (c *checker) checkTransition(pd *ast.ParserDecl, st *ast.State, vsets map[string]T) {
	tr := &st.Trans
	validTarget := func(name string, pos token.Pos) {
		if name == "accept" || name == "reject" {
			return
		}
		if pd.State(name) == nil {
			c.errorf(pos, "transition to unknown state %s", name)
		}
	}
	if tr.Select == nil {
		validTarget(tr.Next, tr.Pos())
		return
	}
	selTypes := make([]T, len(tr.Select))
	for i, e := range tr.Select {
		selTypes[i] = c.checkExpr(e, 0)
		if selTypes[i].Kind != KBits {
			c.errorf(e.Pos(), "select expression must have bit type, has %s", selTypes[i])
		}
	}
	for ci := range tr.Cases {
		cs := &tr.Cases[ci]
		validTarget(cs.Next, cs.TokPos)
		if len(cs.Keysets) == 1 && cs.Keysets[0].Kind == ast.KeysetDefault {
			continue
		}
		for ki := range cs.Keysets {
			ks := &cs.Keysets[ki]
			want := 0
			if ki < len(selTypes) {
				want = selTypes[ki].Width
			}
			switch ks.Kind {
			case ast.KeysetDefault:
			case ast.KeysetValue:
				c.checkExprWidth(ks.Value, want)
			case ast.KeysetMask:
				c.checkExprWidth(ks.Value, want)
				c.checkExprWidth(ks.Mask, want)
			case ast.KeysetValueSet:
				vt, ok := vsets[ks.Ref]
				if !ok {
					c.errorf(ks.TokPos, "unknown value_set %s in select", ks.Ref)
					continue
				}
				if vt.Width != want {
					c.errorf(ks.TokPos, "value_set %s width %d does not match select component width %d", ks.Ref, vt.Width, want)
				}
			}
		}
	}
}

// checkExprWidth checks e as bits of exactly width want (inferring
// literal widths).
func (c *checker) checkExprWidth(e ast.Expr, want int) {
	t := c.checkExpr(e, want)
	if t.Kind != KBits {
		c.errorf(e.Pos(), "expected bit<%d> expression, found %s", want, t)
		return
	}
	if t.Width != want {
		c.errorf(e.Pos(), "width mismatch: expected %d bits, found %d", want, t.Width)
	}
}

// ---------------------------------------------------------------------------
// Controls

func (c *checker) checkControl(cd *ast.ControlDecl) {
	c.pushScope()
	defer c.popScope()
	for _, p := range cd.Params {
		c.declare(p.Name, c.resolve(p.Type, p.Pos()), p.Pos())
	}
	for _, r := range cd.Registers {
		et := c.resolve(r.Elem, r.Pos())
		if et.Kind != KBits {
			c.errorf(r.Pos(), "register %s element must have bit type", r.Name)
		}
		if r.Size < 1 {
			c.errorf(r.Pos(), "register %s must have positive size", r.Name)
		}
		c.declare(r.Name, T{Kind: KRegister, Name: r.Name}, r.Pos())
	}
	for _, v := range cd.Locals {
		t := c.resolve(v.Type, v.Pos())
		if t.Kind != KBits && t.Kind != KBool {
			c.errorf(v.Pos(), "control local %s must be bit or bool", v.Name)
		}
		if v.Init != nil {
			c.checkInit(v, t)
		}
		c.declare(v.Name, t, v.Pos())
	}
	// Actions first (tables refer to them), then tables, then apply.
	actions := make(map[string]*ast.Action, len(cd.Actions))
	for _, a := range cd.Actions {
		if _, dup := actions[a.Name]; dup {
			c.errorf(a.Pos(), "duplicate action %s", a.Name)
		}
		actions[a.Name] = a
		c.checkAction(a)
	}
	for _, t := range cd.Tables {
		c.checkTable(cd, t, actions)
		c.declare(t.Name, T{Kind: KTable, Name: t.Name}, t.Pos())
	}
	c.pushScope()
	c.checkStmt(cd.Apply, stmtCtx{control: cd})
	c.popScope()
}

func (c *checker) checkAction(a *ast.Action) {
	c.pushScope()
	defer c.popScope()
	for _, p := range a.Params {
		if p.Dir != "" {
			c.errorf(p.Pos(), "action %s: only direction-less (control-plane) parameters are supported", a.Name)
		}
		t := c.resolve(p.Type, p.Pos())
		if t.Kind != KBits && t.Kind != KBool {
			c.errorf(p.Pos(), "action %s parameter %s must be bit or bool", a.Name, p.Name)
		}
		c.declare(p.Name, t, p.Pos())
	}
	c.checkStmt(a.Body, stmtCtx{inAction: true})
}

func (c *checker) checkTable(cd *ast.ControlDecl, t *ast.Table, actions map[string]*ast.Action) {
	for _, k := range t.Keys {
		kt := c.checkExpr(k.Expr, 0)
		if kt.Kind != KBits {
			c.errorf(k.Expr.Pos(), "table %s key must have bit type, has %s", t.Name, kt)
		}
	}
	if len(t.Actions) == 0 {
		c.errorf(t.Pos(), "table %s lists no actions", t.Name)
	}
	seen := make(map[string]bool, len(t.Actions))
	for _, ar := range t.Actions {
		if seen[ar.Name] {
			c.errorf(ar.TokPos, "table %s lists action %s twice", t.Name, ar.Name)
		}
		seen[ar.Name] = true
		if ar.Name == "NoAction" {
			continue
		}
		if _, ok := actions[ar.Name]; !ok {
			c.errorf(ar.TokPos, "table %s references unknown action %s", t.Name, ar.Name)
		}
	}
	if t.Default != nil {
		d := t.Default
		if d.Name != "NoAction" {
			act, ok := actions[d.Name]
			if !ok {
				c.errorf(d.TokPos, "table %s default_action references unknown action %s", t.Name, d.Name)
			} else {
				if !seen[d.Name] {
					c.errorf(d.TokPos, "table %s default_action %s is not in the actions list", t.Name, d.Name)
				}
				if len(d.Args) != len(act.Params) {
					c.errorf(d.TokPos, "table %s default_action %s: %d args, want %d", t.Name, d.Name, len(d.Args), len(act.Params))
				} else {
					for i, argE := range d.Args {
						pt := c.resolve(act.Params[i].Type, act.Params[i].Pos())
						if pt.Kind == KBits {
							c.checkExprWidth(argE, pt.Width)
						} else {
							at := c.checkExpr(argE, 0)
							if at.Kind != KBool {
								c.errorf(argE.Pos(), "default_action arg %d must be bool", i)
							}
						}
					}
				}
			}
		} else if len(d.Args) != 0 {
			c.errorf(d.TokPos, "NoAction takes no arguments")
		}
	}
}

func (c *checker) checkInit(v *ast.VarDecl, t T) {
	switch t.Kind {
	case KBits:
		c.checkExprWidth(v.Init, t.Width)
	case KBool:
		it := c.checkExpr(v.Init, 0)
		if it.Kind != KBool {
			c.errorf(v.Init.Pos(), "initializer for bool %s must be bool, has %s", v.Name, it)
		}
	}
}

// ---------------------------------------------------------------------------
// Statements

type stmtCtx struct {
	control  *ast.ControlDecl
	inAction bool
	inParser bool
}

func (c *checker) checkStmt(s ast.Stmt, ctx stmtCtx) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		c.pushScope()
		for _, inner := range s.Stmts {
			c.checkStmt(inner, ctx)
		}
		c.popScope()
	case *ast.VarDecl:
		t := c.resolve(s.Type, s.Pos())
		if t.Kind != KBits && t.Kind != KBool {
			c.errorf(s.Pos(), "variable %s must be bit or bool", s.Name)
		}
		if s.Init != nil {
			c.checkInit(s, t)
		}
		c.declare(s.Name, t, s.Pos())
	case *ast.AssignStmt:
		lt := c.checkLValue(s.LHS)
		switch lt.Kind {
		case KBits:
			c.checkExprWidth(s.RHS, lt.Width)
		case KBool:
			rt := c.checkExpr(s.RHS, 0)
			if rt.Kind != KBool {
				c.errorf(s.RHS.Pos(), "assigning %s to bool", rt)
			}
		case KInvalid:
			// error already reported
		default:
			c.errorf(s.LHS.Pos(), "cannot assign to %s", lt)
		}
	case *ast.IfStmt:
		ct := c.checkExpr(s.Cond, 0)
		if ct.Kind != KBool {
			c.errorf(s.Cond.Pos(), "if condition must be bool, has %s", ct)
		}
		c.checkStmt(s.Then, ctx)
		if s.Else != nil {
			c.checkStmt(s.Else, ctx)
		}
	case *ast.CallStmt:
		c.checkCall(s.Call, ctx, true)
	case *ast.ExitStmt:
		if ctx.inParser {
			c.errorf(s.Pos(), "exit is not allowed in parsers")
		}
	default:
		c.errorf(s.Pos(), "unsupported statement %T", s)
	}
}

// checkLValue types an assignment target: a local/param variable or a
// field path.
func (c *checker) checkLValue(e ast.Expr) T {
	t := c.checkExpr(e, 0)
	if _, ok := FieldPath(e); !ok {
		c.errorf(e.Pos(), "invalid assignment target")
		return T{}
	}
	return t
}

// ---------------------------------------------------------------------------
// Calls (builtins and externs)

func (c *checker) checkCall(call *ast.CallExpr, ctx stmtCtx, stmtPos bool) T {
	set := func(t T) T {
		c.info.Types[call] = t
		return t
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "mark_to_drop":
			if len(call.Args) != 1 {
				c.errorf(call.Pos(), "mark_to_drop takes exactly one argument")
				return set(T{Kind: KVoid})
			}
			at := c.checkExpr(call.Args[0], 0)
			if at.Kind != KStruct {
				c.errorf(call.Args[0].Pos(), "mark_to_drop argument must be standard metadata")
			}
			return set(T{Kind: KVoid})
		case "checksum16":
			if len(call.Args) == 0 {
				c.errorf(call.Pos(), "checksum16 needs at least one argument")
			}
			for _, a := range call.Args {
				at := c.checkExpr(a, 0)
				if at.Kind != KBits {
					c.errorf(a.Pos(), "checksum16 arguments must have bit type")
				}
			}
			return set(T{Kind: KBits, Width: 16})
		case "count":
			// Counters have no data-plane-visible effect; accept any
			// bit-typed args.
			for _, a := range call.Args {
				c.checkExpr(a, 32)
			}
			return set(T{Kind: KVoid})
		default:
			// Direct action invocation from an apply block.
			if ctx.control != nil {
				if act := ctx.control.Action(fun.Name); act != nil {
					if !stmtPos {
						c.errorf(call.Pos(), "action %s may only be called as a statement", fun.Name)
					}
					if len(call.Args) != len(act.Params) {
						c.errorf(call.Pos(), "action %s: %d args, want %d", fun.Name, len(call.Args), len(act.Params))
					} else {
						for i, argE := range call.Args {
							pt := c.resolve(act.Params[i].Type, act.Params[i].Pos())
							if pt.Kind == KBits {
								c.checkExprWidth(argE, pt.Width)
							} else {
								at := c.checkExpr(argE, 0)
								if at.Kind != KBool {
									c.errorf(argE.Pos(), "action %s arg %d must be bool", fun.Name, i)
								}
							}
						}
					}
					return set(T{Kind: KVoid})
				}
			}
			c.errorf(call.Pos(), "unknown function %s", fun.Name)
			return set(T{})
		}
	case *ast.Member:
		recv := c.checkExpr(fun.X, 0)
		switch {
		case recv.Kind == KTable && fun.Name == "apply":
			if len(call.Args) != 0 {
				c.errorf(call.Pos(), "table apply takes no arguments")
			}
			if ctx.inAction || ctx.inParser {
				c.errorf(call.Pos(), "table %s may only be applied in a control apply block", recv.Name)
			}
			return set(T{Kind: KApplyResult, Name: recv.Name})
		case recv.Kind == KHeader && fun.Name == "isValid":
			if len(call.Args) != 0 {
				c.errorf(call.Pos(), "isValid takes no arguments")
			}
			return set(T{Kind: KBool})
		case recv.Kind == KHeader && (fun.Name == "setValid" || fun.Name == "setInvalid"):
			if len(call.Args) != 0 {
				c.errorf(call.Pos(), "%s takes no arguments", fun.Name)
			}
			if !stmtPos {
				c.errorf(call.Pos(), "%s is a statement, not an expression", fun.Name)
			}
			return set(T{Kind: KVoid})
		case recv.Kind == KPacket && fun.Name == "extract":
			if len(call.Args) != 1 {
				c.errorf(call.Pos(), "extract takes exactly one header argument")
				return set(T{Kind: KVoid})
			}
			at := c.checkExpr(call.Args[0], 0)
			if at.Kind != KHeader {
				c.errorf(call.Args[0].Pos(), "extract argument must be a header, has %s", at)
			}
			if !ctx.inParser {
				c.errorf(call.Pos(), "extract may only appear in parser states")
			}
			return set(T{Kind: KVoid})
		case recv.Kind == KRegister && fun.Name == "read":
			if len(call.Args) != 2 {
				c.errorf(call.Pos(), "register read takes (destination, index)")
				return set(T{Kind: KVoid})
			}
			dt := c.checkLValue(call.Args[0])
			if dt.Kind != KBits {
				c.errorf(call.Args[0].Pos(), "register read destination must have bit type")
			}
			c.checkExpr(call.Args[1], 32)
			return set(T{Kind: KVoid})
		case recv.Kind == KRegister && fun.Name == "write":
			if len(call.Args) != 2 {
				c.errorf(call.Pos(), "register write takes (index, value)")
				return set(T{Kind: KVoid})
			}
			c.checkExpr(call.Args[0], 32)
			vt := c.checkExpr(call.Args[1], 0)
			if vt.Kind != KBits {
				c.errorf(call.Args[1].Pos(), "register write value must have bit type")
			}
			return set(T{Kind: KVoid})
		default:
			c.errorf(call.Pos(), "unknown method %s on %s", fun.Name, recv)
			return set(T{})
		}
	default:
		c.errorf(call.Pos(), "invalid call target")
		return set(T{})
	}
}

// ---------------------------------------------------------------------------
// Expressions

// checkExpr types e. hint, when nonzero, is the width an unsized integer
// literal should adopt.
func (c *checker) checkExpr(e ast.Expr, hint int) T {
	t := c.exprType(e, hint)
	c.info.Types[e] = t
	return t
}

func (c *checker) exprType(e ast.Expr, hint int) T {
	switch e := e.(type) {
	case *ast.IntLit:
		w := e.Width
		if w == 0 {
			w = hint
		}
		if w == 0 {
			c.errorf(e.Pos(), "cannot infer width of integer literal; add a width prefix (e.g. 8w%d)", e.Lo)
			return T{}
		}
		if w < 1 || w > 128 {
			c.errorf(e.Pos(), "literal width %d out of range", w)
			return T{}
		}
		if !fitsWidth(e.Hi, e.Lo, w) {
			c.errorf(e.Pos(), "literal value does not fit in %d bits", w)
		}
		return T{Kind: KBits, Width: w}
	case *ast.BoolLit:
		return T{Kind: KBool}
	case *ast.Ident:
		if t, ok := c.lookup(e.Name); ok {
			return t
		}
		c.errorf(e.Pos(), "undefined identifier %s", e.Name)
		return T{}
	case *ast.Member:
		xt := c.checkExpr(e.X, 0)
		switch xt.Kind {
		case KHeader:
			h := c.headers[xt.Name]
			f := h.Field(e.Name)
			if f == nil {
				c.errorf(e.Pos(), "header %s has no field %s", xt.Name, e.Name)
				return T{}
			}
			return c.resolve(f.Type, f.Pos())
		case KStruct:
			s := c.structs[xt.Name]
			f := s.Field(e.Name)
			if f == nil {
				c.errorf(e.Pos(), "struct %s has no field %s", xt.Name, e.Name)
				return T{}
			}
			return c.resolve(f.Type, f.Pos())
		case KApplyResult:
			if e.Name == "hit" {
				return T{Kind: KBool}
			}
			c.errorf(e.Pos(), "apply result has no member %s (only .hit is supported)", e.Name)
			return T{}
		case KInvalid:
			return T{}
		default:
			c.errorf(e.Pos(), "%s has no members", xt)
			return T{}
		}
	case *ast.CallExpr:
		return c.checkCall(e, stmtCtx{}, false)
	case *ast.UnaryExpr:
		xt := c.checkExpr(e.X, hint)
		switch e.Op {
		case "!":
			if xt.Kind != KBool {
				c.errorf(e.Pos(), "! requires bool, has %s", xt)
			}
			return T{Kind: KBool}
		case "~", "-":
			if xt.Kind != KBits {
				c.errorf(e.Pos(), "%s requires bit type, has %s", e.Op, xt)
				return T{}
			}
			return xt
		}
		c.errorf(e.Pos(), "unknown unary operator %s", e.Op)
		return T{}
	case *ast.BinaryExpr:
		return c.binaryType(e, hint)
	case *ast.TernaryExpr:
		ct := c.checkExpr(e.Cond, 0)
		if ct.Kind != KBool {
			c.errorf(e.Cond.Pos(), "ternary condition must be bool, has %s", ct)
		}
		tt := c.checkExpr(e.Then, hint)
		et := c.checkExpr(e.Else, hint)
		if tt.Kind == KBits && et.Kind == KBits && tt.Width == 0 {
			tt = et
		}
		// Allow an unsized branch to adopt the other branch's width.
		if tt.Kind == KBits && et.Kind == KBits && tt.Width != et.Width {
			if lit, ok := e.Else.(*ast.IntLit); ok && lit.Width == 0 {
				et = tt
				c.info.Types[e.Else] = tt
			} else if lit, ok := e.Then.(*ast.IntLit); ok && lit.Width == 0 {
				tt = et
				c.info.Types[e.Then] = et
			}
		}
		if tt.Kind != et.Kind || (tt.Kind == KBits && tt.Width != et.Width) {
			c.errorf(e.Pos(), "ternary branches disagree: %s vs %s", tt, et)
			return tt
		}
		return tt
	case *ast.SliceExpr:
		xt := c.checkExpr(e.X, 0)
		if xt.Kind != KBits {
			c.errorf(e.Pos(), "slice requires bit type, has %s", xt)
			return T{}
		}
		if e.Hi < e.Lo || e.Hi >= xt.Width {
			c.errorf(e.Pos(), "slice [%d:%d] out of range for bit<%d>", e.Hi, e.Lo, xt.Width)
			return T{}
		}
		return T{Kind: KBits, Width: e.Hi - e.Lo + 1}
	default:
		c.errorf(e.Pos(), "unsupported expression %T", e)
		return T{}
	}
}

func (c *checker) binaryType(e *ast.BinaryExpr, hint int) T {
	switch e.Op {
	case "&&", "||":
		for _, sub := range []ast.Expr{e.X, e.Y} {
			t := c.checkExpr(sub, 0)
			if t.Kind != KBool && t.Kind != KInvalid {
				c.errorf(sub.Pos(), "%s requires bool operands, has %s", e.Op, t)
			}
		}
		return T{Kind: KBool}
	case "==", "!=":
		xt, yt := c.inferPair(e.X, e.Y, 0)
		if xt.Kind == KBool && yt.Kind == KBool {
			return T{Kind: KBool}
		}
		if xt.Kind != KBits || yt.Kind != KBits || xt.Width != yt.Width {
			if xt.Kind != KInvalid && yt.Kind != KInvalid {
				c.errorf(e.Pos(), "%s operands disagree: %s vs %s", e.Op, xt, yt)
			}
		}
		return T{Kind: KBool}
	case "<", "<=", ">", ">=":
		xt, yt := c.inferPair(e.X, e.Y, 0)
		if xt.Kind != KBits || yt.Kind != KBits || xt.Width != yt.Width {
			if xt.Kind != KInvalid && yt.Kind != KInvalid {
				c.errorf(e.Pos(), "%s operands disagree: %s vs %s", e.Op, xt, yt)
			}
		}
		return T{Kind: KBool}
	case "<<", ">>":
		xt := c.checkExpr(e.X, hint)
		c.checkExpr(e.Y, 32) // shift amounts default to bit<32>
		if xt.Kind != KBits {
			c.errorf(e.X.Pos(), "%s requires bit type, has %s", e.Op, xt)
			return T{}
		}
		return xt
	case "++":
		xt := c.checkExpr(e.X, 0)
		yt := c.checkExpr(e.Y, 0)
		if xt.Kind != KBits || yt.Kind != KBits {
			c.errorf(e.Pos(), "++ requires bit operands")
			return T{}
		}
		if xt.Width+yt.Width > 128 {
			c.errorf(e.Pos(), "concatenation width %d exceeds 128", xt.Width+yt.Width)
			return T{}
		}
		return T{Kind: KBits, Width: xt.Width + yt.Width}
	case "&", "|", "^", "+", "-":
		xt, yt := c.inferPair(e.X, e.Y, hint)
		if xt.Kind != KBits || yt.Kind != KBits || xt.Width != yt.Width {
			if xt.Kind != KInvalid && yt.Kind != KInvalid {
				c.errorf(e.Pos(), "%s operands disagree: %s vs %s", e.Op, xt, yt)
			}
			return T{}
		}
		return xt
	default:
		c.errorf(e.Pos(), "unknown binary operator %s", e.Op)
		return T{}
	}
}

// inferPair types two operands that must agree, letting an unsized
// literal adopt the other side's width.
func (c *checker) inferPair(x, y ast.Expr, hint int) (T, T) {
	xLit, xUnsized := x.(*ast.IntLit)
	yLit, yUnsized := y.(*ast.IntLit)
	xU := xUnsized && xLit.Width == 0
	yU := yUnsized && yLit.Width == 0
	switch {
	case xU && !yU:
		yt := c.checkExpr(y, hint)
		w := hint
		if yt.Kind == KBits {
			w = yt.Width
		}
		return c.checkExpr(x, w), yt
	case yU && !xU:
		xt := c.checkExpr(x, hint)
		w := hint
		if xt.Kind == KBits {
			w = xt.Width
		}
		return xt, c.checkExpr(y, w)
	default:
		return c.checkExpr(x, hint), c.checkExpr(y, hint)
	}
}

func fitsWidth(hi, lo uint64, w int) bool {
	switch {
	case w >= 128:
		return true
	case w > 64:
		return hi < 1<<(w-64)
	case w == 64:
		return hi == 0
	default:
		return hi == 0 && lo < 1<<w
	}
}

package bmv2

import (
	"repro/internal/controlplane"
	"repro/internal/p4/ast"
	"repro/internal/p4/typecheck"
	"repro/internal/sym"
)

// ---------------------------------------------------------------------------
// Scopes

func (in *Interp) pushScope() { in.scopes = append(in.scopes, make(map[string]value)) }
func (in *Interp) popScope()  { in.scopes = in.scopes[:len(in.scopes)-1] }

func (in *Interp) lookup(name string) (value, bool) {
	for i := len(in.scopes) - 1; i >= 0; i-- {
		if v, ok := in.scopes[i][name]; ok {
			return v, true
		}
	}
	return value{}, false
}

func (in *Interp) declVar(v *ast.VarDecl) error {
	t := in.info.Resolve(v.Type)
	slot := "$local:" + v.Name + ":" + v.Pos().String()
	var init sym.BV
	if v.Init != nil {
		var err error
		init, err = in.eval(v.Init)
		if err != nil {
			return err
		}
	} else if t.Kind == typecheck.KBool {
		init = sym.Bool(false)
	} else {
		init = sym.BV{W: uint16(t.Width)}
	}
	in.store[slot] = init
	in.scopes[len(in.scopes)-1][v.Name] = value{slot: slot}
	return nil
}

func (in *Interp) lvalue(e ast.Expr) (string, error) {
	switch e := e.(type) {
	case *ast.Ident:
		v, ok := in.lookup(e.Name)
		if !ok {
			return "", fail("unknown identifier %s", e.Name)
		}
		if v.isVal {
			return "", fail("cannot assign to parameter %s", e.Name)
		}
		return v.slot, nil
	case *ast.Member:
		base, err := in.lvalue(e.X)
		if err != nil {
			return "", err
		}
		return base + "." + e.Name, nil
	default:
		return "", fail("invalid lvalue %T", e)
	}
}

// ---------------------------------------------------------------------------
// Parser

// runParser returns false when the packet is rejected.
func (in *Interp) runParser(pd *ast.ParserDecl) (bool, error) {
	state := "start"
	for steps := 0; ; steps++ {
		if steps > 256 {
			return false, fail("parser did not terminate")
		}
		if state == "accept" {
			return true, nil
		}
		if state == "reject" {
			return false, nil
		}
		st := pd.State(state)
		if st == nil {
			return false, fail("unknown parser state %s", state)
		}
		if in.trace != nil {
			in.trace(state)
		}
		for _, s := range st.Stmts {
			if err := in.stmt(s); err != nil {
				if _, short := err.(*shortPacket); short {
					return false, nil // short packet: reject
				}
				return false, err
			}
		}
		next, err := in.transition(pd, st.Trans)
		if err != nil {
			return false, err
		}
		state = next
	}
}

type shortPacket struct{}

func (*shortPacket) Error() string { return "bmv2: packet too short" }

func (in *Interp) transition(pd *ast.ParserDecl, tr ast.Transition) (string, error) {
	if tr.Select == nil {
		return tr.Next, nil
	}
	keys := make([]sym.BV, len(tr.Select))
	for i, e := range tr.Select {
		v, err := in.eval(e)
		if err != nil {
			return "", err
		}
		keys[i] = v
	}
	for _, cs := range tr.Cases {
		if len(cs.Keysets) == 1 && cs.Keysets[0].Kind == ast.KeysetDefault {
			return cs.Next, nil
		}
		match := true
		for ki, ks := range cs.Keysets {
			ok, err := in.keysetMatch(pd, ks, keys[ki])
			if err != nil {
				return "", err
			}
			if !ok {
				match = false
				break
			}
		}
		if match {
			return cs.Next, nil
		}
	}
	return "reject", nil
}

func (in *Interp) keysetMatch(pd *ast.ParserDecl, ks ast.Keyset, key sym.BV) (bool, error) {
	switch ks.Kind {
	case ast.KeysetDefault:
		return true, nil
	case ast.KeysetValue:
		v, err := in.eval(ks.Value)
		if err != nil {
			return false, err
		}
		return key == v, nil
	case ast.KeysetMask:
		v, err := in.eval(ks.Value)
		if err != nil {
			return false, err
		}
		m, err := in.eval(ks.Mask)
		if err != nil {
			return false, err
		}
		return key.And(m) == v.And(m), nil
	case ast.KeysetValueSet:
		if in.cfg == nil {
			return false, nil
		}
		for _, mem := range in.cfg.ValueSet(pd.Name + "." + ks.Ref) {
			switch {
			case mem.Mask.W == 0 || mem.Mask.IsAllOnes():
				if key == mem.Value {
					return true, nil
				}
			case mem.Mask.IsZero():
				return true, nil
			default:
				if key.And(mem.Mask) == mem.Value.And(mem.Mask) {
					return true, nil
				}
			}
		}
		return false, nil
	default:
		return false, fail("unknown keyset kind")
	}
}

// ---------------------------------------------------------------------------
// Statements

func (in *Interp) stmt(s ast.Stmt) error {
	if in.exited {
		return nil
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		in.pushScope()
		for _, inner := range s.Stmts {
			if err := in.stmt(inner); err != nil {
				in.popScope()
				return err
			}
		}
		in.popScope()
		return nil
	case *ast.VarDecl:
		return in.declVar(s)
	case *ast.AssignStmt:
		v, err := in.eval(s.RHS)
		if err != nil {
			return err
		}
		path, err := in.lvalue(s.LHS)
		if err != nil {
			return err
		}
		if _, ok := in.store[path]; !ok {
			return fail("assignment to unknown location %s", path)
		}
		in.store[path] = v
		return nil
	case *ast.IfStmt:
		cond, err := in.evalCond(s.Cond)
		if err != nil {
			return err
		}
		if cond {
			return in.stmt(s.Then)
		}
		if s.Else != nil {
			return in.stmt(s.Else)
		}
		return nil
	case *ast.CallStmt:
		return in.call(s.Call)
	case *ast.ExitStmt:
		in.exited = true
		return nil
	default:
		return fail("unsupported statement %T", s)
	}
}

// evalCond handles the side-effecting `t.apply().hit` condition.
func (in *Interp) evalCond(e ast.Expr) (bool, error) {
	if m, ok := e.(*ast.Member); ok && m.Name == "hit" {
		if call, ok := m.X.(*ast.CallExpr); ok {
			if inner, ok := call.Fun.(*ast.Member); ok && inner.Name == "apply" {
				hit, err := in.applyTable(inner)
				return hit, err
			}
		}
	}
	v, err := in.eval(e)
	if err != nil {
		return false, err
	}
	return v.IsTrue(), nil
}

func (in *Interp) call(call *ast.CallExpr) error {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "mark_to_drop":
			path, err := in.lvalue(call.Args[0])
			if err != nil {
				return err
			}
			in.store[path+".drop"] = sym.NewBV(1, 1)
			return nil
		case "count":
			return nil
		default:
			act := in.control.Action(fun.Name)
			if act == nil {
				return fail("unknown function %s", fun.Name)
			}
			args := make([]sym.BV, len(call.Args))
			for i, a := range call.Args {
				v, err := in.eval(a)
				if err != nil {
					return err
				}
				args[i] = v
			}
			return in.runAction(act, args)
		}
	case *ast.Member:
		switch fun.Name {
		case "apply":
			_, err := in.applyTable(fun)
			return err
		case "setValid":
			path, err := in.lvalue(fun.X)
			if err != nil {
				return err
			}
			in.store[path+".$valid"] = sym.Bool(true)
			return nil
		case "setInvalid":
			path, err := in.lvalue(fun.X)
			if err != nil {
				return err
			}
			in.store[path+".$valid"] = sym.Bool(false)
			return nil
		case "extract":
			path, err := in.lvalue(call.Args[0])
			if err != nil {
				return err
			}
			ht := in.info.TypeOf(call.Args[0])
			h := in.prog.Header(ht.Name)
			if h == nil {
				return fail("extract of non-header %s", path)
			}
			for _, f := range h.Fields {
				ft := in.info.Resolve(f.Type)
				v, ok := in.readBits(uint16(ft.Width))
				if !ok {
					return &shortPacket{}
				}
				in.store[path+"."+f.Name] = v
			}
			in.store[path+".$valid"] = sym.Bool(true)
			return nil
		case "read":
			cells, err := in.registerCells(fun.X)
			if err != nil {
				return err
			}
			idx, err := in.eval(call.Args[1])
			if err != nil {
				return err
			}
			dst, err := in.lvalue(call.Args[0])
			if err != nil {
				return err
			}
			i := int(idx.Uint64()) % len(cells)
			in.store[dst] = cells[i]
			return nil
		case "write":
			cells, err := in.registerCells(fun.X)
			if err != nil {
				return err
			}
			idx, err := in.eval(call.Args[0])
			if err != nil {
				return err
			}
			v, err := in.eval(call.Args[1])
			if err != nil {
				return err
			}
			cells[int(idx.Uint64())%len(cells)] = v
			return nil
		default:
			return fail("unknown method %s", fun.Name)
		}
	default:
		return fail("invalid call")
	}
}

func (in *Interp) registerCells(e ast.Expr) ([]sym.BV, error) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil, fail("register reference must be an identifier")
	}
	v, ok := in.lookup(id.Name)
	if !ok || len(v.slot) < 10 || v.slot[:10] != "$register:" {
		return nil, fail("%s is not a register", id.Name)
	}
	cells := in.registers[v.slot[10:]]
	if len(cells) == 0 {
		return nil, fail("register %s has no cells", id.Name)
	}
	return cells, nil
}

func (in *Interp) runAction(act *ast.Action, args []sym.BV) error {
	in.pushScope()
	defer in.popScope()
	for i, p := range act.Params {
		in.scopes[len(in.scopes)-1][p.Name] = value{bound: args[i], isVal: true}
	}
	return in.stmt(act.Body)
}

// ---------------------------------------------------------------------------
// Table application

// applyTable matches the table against the configuration and executes
// the selected (or default) action; it returns whether an entry hit.
func (in *Interp) applyTable(fun *ast.Member) (bool, error) {
	id, ok := fun.X.(*ast.Ident)
	if !ok {
		return false, fail("table apply target must be an identifier")
	}
	tbl := in.control.Table(id.Name)
	if tbl == nil {
		return false, fail("unknown table %s", id.Name)
	}
	qname := in.control.Name + "." + id.Name

	keys := make([]sym.BV, len(tbl.Keys))
	for i, k := range tbl.Keys {
		v, err := in.eval(k.Expr)
		if err != nil {
			return false, err
		}
		keys[i] = v
	}

	if in.cfg != nil {
		active, _ := in.cfg.ActiveEntries(qname)
		for _, e := range active {
			if entryMatches(e, keys) {
				if e.Action == "NoAction" {
					return true, nil
				}
				act := in.control.Action(e.Action)
				if act == nil {
					return false, fail("table %s entry references unknown action %s", qname, e.Action)
				}
				return true, in.runAction(act, e.Params)
			}
		}
	}
	// Miss: run the default action.
	name := "NoAction"
	var params []sym.BV
	if tbl.Default != nil {
		name = tbl.Default.Name
		for _, argE := range tbl.Default.Args {
			v, err := in.eval(argE)
			if err != nil {
				return false, err
			}
			params = append(params, v)
		}
	}
	if in.cfg != nil {
		if d, ok := in.cfg.Default(qname); ok {
			name, params = d.Name, d.Params
		}
	}
	if name == "NoAction" {
		return false, nil
	}
	act := in.control.Action(name)
	if act == nil {
		return false, fail("table %s default references unknown action %s", qname, name)
	}
	return false, in.runAction(act, params)
}

// entryMatches applies the entry's match key to concrete values.
func entryMatches(e *controlplane.TableEntry, keys []sym.BV) bool {
	if len(e.Matches) != len(keys) {
		return false
	}
	for i, m := range e.Matches {
		key := keys[i]
		switch m.Kind {
		case controlplane.MatchExact:
			if key != m.Value {
				return false
			}
		case controlplane.MatchTernary:
			if key.And(m.Mask) != m.Value.And(m.Mask) {
				return false
			}
		case controlplane.MatchLPM:
			if m.PrefixLen > 0 {
				mask := sym.AllOnes(key.W).Shl(uint(int(key.W) - m.PrefixLen))
				if key.And(mask) != m.Value.And(mask) {
					return false
				}
			}
		case controlplane.MatchOptional:
			if !m.Wildcard && key != m.Value {
				return false
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Expressions

func (in *Interp) eval(e ast.Expr) (sym.BV, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		t := in.info.TypeOf(e)
		w := t.Width
		if w == 0 {
			w = e.Width
		}
		if w == 0 {
			return sym.BV{}, fail("literal with unknown width at %s", e.Pos())
		}
		return sym.NewBV2(uint16(w), e.Hi, e.Lo), nil
	case *ast.BoolLit:
		return sym.Bool(e.Value), nil
	case *ast.Ident:
		if v, ok := in.lookup(e.Name); ok {
			if v.isVal {
				return v.bound, nil
			}
			if sv, ok := in.store[v.slot]; ok {
				return sv, nil
			}
			return sym.BV{}, fail("%s has no value", e.Name)
		}
		if cv, ok := in.info.Consts[e.Name]; ok {
			return sym.NewBV2(uint16(cv.Width), cv.Hi, cv.Lo), nil
		}
		return sym.BV{}, fail("unknown identifier %s", e.Name)
	case *ast.Member:
		path, err := in.lvalue(e)
		if err != nil {
			return sym.BV{}, err
		}
		if v, ok := in.store[path]; ok {
			return v, nil
		}
		return sym.BV{}, fail("unknown field %s", path)
	case *ast.CallExpr:
		return in.evalCall(e)
	case *ast.UnaryExpr:
		x, err := in.eval(e.X)
		if err != nil {
			return sym.BV{}, err
		}
		switch e.Op {
		case "!", "~":
			return x.Not(), nil
		case "-":
			return sym.BV{W: x.W}.Sub(x), nil
		}
		return sym.BV{}, fail("unknown unary %s", e.Op)
	case *ast.BinaryExpr:
		x, err := in.eval(e.X)
		if err != nil {
			return sym.BV{}, err
		}
		// Short-circuit booleans.
		switch e.Op {
		case "&&":
			if x.IsZero() {
				return sym.Bool(false), nil
			}
			return in.eval(e.Y)
		case "||":
			if !x.IsZero() {
				return sym.Bool(true), nil
			}
			return in.eval(e.Y)
		}
		y, err := in.eval(e.Y)
		if err != nil {
			return sym.BV{}, err
		}
		switch e.Op {
		case "==":
			return sym.Bool(x == y), nil
		case "!=":
			return sym.Bool(x != y), nil
		case "<":
			return sym.Bool(x.Ult(y)), nil
		case "<=":
			return sym.Bool(!y.Ult(x)), nil
		case ">":
			return sym.Bool(y.Ult(x)), nil
		case ">=":
			return sym.Bool(!x.Ult(y)), nil
		case "&":
			return x.And(y), nil
		case "|":
			return x.Or(y), nil
		case "^":
			return x.Xor(y), nil
		case "+":
			return x.Add(y), nil
		case "-":
			return x.Sub(y), nil
		case "<<":
			if y.Hi != 0 || y.Lo >= uint64(x.W) {
				return sym.BV{W: x.W}, nil
			}
			return x.Shl(uint(y.Lo)), nil
		case ">>":
			if y.Hi != 0 || y.Lo >= uint64(x.W) {
				return sym.BV{W: x.W}, nil
			}
			return x.Lshr(uint(y.Lo)), nil
		case "++":
			return x.Concat(y), nil
		}
		return sym.BV{}, fail("unknown binary %s", e.Op)
	case *ast.TernaryExpr:
		c, err := in.eval(e.Cond)
		if err != nil {
			return sym.BV{}, err
		}
		if c.IsTrue() {
			return in.eval(e.Then)
		}
		return in.eval(e.Else)
	case *ast.SliceExpr:
		x, err := in.eval(e.X)
		if err != nil {
			return sym.BV{}, err
		}
		return x.Extract(uint16(e.Hi), uint16(e.Lo)), nil
	default:
		return sym.BV{}, fail("unsupported expression %T", e)
	}
}

func (in *Interp) evalCall(call *ast.CallExpr) (sym.BV, error) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "checksum16" {
			// Same function as the analyzer's model: XOR fold over
			// 16-bit chunks.
			acc := sym.BV{W: 16}
			for _, argE := range call.Args {
				v, err := in.eval(argE)
				if err != nil {
					return sym.BV{}, err
				}
				if v.W%16 != 0 {
					v = v.ZeroExtend(v.W + (16 - v.W%16))
				}
				for lo := uint16(0); lo < v.W; lo += 16 {
					acc = acc.Xor(v.Extract(lo+15, lo))
				}
			}
			return acc, nil
		}
		return sym.BV{}, fail("function %s cannot be used as a value", fun.Name)
	case *ast.Member:
		if fun.Name == "isValid" {
			path, err := in.lvalue(fun.X)
			if err != nil {
				return sym.BV{}, err
			}
			v, ok := in.store[path+".$valid"]
			if !ok {
				return sym.BV{}, fail("%s is not a header", path)
			}
			return v, nil
		}
		return sym.BV{}, fail("method %s cannot be used as a value", fun.Name)
	default:
		return sym.BV{}, fail("invalid call expression")
	}
}

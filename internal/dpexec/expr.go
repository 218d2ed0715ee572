package dpexec

import (
	"slices"
	"strconv"

	"repro/internal/p4/ast"
	"repro/internal/sym"
)

// lvalPath resolves an assignable expression to a store path, with
// bmv2's rules: identifiers resolve through scopes, members append.
func (c *compiler) lvalPath(e ast.Expr) (string, error) {
	switch e := e.(type) {
	case *ast.Ident:
		b, ok := c.lookup(e.Name)
		if !ok {
			return "", cerr("unknown identifier %s", e.Name)
		}
		switch b.kind {
		case bindPath:
			return b.path, nil
		case bindConst, bindVal:
			return "", cerr("cannot assign to parameter %s", e.Name)
		default:
			return "", cerr("invalid lvalue %s", e.Name)
		}
	case *ast.Member:
		base, err := c.lvalPath(e.X)
		if err != nil {
			return "", err
		}
		return base + "." + e.Name, nil
	default:
		return "", cerr("invalid lvalue %T", e)
	}
}

// expr compiles an expression: constants fold (no code), dynamic
// values leave exactly one value on the stack.
func (c *compiler) expr(e ast.Expr) (cv, error) {
	a := c.asm
	switch e := e.(type) {
	case *ast.IntLit:
		w := c.cc.info.TypeOf(e).Width
		if w == 0 {
			w = e.Width
		}
		if w == 0 {
			return dyn, cerr("literal with unknown width at %s", e.Pos())
		}
		return constCV(sym.NewBV2(uint16(w), e.Hi, e.Lo)), nil
	case *ast.BoolLit:
		return constCV(sym.Bool(e.Value)), nil
	case *ast.Ident:
		if b, ok := c.lookup(e.Name); ok {
			switch b.kind {
			case bindConst:
				return constCV(b.k), nil
			case bindVal:
				a.emit(opLoad, b.slot, 0, 0)
				return dyn, nil
			case bindPath:
				slot, got := c.cc.slot(b.path)
				if !got {
					return dyn, cerr("%s has no value", e.Name)
				}
				a.emit(opLoad, slot, 0, 0)
				return dyn, nil
			default:
				return dyn, cerr("%s has no value", e.Name)
			}
		}
		if kv, ok := c.cc.info.Consts[e.Name]; ok {
			return constCV(sym.NewBV2(uint16(kv.Width), kv.Hi, kv.Lo)), nil
		}
		return dyn, cerr("unknown identifier %s", e.Name)
	case *ast.Member:
		path, err := c.lvalPath(e)
		if err != nil {
			return dyn, err
		}
		slot, ok := c.cc.slot(path)
		if !ok {
			return dyn, cerr("unknown field %s", path)
		}
		a.emit(opLoad, slot, 0, 0)
		return dyn, nil
	case *ast.CallExpr:
		return c.exprCall(e)
	case *ast.UnaryExpr:
		x, err := c.expr(e.X)
		if err != nil {
			return dyn, err
		}
		switch e.Op {
		case "!", "~":
			if x.c {
				return constCV(x.k.Not()), nil
			}
			a.emit(opNot, 0, 0, 0)
			return dyn, nil
		case "-":
			if x.c {
				return constCV(sym.BV{W: x.k.W}.Sub(x.k)), nil
			}
			a.emit(opNeg, 0, 0, 0)
			return dyn, nil
		}
		return dyn, cerr("unknown unary %s", e.Op)
	case *ast.BinaryExpr:
		return c.exprBinary(e)
	case *ast.TernaryExpr:
		cond, err := c.expr(e.Cond)
		if err != nil {
			return dyn, err
		}
		if cond.c {
			if cond.k.IsTrue() {
				return c.expr(e.Then)
			}
			return c.expr(e.Else)
		}
		jf := a.emit(opJf, -1, 0, 0)
		tv, err := c.expr(e.Then)
		if err != nil {
			return dyn, err
		}
		c.mat(tv)
		jend := a.emit(opJmp, -1, 0, 0)
		a.code[jf].a = int32(len(a.code))
		ev, err := c.expr(e.Else)
		if err != nil {
			return dyn, err
		}
		c.mat(ev)
		a.code[jend].a = int32(len(a.code))
		return dyn, nil
	case *ast.SliceExpr:
		x, err := c.expr(e.X)
		if err != nil {
			return dyn, err
		}
		if x.c {
			return constCV(x.k.Extract(uint16(e.Hi), uint16(e.Lo))), nil
		}
		a.emit(opExtract, int32(e.Hi), int32(e.Lo), 0)
		return dyn, nil
	default:
		return dyn, cerr("unsupported expression %T", e)
	}
}

var binOps = map[string]uint8{
	"==": opEqv, "!=": opNeq,
	"<": opUlt, "<=": opUle, ">": opUgt, ">=": opUge,
	"&": opAnd, "|": opOr, "^": opXor,
	"+": opAdd, "-": opSub,
	"<<": opShl, ">>": opLshr, "++": opConcat,
}

func foldBinary(op string, x, y sym.BV) (sym.BV, error) {
	switch op {
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
	return sym.BV{}, cerr("unknown binary %s", op)
}

func (c *compiler) exprBinary(e *ast.BinaryExpr) (cv, error) {
	a := c.asm
	switch e.Op {
	case "&&":
		x, err := c.expr(e.X)
		if err != nil {
			return dyn, err
		}
		if x.c {
			if x.k.IsZero() {
				return constCV(sym.Bool(false)), nil
			}
			return c.expr(e.Y) // raw, like bmv2
		}
		jz := a.emit(opJz, -1, 0, 0)
		y, err := c.expr(e.Y)
		if err != nil {
			return dyn, err
		}
		c.mat(y)
		jend := a.emit(opJmp, -1, 0, 0)
		a.code[jz].a = int32(len(a.code))
		a.emit(opPushC, a.constIdx(sym.Bool(false)), 0, 0)
		a.code[jend].a = int32(len(a.code))
		return dyn, nil
	case "||":
		x, err := c.expr(e.X)
		if err != nil {
			return dyn, err
		}
		if x.c {
			if !x.k.IsZero() {
				return constCV(sym.Bool(true)), nil
			}
			return c.expr(e.Y)
		}
		jz := a.emit(opJz, -1, 0, 0)
		a.emit(opPushC, a.constIdx(sym.Bool(true)), 0, 0)
		jend := a.emit(opJmp, -1, 0, 0)
		a.code[jz].a = int32(len(a.code))
		y, err := c.expr(e.Y)
		if err != nil {
			return dyn, err
		}
		c.mat(y)
		a.code[jend].a = int32(len(a.code))
		return dyn, nil
	}
	op, ok := binOps[e.Op]
	if !ok {
		return dyn, cerr("unknown binary %s", e.Op)
	}
	x, err := c.expr(e.X)
	if err != nil {
		return dyn, err
	}
	if x.c {
		y, err := c.expr(e.Y)
		if err != nil {
			return dyn, err
		}
		if y.c {
			k, err := foldBinary(e.Op, x.k, y.k)
			if err != nil {
				return dyn, err
			}
			return constCV(k), nil
		}
		// Stack holds y; push x and swap to restore operand order.
		c.mat(x)
		a.emit(opSwap, 0, 0, 0)
		a.emit(op, 0, 0, 0)
		return dyn, nil
	}
	y, err := c.expr(e.Y)
	if err != nil {
		return dyn, err
	}
	c.mat(y)
	a.emit(op, 0, 0, 0)
	return dyn, nil
}

func (c *compiler) exprCall(call *ast.CallExpr) (cv, error) {
	a := c.asm
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "checksum16" {
			return c.exprChecksum(call)
		}
		return dyn, cerr("function %s cannot be used as a value", fun.Name)
	case *ast.Member:
		if fun.Name == "isValid" {
			path, err := c.lvalPath(fun.X)
			if err != nil {
				return dyn, err
			}
			slot, ok := c.cc.slot(path + ".$valid")
			if !ok {
				return dyn, cerr("%s is not a header", path)
			}
			a.emit(opLoad, slot, 0, 0)
			return dyn, nil
		}
		return dyn, cerr("method %s cannot be used as a value", fun.Name)
	default:
		return dyn, cerr("invalid call expression")
	}
}

// exprChecksum unrolls the analyzer's checksum16 model: XOR-fold every
// argument's 16-bit chunks (zero-extending to a 16-bit multiple).
// Constant arguments fold at compile time; dynamic ones spill to the
// call's scratch slot and fold chunk by chunk.
func (c *compiler) exprChecksum(call *ast.CallExpr) (cv, error) {
	a := c.asm
	acc := constCV(sym.BV{W: 16})
	tmp, ok := c.cc.slot(chkKey(call.Pos().String()))
	if !ok {
		return dyn, cerr("internal: checksum slot not pre-allocated")
	}
	xorIn := func(chunk cv) {
		if acc.c && chunk.c {
			acc = constCV(acc.k.Xor(chunk.k))
			return
		}
		if chunk.c {
			// acc is on the stack.
			a.emit(opPushC, a.constIdx(chunk.k), 0, 0)
		} else if acc.c {
			a.emit(opPushC, a.constIdx(acc.k), 0, 0)
			a.emit(opSwap, 0, 0, 0)
		}
		a.emit(opXor, 0, 0, 0)
		acc = dyn
	}
	for _, argE := range call.Args {
		v, err := c.expr(argE)
		if err != nil {
			return dyn, err
		}
		if v.c {
			k := v.k
			if k.W%16 != 0 {
				k = k.ZeroExtend(k.W + (16 - k.W%16))
			}
			for lo := uint16(0); lo < k.W; lo += 16 {
				xorIn(constCV(k.Extract(lo+15, lo)))
			}
			continue
		}
		w := c.widthOf(argE)
		if w == 0 {
			return dyn, cerr("checksum16 argument with unknown width")
		}
		padW := w
		if padW%16 != 0 {
			padW += 16 - padW%16
			a.emit(opZext, int32(padW), 0, 0)
		}
		a.emit(opStore, tmp, 0, 0)
		for lo := uint16(0); lo < padW; lo += 16 {
			a.emit(opLoad, tmp, 0, 0)
			a.emit(opExtract, int32(lo+15), int32(lo), 0)
			xorIn(dyn)
		}
	}
	return acc, nil
}

// tableApply compiles `t.apply()`: evaluate the key expressions into
// the table's key slots, then a single opTable against the pre-built
// match structure. pushHit leaves the hit flag on the stack for
// `t.apply().hit` conditions.
func (c *compiler) tableApply(fun *ast.Member, pushHit bool) error {
	a := c.asm
	if c.inBlock {
		return cerr("table apply inside an action")
	}
	if c.control == nil {
		return cerr("table apply outside a control")
	}
	id, ok := fun.X.(*ast.Ident)
	if !ok {
		return cerr("table apply target must be an identifier")
	}
	tbl := c.control.Table(id.Name)
	if tbl == nil {
		return cerr("unknown table %s", id.Name)
	}
	qname := c.control.Name + "." + id.Name

	ti, built := c.img.tableIdx[qname]
	var keySlots []int32
	var keyWidths []uint16
	if built {
		keySlots = c.img.tables[ti].keySlots
		keyWidths = c.img.tables[ti].keyWidths
	} else {
		keySlots = make([]int32, len(tbl.Keys))
		keyWidths = make([]uint16, len(tbl.Keys))
		for i := range tbl.Keys {
			keySlots[i] = c.cc.alloc("$key:"+qname+":"+strconv.Itoa(i), sym.BV{})
		}
	}
	for i, k := range tbl.Keys {
		v, err := c.expr(k.Expr)
		if err != nil {
			return err
		}
		if !built {
			if v.c {
				keyWidths[i] = v.k.W
			} else {
				keyWidths[i] = c.widthOf(k.Expr)
			}
		}
		if v.c {
			a.emit(opStoreC, keySlots[i], a.constIdx(v.k), 0)
		} else {
			a.emit(opStore, keySlots[i], 0, 0)
		}
	}
	if !built {
		t := &exTable{
			qname:     qname,
			keySlots:  keySlots,
			keyWidths: keyWidths,
			cd:        c.control,
			tbl:       tbl,
			env:       c.snapshotScopes(),
		}
		t, n, err := buildExTable(c.cc, c.img, c.cfg, t, c.predecessor(t))
		if err != nil {
			return err
		}
		c.img.blocksCompiled += n
		ti = len(c.img.tables)
		c.img.tables = append(c.img.tables, t)
		c.img.tableIdx[qname] = ti
	}
	hitFlag := int32(0)
	if pushHit {
		hitFlag = 1
	}
	c.tblFix = append(c.tblFix, a.emit(opTable, int32(ti), hitFlag, -1))
	return nil
}

// predecessor is the predecessor image's table of t's name when it was
// compiled in t's context — the same key slots and widths and the same
// apply-site scope — and nil otherwise. Which of its entries carry is
// the merge's to decide (buildExTable).
func (c *compiler) predecessor(t *exTable) *exTable {
	if c.prev == nil {
		return nil
	}
	ti, ok := c.prev.tableIdx[t.qname]
	if !ok {
		return nil
	}
	pt := c.prev.tables[ti]
	if !slices.Equal(pt.keySlots, t.keySlots) || !slices.Equal(pt.keyWidths, t.keyWidths) || !sameScope(pt.env, t.env) {
		return nil
	}
	return pt
}

package sym

import "fmt"

// This file holds the smart constructors. Every composite node goes
// through these, so the DAG is permanently in simplified form: constant
// folding, identity and annihilator rules, double-negation and
// ite-collapsing all happen at construction time. This is the
// "preprocessing" step the paper describes (§4.1, "Processing updates
// quickly"): constant folding, common-subexpression elimination (which
// hash-consing provides by construction) and strength reduction.

func (b *Builder) mustWidth(op Op, x, y *Expr) {
	if x.Width != y.Width {
		panic(fmt.Sprintf("sym: %s width mismatch: %d vs %d (%s vs %s)", op, x.Width, y.Width, x, y))
	}
}

// orderCommutative returns the operands of a commutative operator in a
// canonical order so that a&b and b&a intern to the same node.
func orderCommutative(x, y *Expr) (*Expr, *Expr) {
	if y.id < x.id {
		return y, x
	}
	return x, y
}

// Not returns the bitwise complement of x (logical negation on width 1).
func (b *Builder) Not(x *Expr) *Expr {
	switch {
	case x.Op == OpConst:
		return b.Const(x.Val.Not())
	case x.Op == OpNot:
		return x.A // ~~x => x
	case x.Op == OpIte && x.Width == 1:
		// Push negation into boolean ite so chains keep folding.
		return b.Ite(x.A, b.Not(x.B), b.Not(x.C))
	}
	return b.intern(exprKey{op: OpNot, width: x.Width, a: x})
}

// And returns x & y.
func (b *Builder) And(x, y *Expr) *Expr {
	b.mustWidth(OpAnd, x, y)
	if x.Op == OpConst && y.Op == OpConst {
		return b.Const(x.Val.And(y.Val))
	}
	// Put a constant first for the identity checks below.
	if y.Op == OpConst {
		x, y = y, x
	}
	if x.Op == OpConst {
		switch {
		case x.Val.IsZero():
			return x // 0 & y => 0
		case x.Val.IsAllOnes():
			return y // all-ones & y => y
		}
	}
	if x == y {
		return x // x & x => x
	}
	if (x.Op == OpNot && x.A == y) || (y.Op == OpNot && y.A == x) {
		return b.Const(BV{W: x.Width}) // x & ~x => 0
	}
	// Boolean absorption keeps path conditions small: x & (x & y) => x & y.
	if y.Op == OpAnd && (y.A == x || y.B == x) {
		return y
	}
	if x.Op == OpAnd && (x.A == y || x.B == y) {
		return x
	}
	x, y = orderCommutative(x, y)
	return b.intern(exprKey{op: OpAnd, width: x.Width, a: x, b: y})
}

// Or returns x | y.
func (b *Builder) Or(x, y *Expr) *Expr {
	b.mustWidth(OpOr, x, y)
	if x.Op == OpConst && y.Op == OpConst {
		return b.Const(x.Val.Or(y.Val))
	}
	if y.Op == OpConst {
		x, y = y, x
	}
	if x.Op == OpConst {
		switch {
		case x.Val.IsZero():
			return y // 0 | y => y
		case x.Val.IsAllOnes():
			return x // all-ones | y => all-ones
		}
	}
	if x == y {
		return x
	}
	if (x.Op == OpNot && x.A == y) || (y.Op == OpNot && y.A == x) {
		return b.Const(AllOnes(x.Width)) // x | ~x => all-ones
	}
	if y.Op == OpOr && (y.A == x || y.B == x) {
		return y
	}
	if x.Op == OpOr && (x.A == y || x.B == y) {
		return x
	}
	x, y = orderCommutative(x, y)
	return b.intern(exprKey{op: OpOr, width: x.Width, a: x, b: y})
}

// Xor returns x ^ y.
func (b *Builder) Xor(x, y *Expr) *Expr {
	b.mustWidth(OpXor, x, y)
	if x.Op == OpConst && y.Op == OpConst {
		return b.Const(x.Val.Xor(y.Val))
	}
	if y.Op == OpConst {
		x, y = y, x
	}
	if x.Op == OpConst {
		switch {
		case x.Val.IsZero():
			return y // 0 ^ y => y
		case x.Val.IsAllOnes():
			return b.Not(y) // all-ones ^ y => ~y
		}
	}
	if x == y {
		return b.Const(BV{W: x.Width}) // x ^ x => 0
	}
	x, y = orderCommutative(x, y)
	return b.intern(exprKey{op: OpXor, width: x.Width, a: x, b: y})
}

// Add returns x + y mod 2^W.
func (b *Builder) Add(x, y *Expr) *Expr {
	b.mustWidth(OpAdd, x, y)
	if x.Op == OpConst && y.Op == OpConst {
		return b.Const(x.Val.Add(y.Val))
	}
	if y.Op == OpConst {
		x, y = y, x
	}
	if x.Op == OpConst && x.Val.IsZero() {
		return y // 0 + y => y
	}
	x, y = orderCommutative(x, y)
	return b.intern(exprKey{op: OpAdd, width: x.Width, a: x, b: y})
}

// Sub returns x - y mod 2^W.
func (b *Builder) Sub(x, y *Expr) *Expr {
	b.mustWidth(OpSub, x, y)
	if x.Op == OpConst && y.Op == OpConst {
		return b.Const(x.Val.Sub(y.Val))
	}
	if y.Op == OpConst && y.Val.IsZero() {
		return x // x - 0 => x
	}
	if x == y {
		return b.Const(BV{W: x.Width}) // x - x => 0
	}
	return b.intern(exprKey{op: OpSub, width: x.Width, a: x, b: y})
}

// Shl returns x << y (shift amount read as unsigned; amounts >= width
// yield zero, matching P4 semantics for bit<W>).
func (b *Builder) Shl(x, y *Expr) *Expr {
	if x.Op == OpConst && y.Op == OpConst {
		return b.Const(x.Val.Shl(uint(y.Val.Uint64())))
	}
	if y.Op == OpConst {
		if y.Val.IsZero() {
			return x
		}
		if y.Val.Hi != 0 || y.Val.Lo >= uint64(x.Width) {
			return b.Const(BV{W: x.Width})
		}
	}
	if x.Op == OpConst && x.Val.IsZero() {
		return x
	}
	return b.intern(exprKey{op: OpShl, width: x.Width, a: x, b: y})
}

// Lshr returns the logical right shift x >> y.
func (b *Builder) Lshr(x, y *Expr) *Expr {
	if x.Op == OpConst && y.Op == OpConst {
		return b.Const(x.Val.Lshr(uint(y.Val.Uint64())))
	}
	if y.Op == OpConst {
		if y.Val.IsZero() {
			return x
		}
		if y.Val.Hi != 0 || y.Val.Lo >= uint64(x.Width) {
			return b.Const(BV{W: x.Width})
		}
	}
	if x.Op == OpConst && x.Val.IsZero() {
		return x
	}
	return b.intern(exprKey{op: OpLshr, width: x.Width, a: x, b: y})
}

// Concat returns x ++ y with x in the most-significant position.
func (b *Builder) Concat(x, y *Expr) *Expr {
	w := x.Width + y.Width
	if w > MaxWidth {
		panic(fmt.Sprintf("sym: concat width %d exceeds %d", w, MaxWidth))
	}
	if x.Op == OpConst && y.Op == OpConst {
		return b.Const(x.Val.Concat(y.Val))
	}
	// (a ++ b)[…] fusions are handled in Extract; here fold nested
	// constant concats left-to-right.
	return b.intern(exprKey{op: OpConcat, width: w, a: x, b: y})
}

// Extract returns x[hi:lo].
func (b *Builder) Extract(x *Expr, hi, lo uint16) *Expr {
	if hi < lo || hi >= x.Width {
		panic(fmt.Sprintf("sym: extract [%d:%d] out of range for width %d", hi, lo, x.Width))
	}
	if hi == x.Width-1 && lo == 0 {
		return x // full-range slice
	}
	switch x.Op {
	case OpConst:
		return b.Const(x.Val.Extract(hi, lo))
	case OpExtract:
		// (x[h:l])[h2:l2] => x[h2+l : l2+l]
		return b.Extract(x.A, hi+x.Lo, lo+x.Lo)
	case OpConcat:
		// Route the slice into the side(s) of the concat it touches.
		lowW := x.B.Width
		switch {
		case hi < lowW:
			return b.Extract(x.B, hi, lo)
		case lo >= lowW:
			return b.Extract(x.A, hi-lowW, lo-lowW)
		}
	}
	return b.intern(exprKey{op: OpExtract, width: hi - lo + 1, a: x, hi: hi, lo: lo})
}

// ZeroExtend widens x to w bits with zero fill (a constant concat).
func (b *Builder) ZeroExtend(x *Expr, w uint16) *Expr {
	if w == x.Width {
		return x
	}
	if w < x.Width {
		panic("sym: zero-extend to narrower width")
	}
	return b.Concat(b.Const(BV{W: w - x.Width}.truncate()), x)
}

// Eq returns the width-1 comparison x == y.
func (b *Builder) Eq(x, y *Expr) *Expr {
	b.mustWidth(OpEq, x, y)
	if x == y {
		return b.True()
	}
	if x.Op == OpConst && y.Op == OpConst {
		return b.Const(Bool(x.Val.Eq(y.Val)))
	}
	if y.Op == OpConst {
		x, y = y, x // constant first
	}
	if x.Op == OpConst {
		// Width-1 equalities reduce to the operand or its negation.
		if x.Width == 1 {
			if x.Val.IsTrue() {
				return y
			}
			return b.Not(y)
		}
		// k == ite(c, t, e) distributes when a branch is constant; this
		// is the rule that folds table-entry chains (Fig. 5b) into plain
		// conditions.
		if y.Op == OpIte {
			tc, ec := y.B.Op == OpConst, y.C.Op == OpConst
			switch {
			case tc && ec:
				tEq, eEq := y.B.Val.Eq(x.Val), y.C.Val.Eq(x.Val)
				switch {
				case tEq && eEq:
					return b.True()
				case tEq:
					return y.A
				case eEq:
					return b.Not(y.A)
				default:
					return b.False()
				}
			case tc && !y.B.Val.Eq(x.Val), ec && !y.C.Val.Eq(x.Val):
				return b.distributeEq(x, y, tc)
			}
		}
	}
	x, y = orderCommutative(x, y)
	return b.intern(exprKey{op: OpEq, width: 1, a: x, b: y})
}

// distributeEq is k == ite(c, t, e) with one branch a constant other
// than k, the then-branch if thenConst: the comparison moves into the
// branch that can still equal k. Down a chain of ites it recurses once
// per link, so the result is memoized per (k, ite) pair; see
// Builder.eqIte.
func (b *Builder) distributeEq(k, ite *Expr, thenConst bool) *Expr {
	key := eqIteKey{k, ite}
	b.mu.Lock()
	r, ok := b.eqIte[key]
	b.mu.Unlock()
	if ok {
		return r
	}
	if thenConst {
		// k == ite(c, t≠k, e) => ~c & (k == e)
		r = b.And(b.Not(ite.A), b.Eq(k, ite.C))
	} else {
		// k == ite(c, t, e≠k) => c & (k == t)
		r = b.And(ite.A, b.Eq(k, ite.B))
	}
	b.mu.Lock()
	b.eqIte[key] = r
	b.mu.Unlock()
	return r
}

// Ne returns x != y.
func (b *Builder) Ne(x, y *Expr) *Expr { return b.Not(b.Eq(x, y)) }

// Ult returns the width-1 unsigned comparison x < y.
func (b *Builder) Ult(x, y *Expr) *Expr {
	b.mustWidth(OpUlt, x, y)
	if x.Op == OpConst && y.Op == OpConst {
		return b.Const(Bool(x.Val.Ult(y.Val)))
	}
	if x == y {
		return b.False()
	}
	if y.Op == OpConst && y.Val.IsZero() {
		return b.False() // nothing is below zero
	}
	if x.Op == OpConst && x.Val.IsAllOnes() {
		return b.False() // nothing is above all-ones
	}
	return b.intern(exprKey{op: OpUlt, width: 1, a: x, b: y})
}

// Ule returns x <= y.
func (b *Builder) Ule(x, y *Expr) *Expr { return b.Not(b.Ult(y, x)) }

// Ugt returns x > y.
func (b *Builder) Ugt(x, y *Expr) *Expr { return b.Ult(y, x) }

// Uge returns x >= y.
func (b *Builder) Uge(x, y *Expr) *Expr { return b.Not(b.Ult(x, y)) }

// Ite returns if cond then t else e. cond must have width 1 and the
// branches must agree on width.
func (b *Builder) Ite(cond, t, e *Expr) *Expr {
	if cond.Width != 1 {
		panic(fmt.Sprintf("sym: ite condition has width %d", cond.Width))
	}
	b.mustWidth(OpIte, t, e)
	switch {
	case cond.IsTrue():
		return t
	case cond.IsFalse():
		return e
	case t == e:
		return t
	}
	if cond.Op == OpNot {
		cond, t, e = cond.A, e, t // ite(~c, t, e) => ite(c, e, t)
	}
	if t.Width == 1 {
		// Boolean-valued ite reduces to connectives, which the And/Or
		// rules then keep folding.
		switch {
		case t.IsTrue() && e.IsFalse():
			return cond
		case t.IsFalse() && e.IsTrue():
			return b.Not(cond)
		case t.IsTrue():
			return b.Or(cond, e)
		case t.IsFalse():
			return b.And(b.Not(cond), e)
		case e.IsTrue():
			return b.Or(b.Not(cond), t)
		case e.IsFalse():
			return b.And(cond, t)
		}
	}
	// Nested ites sharing the exact condition collapse.
	if t.Op == OpIte && t.A == cond {
		t = t.B
	}
	if e.Op == OpIte && e.A == cond {
		e = e.C
	}
	if t == e {
		return t
	}
	return b.intern(exprKey{op: OpIte, width: t.Width, a: cond, b: t, c: e})
}

// AndAll folds a conjunction over width-1 terms; the empty conjunction is
// true.
func (b *Builder) AndAll(xs ...*Expr) *Expr {
	acc := b.True()
	for _, x := range xs {
		acc = b.And(acc, x)
	}
	return acc
}

// OrAll folds a disjunction over width-1 terms; the empty disjunction is
// false.
func (b *Builder) OrAll(xs ...*Expr) *Expr {
	acc := b.False()
	for _, x := range xs {
		acc = b.Or(acc, x)
	}
	return acc
}

// Implies returns (~x | y) on width-1 terms.
func (b *Builder) Implies(x, y *Expr) *Expr { return b.Or(b.Not(x), y) }

package sym

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Op identifies the operator at the root of an expression node.
type Op uint8

// Operators. Booleans are width-1 bitvectors, so there is a single sort:
// OpAnd on width 1 is logical conjunction, OpNot is logical negation, and
// comparison operators (OpEq, OpUlt) always produce width-1 results.
const (
	OpConst   Op = iota // a literal bitvector
	OpVar               // a free variable (data- or control-plane)
	OpNot               // bitwise complement
	OpAnd               // bitwise and
	OpOr                // bitwise or
	OpXor               // bitwise xor
	OpAdd               // addition mod 2^W
	OpSub               // subtraction mod 2^W
	OpShl               // left shift by constant-or-expression amount
	OpLshr              // logical right shift
	OpConcat            // bit concatenation (a is most significant)
	OpExtract           // bit slice [Hi:Lo]
	OpEq                // equality, width-1 result
	OpUlt               // unsigned less-than, width-1 result
	OpIte               // if-then-else; A is the width-1 condition
)

var opNames = [...]string{
	OpConst: "const", OpVar: "var", OpNot: "~", OpAnd: "&", OpOr: "|",
	OpXor: "^", OpAdd: "+", OpSub: "-", OpShl: "<<", OpLshr: ">>",
	OpConcat: "++", OpExtract: "extract", OpEq: "==", OpUlt: "<",
	OpIte: "ite",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// VarClass distinguishes the two runtime-dependent variable kinds the
// paper identifies (§2): data-plane variables come from packet input and
// may take any value; control-plane variables are placeholders that a
// control-plane assignment substitutes away.
type VarClass uint8

const (
	// DataVar is a data-plane variable, written @name@ in the paper.
	DataVar VarClass = iota
	// CtrlVar is a control-plane variable, written |name| in the paper.
	CtrlVar
)

func (c VarClass) String() string {
	if c == CtrlVar {
		return "ctrl"
	}
	return "data"
}

// Expr is a node in a hash-consed expression DAG. Two structurally equal
// expressions built by the same Builder are the same pointer, so pointer
// comparison is semantic-equality-modulo-simplification and maps keyed on
// *Expr implement memoization. Expr values are immutable after creation.
type Expr struct {
	Op    Op
	Width uint16 // result width in bits
	Val   BV     // OpConst only
	Name  string // OpVar only
	Class VarClass
	A     *Expr // first operand (condition for OpIte)
	B     *Expr // second operand (then-branch for OpIte)
	C     *Expr // third operand (else-branch for OpIte)
	Hi    uint16
	Lo    uint16 // OpExtract bounds

	id   uint64 // dense id assigned by the Builder, for deterministic ordering
	mask uint64 // control targets occurring at or below, assigned at intern time
}

// ID returns the builder-assigned dense id of the node. IDs increase in
// creation order and are stable within a Builder, which makes them usable
// as deterministic sort keys.
func (e *Expr) ID() uint64 { return e.id }

// CtrlMask returns the set of control targets whose variables occur at
// or below e, one bit per target as CtrlOf numbered them (targets 64
// apart share a bit, and a variable made by plain Ctrl sets every bit).
// It is fixed at construction. Substituting an environment that assigns
// only control variables leaves an expression with an empty mask as it
// stands, and an expression's residue can only move when the assignment
// of a target in its mask does — the rule SubstScratch validates its
// memo by.
func (e *Expr) CtrlMask() uint64 { return e.mask }

// IsConst reports whether e is a literal.
func (e *Expr) IsConst() bool { return e.Op == OpConst }

// IsTrue reports whether e is the width-1 constant 1.
func (e *Expr) IsTrue() bool { return e.Op == OpConst && e.Val.IsTrue() }

// IsFalse reports whether e is the width-1 constant 0.
func (e *Expr) IsFalse() bool {
	return e.Op == OpConst && e.Width == 1 && e.Val.IsZero()
}

// String renders the expression in a compact prefix/infix mix. Control
// variables print as |name| and data variables as @name@, matching the
// paper's Fig. 5 notation.
func (e *Expr) String() string {
	var sb strings.Builder
	e.write(&sb, 0)
	return sb.String()
}

const maxPrintDepth = 24

func (e *Expr) write(sb *strings.Builder, depth int) {
	if depth > maxPrintDepth {
		sb.WriteString("…")
		return
	}
	switch e.Op {
	case OpConst:
		sb.WriteString(e.Val.String())
	case OpVar:
		if e.Class == CtrlVar {
			fmt.Fprintf(sb, "|%s|", e.Name)
		} else {
			fmt.Fprintf(sb, "@%s@", e.Name)
		}
	case OpNot:
		sb.WriteString("~")
		e.A.write(sb, depth+1)
	case OpExtract:
		e.A.write(sb, depth+1)
		fmt.Fprintf(sb, "[%d:%d]", e.Hi, e.Lo)
	case OpIte:
		sb.WriteString("(")
		e.A.write(sb, depth+1)
		sb.WriteString(" ? ")
		e.B.write(sb, depth+1)
		sb.WriteString(" : ")
		e.C.write(sb, depth+1)
		sb.WriteString(")")
	default:
		sb.WriteString("(")
		e.A.write(sb, depth+1)
		sb.WriteString(" " + e.Op.String() + " ")
		e.B.write(sb, depth+1)
		sb.WriteString(")")
	}
}

// exprKey is the structural identity used for hash-consing.
type exprKey struct {
	op      Op
	width   uint16
	hi, lo  uint16
	valHi   uint64
	valLo   uint64
	class   VarClass
	name    string
	a, b, c *Expr
}

// Builder creates and owns hash-consed expressions. Interning is guarded
// by an internal mutex, so goroutines may build expressions through the
// same Builder concurrently (the engine's read-locked entry points —
// Explain, DifferentialCheck, Snapshot — substitute beside each other:
// hash-consing must stay global or pointer identity, and with it every
// memo keyed on *Expr, would break between them). All other
// per-traversal state is external: concurrent substitution goes through
// SubstWith with one SubstScratch per goroutine. The zero value is not
// usable — call NewBuilder.
type Builder struct {
	mu     sync.Mutex
	nodes  map[exprKey]*Expr
	nextID uint64

	// live mirrors len(nodes) for lock-free observers: epoch publication
	// and wait-free Statistics readers sample the arena size without
	// contending on the intern mutex.
	live atomic.Int64

	// eqIte memoizes the distribution of k == ite(c, t, e) (Eq) per
	// (constant, ite) pair, guarded by mu. A table's selector is a chain
	// of ites as long as the table, every action-compare point distributes
	// its constant down it, and an update at the head leaves every suffix
	// of the chain the node it was: with the memo the distribution over
	// the new head takes one step and finds what the previous update left.
	// Results are hash-consed pointers, so a hit returns what recomputing
	// would; Sweep drops the memo with the nodes it un-interns.
	eqIte map[eqIteKey]*Expr

	// Substitution memo for the single-threaded Subst entry point.
	sub SubstScratch
}

// eqIteKey names one k == ite distribution: the constant and the ite.
type eqIteKey struct{ k, ite *Expr }

// NewBuilder returns an empty expression arena.
func NewBuilder() *Builder {
	return &Builder{nodes: make(map[exprKey]*Expr, 1024), eqIte: make(map[eqIteKey]*Expr)}
}

// NumNodes returns how many distinct nodes the builder has interned; it
// is the measure of expression complexity the benchmarks report.
func (b *Builder) NumNodes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.nodes)
}

// LiveNodes is the wait-free counterpart of NumNodes: it reads an
// atomic mirror of the intern-table size without taking the builder
// mutex, so lock-free readers (epoch publication, Statistics) never
// contend with concurrent interning.
func (b *Builder) LiveNodes() int { return int(b.live.Load()) }

// Sweep removes every interned node not reachable from roots and
// compacts the surviving nodes' dense ids (preserving their relative
// order, so id-based sort keys stay deterministic). It is the arena's
// garbage collector: hash-consed nodes are otherwise immortal, and a
// long-lived engine that substitutes fresh control-plane constants on
// every update would grow the intern table — and every id-indexed
// scratch structure — without bound.
//
// The caller must guarantee exclusive use of the Builder and of every
// retained expression for the duration of the call (the engine runs
// Sweep under its write lock, between passes): ids are reassigned, and
// any *Expr held outside roots becomes a stale alias that must never be
// compared against newly interned nodes. The Builder's own memos — the
// k == ite distribution and Subst's scratch — hold such aliases and are
// dropped here; a caller-owned SubstScratch is the caller's to Reset.
func (b *Builder) Sweep(roots []*Expr) (swept int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.eqIte = make(map[eqIteKey]*Expr)
	b.sub.Reset()
	live := make(map[*Expr]bool, len(b.nodes)/2)
	stack := make([]*Expr, 0, 64)
	for _, r := range roots {
		if r != nil && !live[r] {
			live[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ch := range [...]*Expr{e.A, e.B, e.C} {
			if ch != nil && !live[ch] {
				live[ch] = true
				stack = append(stack, ch)
			}
		}
	}
	keep := make([]*Expr, 0, len(live))
	for k, e := range b.nodes {
		if !live[e] {
			delete(b.nodes, k)
			swept++
			continue
		}
		keep = append(keep, e)
	}
	sort.Slice(keep, func(i, j int) bool { return keep[i].id < keep[j].id })
	for i, e := range keep {
		e.id = uint64(i)
	}
	b.nextID = uint64(len(keep))
	b.live.Store(int64(len(keep)))
	return swept
}

func (b *Builder) intern(k exprKey) *Expr { return b.internMasked(k, 0) }

// internMasked interns k; a node it creates carries own — a variable's
// control target — on top of its operands' masks.
func (b *Builder) internMasked(k exprKey, own uint64) *Expr {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.nodes[k]; ok {
		return e
	}
	mask := own
	for _, ch := range [...]*Expr{k.a, k.b, k.c} {
		if ch != nil {
			mask |= ch.mask
		}
	}
	e := &Expr{
		Op: k.op, Width: k.width, Hi: k.hi, Lo: k.lo,
		Val:  BV{Hi: k.valHi, Lo: k.valLo, W: k.width},
		Name: k.name, Class: k.class,
		A: k.a, B: k.b, C: k.c,
		id: b.nextID, mask: mask,
	}
	if k.op != OpConst {
		e.Val = BV{}
	}
	b.nextID++
	b.nodes[k] = e
	b.live.Store(int64(len(b.nodes)))
	return e
}

// Const returns the literal node for v.
func (b *Builder) Const(v BV) *Expr {
	return b.intern(exprKey{op: OpConst, width: v.W, valHi: v.Hi, valLo: v.Lo})
}

// ConstUint returns the width-w literal for lo.
func (b *Builder) ConstUint(w uint16, lo uint64) *Expr { return b.Const(NewBV(w, lo)) }

// True returns the width-1 constant 1.
func (b *Builder) True() *Expr { return b.Const(Bool(true)) }

// False returns the width-1 constant 0.
func (b *Builder) False() *Expr { return b.Const(Bool(false)) }

// Var returns the variable node named name with the given class and
// width. The same (class, name, width) triple always yields the same
// node.
func (b *Builder) Var(class VarClass, name string, w uint16) *Expr {
	mask := uint64(0)
	if class == CtrlVar {
		mask = ^mask // of no known target: a change to any may concern it
	}
	return b.varMasked(class, name, w, mask)
}

func (b *Builder) varMasked(class VarClass, name string, w uint16, mask uint64) *Expr {
	if w < 1 || w > MaxWidth {
		panic(fmt.Sprintf("sym: invalid variable width %d for %q", w, name))
	}
	return b.internMasked(exprKey{op: OpVar, width: w, class: class, name: name}, mask)
}

// Data returns the data-plane variable @name@ of width w.
func (b *Builder) Data(name string, w uint16) *Expr { return b.Var(DataVar, name, w) }

// Ctrl returns the control-plane variable |name| of width w.
func (b *Builder) Ctrl(name string, w uint16) *Expr { return b.Var(CtrlVar, name, w) }

// CtrlOf returns the control-plane variable |name| of the control
// target — a table, a register, a value set: whatever is assigned as
// one — that the caller numbered target. The number picks the variable's
// CtrlMask bit, target mod 64: targets sharing a bit are told apart by
// nobody, which costs a substitution pass some reuse and never a result.
// The first call for a name fixes its mask.
func (b *Builder) CtrlOf(target int, name string, w uint16) *Expr {
	return b.varMasked(CtrlVar, name, w, 1<<(uint(target)%64))
}

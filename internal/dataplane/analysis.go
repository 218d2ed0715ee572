// Package dataplane computes the one-time data-plane semantics of a P4
// program: a simple data-flow analysis coupled with state-merging (paper
// §4.1, Fig. 4) that annotates program points of interest with hermetic
// data-plane expressions. Control-plane-configurable objects (tables,
// value sets, registers) appear as control-plane placeholder variables
// that the controlplane package later substitutes away.
package dataplane

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/p4/ast"
	"repro/internal/p4/typecheck"
	"repro/internal/sym"
)

// PointKind classifies an annotated program point.
type PointKind uint8

const (
	// PointIfBranch asks "is this if-branch executable?" (dead-code
	// elimination). Expr is the path condition conjoined with the branch
	// condition (or its negation for the else branch).
	PointIfBranch PointKind = iota
	// PointAssignValue asks "is the assigned value a constant?"
	// (constant propagation). Expr is the symbolic RHS value at the
	// assignment, guarded by nothing — it is the value, not a condition.
	PointAssignValue
	// PointTableAction asks "does this table always select the same
	// action?" (table inlining). Expr is the table's action-selector
	// placeholder; substituting a control-plane assignment turns it into
	// the entry-match ite chain of Fig. 5b.
	PointTableAction
	// PointActionReach asks "can this table action ever run?"
	// (dead-action removal, Fig. 3 C/D). Expr is reach ∧ selector == i.
	PointActionReach
	// PointTableReach asks "is this table's apply site executable at
	// all?" (empty/unreachable table removal). Expr is the reach
	// condition of the apply site.
	PointTableReach
	// PointSelectCase asks "is this parser select case executable?"
	// (parser branch pruning, incl. unconfigured value sets).
	PointSelectCase
)

var pointKindNames = [...]string{
	"if-branch", "assign-value", "table-action", "action-reach",
	"table-reach", "select-case",
}

func (k PointKind) String() string {
	if int(k) < len(pointKindNames) {
		return pointKindNames[k]
	}
	return "point?"
}

// Point is a hermetic program-point annotation: its Expr can be
// evaluated independently of every other point (the state-merging
// property the paper relies on).
type Point struct {
	ID   int
	Kind PointKind
	// Expr is the data-plane expression with |ctrl| placeholders.
	Expr *sym.Expr

	// Back-references into the AST so specialization passes can rewrite
	// the node this point talks about. Only the fields relevant to Kind
	// are set.
	Control     string
	If          *ast.IfStmt
	ThenBranch  bool
	Assign      *ast.AssignStmt
	Table       string // qualified table name
	ActionIndex int
	ParserState string
	CaseIndex   int
}

func (p *Point) String() string {
	return fmt.Sprintf("#%d %s %s", p.ID, p.Kind, p.Expr)
}

// TableInfo is everything the control-plane compiler needs to turn a
// table's entries into assignments for this table's placeholders.
type TableInfo struct {
	Name    string // qualified "<control>.<table>"
	Control string
	Table   *ast.Table
	Decl    *ast.ControlDecl

	// KeyExprs are the symbolic values of the key components at the
	// (single) apply site; KeyWidths are their widths; KeyMatch the
	// declared match kinds.
	KeyExprs  []*sym.Expr
	KeyWidths []uint16
	KeyMatch  []ast.MatchKind

	// Actions lists the table's actions in declaration order; the
	// selector placeholder ranges over their indices.
	Actions []ActionInfo
	// DefaultIndex is the index selected on miss.
	DefaultIndex int
	// DefaultArgs are the bound default_action arguments (nil when the
	// default has no parameters or is NoAction).
	DefaultArgs []sym.BV

	// ActionVar is the selector placeholder |t.$action| (width 8).
	ActionVar *sym.Expr
	// HitVar is the |t.$hit| placeholder (width 1).
	HitVar *sym.Expr

	applied bool // a table may have only one apply site
}

// ActionInfo describes one action bound to a table.
type ActionInfo struct {
	Name string
	// Params holds one placeholder per action data parameter
	// (|t.a.param|).
	Params []*sym.Expr
	// ParamWidths mirrors Params.
	ParamWidths []uint16
	// Decl is nil for NoAction.
	Decl *ast.Action
}

// ValueSetInfo describes one use site of a parser value set.
type ValueSetInfo struct {
	Name    string // qualified "<parser>.<vs>"
	Parser  string
	Decl    *ast.ValueSet
	KeyExpr *sym.Expr
	Width   uint16
	// MatchVar is the |vs#site| placeholder (width 1): "does the select
	// key fall in the configured set?".
	MatchVar *sym.Expr
}

// RegisterInfo describes one register read site.
type RegisterInfo struct {
	Name    string // qualified "<control>.<reg>"
	Control string
	Decl    *ast.Register
	Width   uint16
	// ReadVars holds one placeholder per read site (|reg#site|); the
	// control plane substitutes a constant when the register is filled
	// uniformly, or a fresh unconstrained data variable otherwise.
	ReadVars []*sym.Expr
	// Written records whether the data plane writes the register; a
	// written register's reads can never be specialized to the fill
	// constant (the data plane may have overwritten it).
	Written bool
}

// Analysis is the one-time product of the data-plane pass.
type Analysis struct {
	Builder *sym.Builder
	Prog    *ast.Program
	Info    *typecheck.Info

	Points []*Point
	// Tables, ValueSets and Registers are keyed by qualified name.
	Tables    map[string]*TableInfo
	ValueSets map[string]*ValueSetInfo
	Registers map[string]*RegisterInfo
	// TableOrder lists qualified table names in apply order.
	TableOrder []string

	// Taint maps a control-plane variable (by node) to the IDs of the
	// points it can influence, including transitive influence through
	// table key expressions (paper §4.1: the control-plane variable →
	// program points map).
	Taint map[*sym.Expr][]int
	// VarOwner maps a control-plane placeholder to the qualified name of
	// the object (table/value set/register) it belongs to.
	VarOwner map[*sym.Expr]string

	// Final is the merged store at the end of the pipeline, used by
	// tests and by Fig. 5-style inspection.
	Final map[string]*sym.Expr

	// SkippedParser records whether parser analysis was skipped.
	SkippedParser bool

	// pointsOf maps an object's qualified name to the points it
	// influences, in ID order (indexPoints).
	pointsOf map[string][]*Point
}

// PointsOf returns the points influenced by the object with the given
// qualified name (table, value set or register), deduplicated, in ID
// order. The list is the analysis's own, built once by Analyze (the
// taint map never changes afterwards) and shared by every caller: it
// must not be modified.
func (a *Analysis) PointsOf(qualified string) []*Point {
	return a.pointsOf[qualified]
}

// PointsOfTargets returns the union of PointsOf over the given qualified
// names, deduplicated, in ID order. The batch update engine routes a
// whole coalesced batch through this single taint lookup. Like PointsOf,
// the result must not be modified (for a single name it is that name's
// list).
func (a *Analysis) PointsOfTargets(names []string) []*Point {
	var out []*Point
	for i, n := range names {
		if i == 0 {
			out = a.pointsOf[n]
		} else {
			out = mergePoints(out, a.pointsOf[n])
		}
	}
	return out
}

// mergePoints merges two ID-ordered point lists into a fresh one,
// keeping one copy of a point both hold; when either is empty the other
// is returned as is.
func mergePoints(x, y []*Point) []*Point {
	if len(x) == 0 {
		return y
	}
	if len(y) == 0 {
		return x
	}
	out := make([]*Point, 0, len(x)+len(y))
	for len(x) > 0 && len(y) > 0 {
		switch {
		case x[0].ID < y[0].ID:
			out, x = append(out, x[0]), x[1:]
		case x[0].ID > y[0].ID:
			out, y = append(out, y[0]), y[1:]
		default:
			out, x, y = append(out, x[0]), x[1:], y[1:]
		}
	}
	return append(append(out, x...), y...)
}

// indexPoints inverts the taint map through the variable-owner map into
// the per-object point lists PointsOf serves.
func (a *Analysis) indexPoints() {
	ids := make(map[string]map[int]bool)
	for v, tainted := range a.Taint {
		owner := a.VarOwner[v]
		if ids[owner] == nil {
			ids[owner] = make(map[int]bool, len(tainted))
		}
		for _, id := range tainted {
			ids[owner][id] = true
		}
	}
	a.pointsOf = make(map[string][]*Point, len(ids))
	for owner, set := range ids {
		pts := make([]*Point, 0, len(set))
		for id := range set {
			pts = append(pts, a.Points[id])
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].ID < pts[j].ID })
		a.pointsOf[owner] = pts
	}
}

// Options configures the analysis.
type Options struct {
	// SkipParser skips symbolic execution of parser states; every header
	// field becomes an unconstrained data variable. This reproduces the
	// paper's accommodation for large programs (switch.p4): "we added an
	// option to skip parser analysis" (§4.2).
	SkipParser bool

	// Trace, when set, records "dataflow" and "taint" spans under Parent.
	// Metrics, when set, receives the analysis-shape gauges (point,
	// table and taint-edge counts). Both default to disabled.
	Trace   *obs.Trace
	Parent  obs.SpanID
	Metrics *obs.Registry
}

// Error is an analysis error.
type Error struct {
	Msg string
}

func (e *Error) Error() string { return "dataplane: " + e.Msg }

func errorf(format string, args ...any) error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}

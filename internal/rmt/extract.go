package rmt

import (
	"fmt"
	"slices"

	"repro/internal/p4/ast"
	"repro/internal/p4/typecheck"
)

// Requirements derives the table resource requirements and the PHV
// demand of a checked program: per-table key widths/kinds, capacities,
// action counts, and the match-after-write / control dependencies that
// constrain stage placement.
func Requirements(prog *ast.Program, info *typecheck.Info) ([]TableReq, int, error) {
	x := &extractor{prog: prog, info: info, fieldDeps: make(map[string]set)}
	for _, cd := range prog.Controls {
		x.control = cd
		if err := x.stmt(cd.Apply, nil); err != nil {
			return nil, 0, err
		}
	}
	return x.tables, phvDemand(prog, info), nil
}

type set map[string]bool

func union(a, b set) set {
	if len(b) == 0 {
		return a
	}
	out := make(set, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

type extractor struct {
	prog    *ast.Program
	info    *typecheck.Info
	control *ast.ControlDecl
	tables  []TableReq
	// fieldDeps maps a field path to the set of tables whose outputs
	// flow into its current value.
	fieldDeps map[string]set
}

// readDeps returns the tables whose outputs the expression depends on.
func (x *extractor) readDeps(e ast.Expr) set {
	deps := set{}
	ast.WalkExprs(e, func(sub ast.Expr) {
		if path, ok := typecheck.FieldPath(sub); ok {
			deps = union(deps, x.fieldDeps[path])
		}
	})
	return deps
}

func (x *extractor) stmt(s ast.Stmt, guard set) error {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, inner := range s.Stmts {
			if err := x.stmt(inner, guard); err != nil {
				return err
			}
		}
		return nil
	case *ast.AssignStmt:
		deps := union(x.readDeps(s.RHS), guard)
		if path, ok := typecheck.FieldPath(s.LHS); ok {
			x.fieldDeps[path] = deps
		}
		return nil
	case *ast.VarDecl:
		if s.Init != nil {
			x.fieldDeps[s.Name] = union(x.readDeps(s.Init), guard)
		}
		return nil
	case *ast.IfStmt:
		g := union(guard, x.readDeps(s.Cond))
		// `if (t.apply().hit)` both applies the table and guards the
		// branches on its outcome.
		if m, ok := s.Cond.(*ast.Member); ok && m.Name == "hit" {
			if call, ok := m.X.(*ast.CallExpr); ok {
				if inner, ok := call.Fun.(*ast.Member); ok && inner.Name == "apply" {
					name, err := x.applyTable(inner, guard)
					if err != nil {
						return err
					}
					g = union(guard, set{name: true})
				}
			}
		}
		if err := x.stmt(s.Then, g); err != nil {
			return err
		}
		if s.Else != nil {
			return x.stmt(s.Else, g)
		}
		return nil
	case *ast.CallStmt:
		switch fun := s.Call.Fun.(type) {
		case *ast.Member:
			switch fun.Name {
			case "apply":
				_, err := x.applyTable(fun, guard)
				return err
			case "read":
				// A register read writes its destination; attribute it
				// to the guarding tables.
				if path, ok := typecheck.FieldPath(s.Call.Args[0]); ok {
					x.fieldDeps[path] = guard
				}
			}
		case *ast.Ident:
			// Direct action call: its writes carry the argument deps.
			if act := x.control.Action(fun.Name); act != nil {
				deps := guard
				for _, a := range s.Call.Args {
					deps = union(deps, x.readDeps(a))
				}
				for _, w := range actionWrites(act) {
					x.fieldDeps[w] = deps
				}
			}
		}
		return nil
	default:
		return nil
	}
}

func (x *extractor) applyTable(fun *ast.Member, guard set) (string, error) {
	id, ok := fun.X.(*ast.Ident)
	if !ok {
		return "", fmt.Errorf("rmt: table apply target must be an identifier")
	}
	tbl := x.control.Table(id.Name)
	if tbl == nil {
		return "", fmt.Errorf("rmt: unknown table %s", id.Name)
	}
	name := x.control.Name + "." + id.Name
	req := TableReq{Name: name, Entries: tbl.Size, Actions: len(tbl.Actions)}

	deps := set{}
	for k := range guard {
		deps[k] = true
	}
	for _, k := range tbl.Keys {
		t := x.info.TypeOf(k.Expr)
		req.Keys = append(req.Keys, KeyReq{Width: t.Width, Match: k.Match})
		deps = union(deps, x.readDeps(k.Expr))
	}
	for d := range deps {
		req.Deps = append(req.Deps, d)
	}
	slices.Sort(req.Deps)

	// Action data width and written fields.
	maxData := 0
	for _, ar := range tbl.Actions {
		act := x.control.Action(ar.Name)
		if act == nil {
			continue // NoAction
		}
		bits := 0
		for _, p := range act.Params {
			pt := x.info.Resolve(p.Type)
			bits += pt.Width
		}
		if bits > maxData {
			maxData = bits
		}
		for _, w := range actionWrites(act) {
			x.fieldDeps[w] = set{name: true}
		}
	}
	req.ActionDataBits = maxData
	x.tables = append(x.tables, req)
	return name, nil
}

// actionWrites lists the field paths an action body writes.
func actionWrites(act *ast.Action) []string {
	var out []string
	ast.WalkStmts(act.Body, func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.AssignStmt:
			if path, ok := typecheck.FieldPath(s.LHS); ok {
				out = append(out, path)
			}
		case *ast.CallStmt:
			if m, ok := s.Call.Fun.(*ast.Member); ok && m.Name == "read" {
				if path, ok := typecheck.FieldPath(s.Call.Args[0]); ok {
					out = append(out, path)
				}
			}
			if id, ok := s.Call.Fun.(*ast.Ident); ok && id.Name == "mark_to_drop" {
				if path, ok := typecheck.FieldPath(s.Call.Args[0]); ok {
					out = append(out, path+".drop")
				}
			}
		}
	})
	return out
}

// phvDemand estimates packet-header-vector pressure: every field of
// every header the parser extracts (or of all headers when there is no
// parser), plus user metadata fields. Specialization keeps every
// extract, so a specialized program's demand is its original's: which
// extracted fields a device may leave out of the PHV is the backend's
// choice, and this model does not make it.
func phvDemand(prog *ast.Program, info *typecheck.Info) int {
	bits := 0
	extracted := make(map[string]bool)
	haveParser := len(prog.Parsers) > 0
	for _, pd := range prog.Parsers {
		for _, st := range pd.States {
			for _, s := range st.Stmts {
				call, ok := s.(*ast.CallStmt)
				if !ok {
					continue
				}
				m, ok := call.Call.Fun.(*ast.Member)
				if !ok || m.Name != "extract" {
					continue
				}
				t := info.TypeOf(call.Call.Args[0])
				if t.Kind == typecheck.KHeader && !extracted[headerPathKey(call.Call.Args[0])] {
					extracted[headerPathKey(call.Call.Args[0])] = true
					bits += info.HeaderBits[t.Name]
				}
			}
		}
	}
	if !haveParser {
		for _, h := range prog.Headers {
			bits += info.HeaderBits[h.Name]
		}
	}
	// Metadata structs (anything that is not a header container).
	for _, sd := range prog.Structs {
		if sd.Name == "standard_metadata_t" {
			continue
		}
		for _, f := range sd.Fields {
			ft := info.Resolve(f.Type)
			if ft.Kind == typecheck.KBits {
				bits += ft.Width
			}
		}
	}
	return bits
}

func headerPathKey(e ast.Expr) string {
	p, _ := typecheck.FieldPath(e)
	return p
}

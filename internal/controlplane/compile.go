package controlplane

import (
	"fmt"

	"repro/internal/dataplane"
	"repro/internal/flayerr"
	"repro/internal/sym"
)

// CompileStats reports what assignment compilation did for one table.
type CompileStats struct {
	Installed       int
	Eclipsed        int
	Overapproximate bool
}

// ActiveEntries returns a table's entries in match order (the order the
// ite chain evaluates them), with duplicate and eclipsed entries
// omitted — "entries that are duplicate or eclipsed by higher-priority
// entries (and thus have no effect) are omitted in the set of
// control-plane assignments" (§4.1) — and the number omitted. The list
// is the one the configuration maintains (active.go): read it, do not
// modify it, and do not hold it across the table's next write.
func (c *Config) ActiveEntries(table string) ([]*TableEntry, int) {
	t := c.tables[table]
	if t == nil {
		return nil, 0
	}
	return t.active, len(t.eclipsed)
}

// Env is a substitution environment for control-plane placeholders.
type Env = map[*sym.Expr]*sym.Expr

// CompileTable builds the control-plane assignment for one table: the
// selector, hit and parameter placeholders become expressions over the
// table's key expressions (Fig. 5b). Past the overapproximation
// threshold — or while the table is pinned by ForceOverapprox —
// placeholders become fresh unconstrained data variables — the paper's
// "*any*" assignment.
func (c *Config) CompileTable(b *sym.Builder, table string) (Env, CompileStats, error) {
	return c.compileTable(b, table, c.Overapproximated(table))
}

// CompileTablePrecise builds the assignment the table would have
// without any ForceOverapprox pin — the reference the adaptive
// precision controller's differential check compares degraded verdicts
// against. The static entry-count threshold still applies.
func (c *Config) CompileTablePrecise(b *sym.Builder, table string) (Env, CompileStats, error) {
	return c.compileTable(b, table, c.NumEntries(table) > c.threshold())
}

func (c *Config) compileTable(b *sym.Builder, table string, overapprox bool) (Env, CompileStats, error) {
	ti, ok := c.Analysis.Tables[table]
	if !ok {
		return nil, CompileStats{}, fmt.Errorf("controlplane: %w %s", flayerr.ErrUnknownTable, table)
	}
	env := make(Env)
	stats := CompileStats{Installed: c.NumEntries(table)}
	c.met.compiles.Inc()

	if overapprox {
		stats.Overapproximate = true
		c.met.overapprox.Inc()
		env[ti.ActionVar] = b.Data(ti.Name+".$action.any", 8)
		env[ti.HitVar] = b.Data(ti.Name+".$hit.any", 1)
		for _, ai := range ti.Actions {
			for pi, pv := range ai.Params {
				env[pv] = b.Data(fmt.Sprintf("%s.%s#%d.any", ti.Name, ai.Name, pi), ai.ParamWidths[pi])
			}
		}
		return env, stats, nil
	}

	active, eclipsed := c.ActiveEntries(table)
	stats.Eclipsed = eclipsed
	c.met.eclipsed.Add(int64(eclipsed))

	// Miss behaviour: the default action (possibly overridden).
	defIdx := ti.DefaultIndex
	defParams := ti.DefaultArgs
	if d, ok := c.defaults[table]; ok {
		defIdx = actionIndex(ti, d.Name)
		defParams = d.Params
	}

	sel := b.ConstUint(8, uint64(defIdx))
	hit := b.False()
	params := make(map[*sym.Expr]*sym.Expr)
	for ai := range ti.Actions {
		info := &ti.Actions[ai]
		for pi, pv := range info.Params {
			// Parameter fallback: the default action's bound argument
			// when this is the default action, else zero (the value is
			// irrelevant unless the selector picks the action).
			val := sym.BV{W: info.ParamWidths[pi]}
			if ai == defIdx && pi < len(defParams) {
				val = defParams[pi]
			}
			params[pv] = b.Const(val.ZeroExtend(info.ParamWidths[pi]))
		}
	}

	// Build the ite chain from lowest to highest precedence so the
	// highest-precedence entry ends up outermost (first evaluated).
	for i := len(active) - 1; i >= 0; i-- {
		e := active[i]
		m := c.entryCond(b, ti, e)
		ai := actionIndex(ti, e.Action)
		sel = b.Ite(m, b.ConstUint(8, uint64(ai)), sel)
		hit = b.Or(m, hit)
		info := &ti.Actions[ai]
		for pi, pv := range info.Params {
			params[pv] = b.Ite(m, b.Const(e.Params[pi]), params[pv])
		}
	}
	env[ti.ActionVar] = sel
	env[ti.HitVar] = hit
	for pv, val := range params {
		env[pv] = val
	}
	return env, stats, nil
}

// entryCond is the match condition of one entry against the table's
// symbolic key expressions.
func (c *Config) entryCond(b *sym.Builder, ti *dataplane.TableInfo, e *TableEntry) *sym.Expr {
	cond := b.True()
	for i, m := range e.Matches {
		key := ti.KeyExprs[i]
		w := ti.KeyWidths[i]
		mask := m.ternaryMask(w)
		switch {
		case mask.IsZero():
			// Wildcard component: matches everything.
		case mask.IsAllOnes():
			cond = b.And(cond, b.Eq(key, b.Const(m.Value)))
		default:
			masked := b.And(key, b.Const(mask))
			cond = b.And(cond, b.Eq(masked, b.Const(m.Value.And(mask))))
		}
	}
	return cond
}

// CompileValueSet builds the assignments for every use site of a value
// set: the match placeholder becomes the disjunction of member matches
// against the site's key expression; an unconfigured set yields false
// (which is what lets the §3 parser specializations remove branches).
func (c *Config) CompileValueSet(b *sym.Builder, name string) Env {
	env := make(Env)
	c.met.vsCompiles.Inc()
	members := c.valueSets[name]
	for _, vi := range c.Analysis.ValueSets {
		if vi.Name != name {
			continue
		}
		cond := b.False()
		for _, m := range members {
			switch {
			case m.Mask.W == 0 || m.Mask.IsAllOnes():
				cond = b.Or(cond, b.Eq(vi.KeyExpr, b.Const(m.Value)))
			case m.Mask.IsZero():
				cond = b.True()
			default:
				masked := b.And(vi.KeyExpr, b.Const(m.Mask))
				cond = b.Or(cond, b.Eq(masked, b.Const(m.Value.And(m.Mask))))
			}
		}
		env[vi.MatchVar] = cond
	}
	return env
}

// CompileRegister builds the assignments for a register's read sites: a
// uniform fill substitutes the constant; otherwise each site becomes an
// independent unconstrained data variable (each read may observe a
// different data-plane-written value).
func (c *Config) CompileRegister(b *sym.Builder, name string) Env {
	env := make(Env)
	c.met.rgCompiles.Inc()
	ri, ok := c.Analysis.Registers[name]
	if !ok {
		return env
	}
	// A register the data plane writes can hold values other than the
	// fill, so its reads must stay unconstrained.
	if fill, ok := c.regFills[name]; ok && !ri.Written {
		v := b.Const(fill)
		for _, rv := range ri.ReadVars {
			env[rv] = v
		}
		return env
	}
	for i, rv := range ri.ReadVars {
		env[rv] = b.Data(fmt.Sprintf("%s#%d.any", name, i), ri.Width)
	}
	return env
}

// CompileEnv compiles the entire configuration into one substitution
// environment covering every control-plane placeholder in the analysis.
func (c *Config) CompileEnv(b *sym.Builder) (Env, map[string]CompileStats, error) {
	env := make(Env)
	stats := make(map[string]CompileStats, len(c.Analysis.Tables))
	for name := range c.Analysis.Tables {
		te, st, err := c.CompileTable(b, name)
		if err != nil {
			return nil, nil, err
		}
		stats[name] = st
		for k, v := range te {
			env[k] = v
		}
	}
	seenVS := make(map[string]bool)
	for _, vi := range c.Analysis.ValueSets {
		if seenVS[vi.Name] {
			continue
		}
		seenVS[vi.Name] = true
		for k, v := range c.CompileValueSet(b, vi.Name) {
			env[k] = v
		}
	}
	for name := range c.Analysis.Registers {
		for k, v := range c.CompileRegister(b, name) {
			env[k] = v
		}
	}
	return env, stats, nil
}

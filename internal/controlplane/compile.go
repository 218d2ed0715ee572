package controlplane

import (
	"fmt"

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
//
// The precise assignment is read off the table's persistent spine
// (chain.go): the call rebuilds the links the writes since the last
// compile invalidated — as many as the rank of the highest-precedence
// entry they touched, one for a write at the head — and keeps the
// spine for the next call. Compiling "*any*" drops it.
func (c *Config) CompileTable(b *sym.Builder, table string) (Env, CompileStats, error) {
	return c.compileTable(b, table, c.Overapproximated(table), true)
}

// CompileTablePrecise builds the assignment the table would have
// without any ForceOverapprox pin — the reference the adaptive
// precision controller's differential check compares degraded verdicts
// against. The static entry-count threshold still applies. It changes
// nothing in the configuration, the table's spine included, so callers
// holding only a read lock may run it concurrently.
func (c *Config) CompileTablePrecise(b *sym.Builder, table string) (Env, CompileStats, error) {
	return c.compileTable(b, table, c.NumEntries(table) > c.threshold(), false)
}

// compileTable renders one table. store says whether the call owns the
// table's spine (build, keep, drop) or may only read it.
func (c *Config) compileTable(b *sym.Builder, table string, overapprox, store bool) (Env, CompileStats, error) {
	ti, ok := c.Analysis.Tables[table]
	if !ok {
		return nil, CompileStats{}, fmt.Errorf("controlplane: %w %s", flayerr.ErrUnknownTable, table)
	}
	t := c.tables[table]
	stats := CompileStats{Installed: c.NumEntries(table)}
	c.met.compiles.Inc()

	if overapprox {
		if store && t != nil && t.chain != nil {
			t.chain = nil
			c.observeSizes()
		}
		stats.Overapproximate = true
		c.met.overapprox.Inc()
		env := make(Env)
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

	// The spine to read the assignment off: the table's own when this
	// call may bring it up to date or finds it so, else a private one
	// (a table that never held an entry has no state to keep one in).
	var ch *chain
	if t != nil && t.chain != nil && t.chain.b == b && (store || t.chain.stale == 0) {
		ch = t.chain
	} else {
		ch = newChain(b, ti, len(active))
		if store && t != nil {
			t.chain = ch
			c.observeSizes()
		}
	}
	if ch.stale > 0 {
		// Miss behaviour: the default action (possibly overridden).
		defIdx, defParams := ti.DefaultIndex, ti.DefaultArgs
		if d, ok := c.defaults[table]; ok {
			defIdx, defParams = actionIndex(ti, d.Name), d.Params
		}
		c.met.linksRebuilt.Add(int64(ch.rebuild(ti, active, defIdx, defParams)))
	}
	return ch.env(ti), stats, nil
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

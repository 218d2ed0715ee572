package controlplane

import (
	"fmt"
	"sort"

	"repro/internal/sym"
)

// Deep-copyable configuration state, the controlplane half of engine
// snapshots (internal/core). State carries everything Apply has
// accumulated — installed entries with their insertion sequence
// numbers, default overrides, value-set members, register fills — in a
// deterministic order, so the same configuration always produces the
// same State and two snapshots of identical configurations are
// byte-identical.

// State is a self-contained copy of a Config's mutable state.
type State struct {
	Tables    []TableState
	Defaults  []DefaultState
	ValueSets []ValueSetState
	Registers []RegisterState
	// Seq is the global insertion counter; restoring it keeps future
	// entry ordering identical to the uninterrupted run.
	Seq int
}

// TableState holds one table's installed entries in insertion order.
type TableState struct {
	Name    string
	Entries []EntryState
}

// EntryState is one installed entry, with its insertion sequence
// number (the deterministic tie-breaker active-entry sorting uses).
type EntryState struct {
	Priority int
	Seq      int
	Matches  []FieldMatch
	Action   string
	Params   []sym.BV
}

// DefaultState is one table's default-action override.
type DefaultState struct {
	Table  string
	Action ActionCall
}

// ValueSetState holds one value set's configured members.
type ValueSetState struct {
	Name    string
	Members []ValueSetMember
}

// RegisterState is one register's uniform fill.
type RegisterState struct {
	Name string
	Fill sym.BV
}

// State captures the configuration's current mutable state. Tables,
// defaults, value sets and registers are sorted by name; entries keep
// their installed (slice) order.
func (c *Config) State() State {
	var st State
	st.Seq = c.seq
	for name, t := range c.tables {
		ts := TableState{Name: name, Entries: make([]EntryState, len(t.entries))}
		for i, e := range t.entries {
			ts.Entries[i] = EntryState{
				Priority: e.Priority,
				Seq:      e.seq,
				Matches:  append([]FieldMatch(nil), e.Matches...),
				Action:   e.Action,
				Params:   append([]sym.BV(nil), e.Params...),
			}
		}
		st.Tables = append(st.Tables, ts)
	}
	sort.Slice(st.Tables, func(i, j int) bool { return st.Tables[i].Name < st.Tables[j].Name })
	for table, d := range c.defaults {
		st.Defaults = append(st.Defaults, DefaultState{Table: table, Action: ActionCall{
			Name:   d.Name,
			Params: append([]sym.BV(nil), d.Params...),
		}})
	}
	sort.Slice(st.Defaults, func(i, j int) bool { return st.Defaults[i].Table < st.Defaults[j].Table })
	for name, members := range c.valueSets {
		st.ValueSets = append(st.ValueSets, ValueSetState{
			Name:    name,
			Members: append([]ValueSetMember(nil), members...),
		})
	}
	sort.Slice(st.ValueSets, func(i, j int) bool { return st.ValueSets[i].Name < st.ValueSets[j].Name })
	for name, fill := range c.regFills {
		st.Registers = append(st.Registers, RegisterState{Name: name, Fill: fill})
	}
	sort.Slice(st.Registers, func(i, j int) bool { return st.Registers[i].Name < st.Registers[j].Name })
	return st
}

// SetState replaces the configuration's mutable state with st,
// re-validating every element against the analysis schemas exactly as
// Apply would (a snapshot is untrusted input). On error the
// configuration is left unchanged.
func (c *Config) SetState(st State) error {
	tables := make(map[string]*tableState, len(st.Tables))
	maxSeq := st.Seq
	for _, ts := range st.Tables {
		ti, ok := c.Analysis.Tables[ts.Name]
		if !ok {
			return fmt.Errorf("controlplane: state references unknown table %s", ts.Name)
		}
		if _, dup := tables[ts.Name]; dup {
			return fmt.Errorf("controlplane: state lists table %s twice", ts.Name)
		}
		entries := make([]*TableEntry, len(ts.Entries))
		for i, es := range ts.Entries {
			e := &TableEntry{
				Priority: es.Priority,
				Matches:  append([]FieldMatch(nil), es.Matches...),
				Action:   es.Action,
				Params:   append([]sym.BV(nil), es.Params...),
				seq:      es.Seq,
			}
			if err := c.validateEntry(ti, e); err != nil {
				return err
			}
			if es.Seq > maxSeq {
				maxSeq = es.Seq
			}
			entries[i] = e
		}
		t, err := newTableState(ti, entries)
		if err != nil {
			return err
		}
		tables[ts.Name] = t
	}
	defaults := make(map[string]ActionCall, len(st.Defaults))
	for _, ds := range st.Defaults {
		ti, ok := c.Analysis.Tables[ds.Table]
		if !ok {
			return fmt.Errorf("controlplane: state default references unknown table %s", ds.Table)
		}
		ai := actionInfo(ti, ds.Action.Name)
		if ai == nil {
			return fmt.Errorf("controlplane: table %s has no action %s", ds.Table, ds.Action.Name)
		}
		if err := validateParams(ti.Name, ai, ds.Action.Params); err != nil {
			return err
		}
		defaults[ds.Table] = ActionCall{Name: ds.Action.Name, Params: append([]sym.BV(nil), ds.Action.Params...)}
	}
	valueSets := make(map[string][]ValueSetMember, len(st.ValueSets))
	for _, vs := range st.ValueSets {
		vi := c.valueSetInfo(vs.Name)
		if vi == nil {
			return fmt.Errorf("controlplane: state references unknown value set %s", vs.Name)
		}
		if len(vs.Members) > vi.Decl.Size {
			return fmt.Errorf("controlplane: value set %s holds at most %d members, got %d",
				vs.Name, vi.Decl.Size, len(vs.Members))
		}
		for _, m := range vs.Members {
			if m.Value.W != vi.Width {
				return fmt.Errorf("controlplane: value set %s member width %d, want %d",
					vs.Name, m.Value.W, vi.Width)
			}
			if m.Mask.W != 0 && m.Mask.W != vi.Width {
				return fmt.Errorf("controlplane: value set %s mask width %d, want %d",
					vs.Name, m.Mask.W, vi.Width)
			}
		}
		valueSets[vs.Name] = append([]ValueSetMember(nil), vs.Members...)
	}
	regFills := make(map[string]sym.BV, len(st.Registers))
	for _, rs := range st.Registers {
		ri, ok := c.Analysis.Registers[rs.Name]
		if !ok {
			return fmt.Errorf("controlplane: state fills unknown register %s", rs.Name)
		}
		if rs.Fill.W != ri.Width {
			return fmt.Errorf("controlplane: register %s fill width %d, want %d",
				rs.Name, rs.Fill.W, ri.Width)
		}
		regFills[rs.Name] = rs.Fill
	}
	c.tables = tables
	c.defaults = defaults
	c.valueSets = valueSets
	c.regFills = regFills
	c.seq = maxSeq
	c.observeSizes()
	return nil
}

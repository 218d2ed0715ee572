// Package controlplane models the control-plane configuration of a P4
// program in the style of P4Runtime: table entries with
// exact/ternary/lpm/optional matches and priorities, default-action
// overrides, parser value sets, and register fills. It implements the
// paper's "control-plane assignments" (§4.1): entries compile into
// substitution environments for the data-plane placeholders, with
// duplicate and eclipsed entries omitted, and with overapproximation
// past a configurable entry-count threshold.
package controlplane

import (
	"fmt"

	"repro/internal/dataplane"
	"repro/internal/flayerr"
	"repro/internal/p4/ast"
	"repro/internal/sym"
)

// MatchKind re-exports the table key match kinds.
type MatchKind = ast.MatchKind

// Convenience aliases so callers don't need to import ast.
const (
	MatchExact    = ast.MatchExact
	MatchTernary  = ast.MatchTernary
	MatchLPM      = ast.MatchLPM
	MatchOptional = ast.MatchOptional
)

// FieldMatch is one component of a table entry's match key.
type FieldMatch struct {
	Kind  MatchKind
	Value sym.BV
	// Mask applies to ternary matches. A zero mask matches anything.
	Mask sym.BV
	// PrefixLen applies to lpm matches (0..width).
	PrefixLen int
	// Wildcard marks an omitted optional match.
	Wildcard bool
}

// ternaryMask returns the effective mask of the match: the bits a packet
// key must agree on to match.
func (m FieldMatch) ternaryMask(w uint16) sym.BV {
	switch m.Kind {
	case MatchExact:
		return sym.AllOnes(w)
	case MatchTernary:
		return m.Mask
	case MatchLPM:
		if m.PrefixLen == 0 {
			return sym.BV{W: w}
		}
		return sym.AllOnes(w).Shl(uint(int(w) - m.PrefixLen))
	case MatchOptional:
		if m.Wildcard {
			return sym.BV{W: w}
		}
		return sym.AllOnes(w)
	default:
		return sym.AllOnes(w)
	}
}

// TableEntry is one installed match-action entry. The configuration
// never changes an installed entry's exported fields: insert and modify
// install a copy, delete drops the pointer. A *TableEntry handed out by
// ActiveEntries therefore identifies one immutable entry for as long as
// anything holds it, which is what lets dpexec keep compiled entries
// keyed by pointer across image rebuilds.
type TableEntry struct {
	// Priority orders ternary/optional entries; higher wins. It is
	// ignored for pure exact/lpm tables (lpm uses prefix length).
	Priority int
	Matches  []FieldMatch
	Action   string
	Params   []sym.BV

	seq int // insertion order, breaks ties deterministically

	// Set at install time (active.go): the entry's mask signature, the
	// hash of its match values under that signature, and the next
	// installed entry in the same signature bucket.
	sig   *signature
	key   uint64
	chain *TableEntry
}

func (e *TableEntry) String() string {
	return fmt.Sprintf("prio=%d action=%s", e.Priority, e.Action)
}

// matchesEqual reports whether two entries have the same match key
// (P4Runtime identity for MODIFY/DELETE).
func matchesEqual(a, b *TableEntry) bool {
	if len(a.Matches) != len(b.Matches) || a.Priority != b.Priority {
		return false
	}
	for i := range a.Matches {
		x, y := a.Matches[i], b.Matches[i]
		if x.Kind != y.Kind || x.Value != y.Value || x.Mask != y.Mask ||
			x.PrefixLen != y.PrefixLen || x.Wildcard != y.Wildcard {
			return false
		}
	}
	return true
}

// ActionCall names an action with bound parameters (used for
// default-action overrides).
type ActionCall struct {
	Name   string
	Params []sym.BV
}

// ValueSetMember is one member of a parser value set.
type ValueSetMember struct {
	Value sym.BV
	// Mask, when nonzero-width, makes the member a masked match.
	Mask sym.BV
}

// DefaultOverapproxThreshold is the entry count past which a table's
// assignment is overapproximated (paper §4.1 uses 100).
const DefaultOverapproxThreshold = 100

// Config is the complete control-plane state for one program.
type Config struct {
	// Analysis supplies the table/value-set/register schemas.
	Analysis *dataplane.Analysis

	// OverapproxThreshold is the per-table entry budget; past it the
	// table compiles to the "*any*" assignment. Zero means
	// DefaultOverapproxThreshold; negative means never overapproximate.
	OverapproxThreshold int

	tables    map[string]*tableState
	defaults  map[string]ActionCall
	valueSets map[string][]ValueSetMember
	regFills  map[string]sym.BV
	seq       int

	// forced marks tables pinned to the overapproximated ("*any*")
	// assignment regardless of their entry count — the adaptive
	// precision controller's degradation switch (core deadline.go).
	forced map[string]bool

	// met holds the optional observability instruments (SetObserver);
	// the zero value is disabled.
	met cpMetrics
}

// NewConfig returns an empty configuration (every table empty, every
// value set unconfigured, every register unfilled) — the device-spec
// initial assignment the paper describes.
func NewConfig(an *dataplane.Analysis) *Config {
	return &Config{
		Analysis:  an,
		tables:    make(map[string]*tableState),
		defaults:  make(map[string]ActionCall),
		valueSets: make(map[string][]ValueSetMember),
		regFills:  make(map[string]sym.BV),
	}
}

// Threshold returns the effective overapproximation threshold.
func (c *Config) Threshold() int { return c.threshold() }

func (c *Config) threshold() int {
	switch {
	case c.OverapproxThreshold > 0:
		return c.OverapproxThreshold
	case c.OverapproxThreshold < 0:
		return int(^uint(0) >> 1)
	default:
		return DefaultOverapproxThreshold
	}
}

// ForceOverapprox pins (on) or unpins (off) a table to the
// overapproximated assignment, independent of the entry-count
// threshold. It only changes how CompileTable renders the table; the
// installed entries are untouched, so unpinning restores the precise
// assignment exactly.
func (c *Config) ForceOverapprox(table string, on bool) {
	if on {
		if c.forced == nil {
			c.forced = make(map[string]bool)
		}
		c.forced[table] = true
		return
	}
	delete(c.forced, table)
}

// ForcedOverapprox reports whether a table is pinned to the
// overapproximated assignment by ForceOverapprox.
func (c *Config) ForcedOverapprox(table string) bool { return c.forced[table] }

// Overapproximated reports whether CompileTable will render the table's
// assignment as "*any*": either its entry count exceeds the threshold,
// or the precision controller pinned it.
func (c *Config) Overapproximated(table string) bool {
	return c.forced[table] || c.NumEntries(table) > c.threshold()
}

// Entries returns the installed entries of a table in insertion order
// (not the active set; see ActiveEntries).
func (c *Config) Entries(table string) []*TableEntry {
	if t := c.tables[table]; t != nil {
		return t.entries
	}
	return nil
}

// NumEntries returns the installed entry count of a table.
func (c *Config) NumEntries(table string) int { return len(c.Entries(table)) }

// ValueSet returns the configured members of a value set.
func (c *Config) ValueSet(name string) []ValueSetMember { return c.valueSets[name] }

// Default returns the default-action override for a table, if any.
func (c *Config) Default(table string) (ActionCall, bool) {
	d, ok := c.defaults[table]
	return d, ok
}

// RegisterFill returns the uniform fill value of a register, if set.
func (c *Config) RegisterFill(name string) (sym.BV, bool) {
	v, ok := c.regFills[name]
	return v, ok
}

// ---------------------------------------------------------------------------
// Updates

// UpdateKind enumerates control-plane write operations.
type UpdateKind uint8

const (
	// InsertEntry adds a table entry; duplicate keys are rejected.
	InsertEntry UpdateKind = iota
	// ModifyEntry replaces the action/params of an existing entry.
	ModifyEntry
	// DeleteEntry removes an existing entry.
	DeleteEntry
	// SetDefault overrides a table's default action.
	SetDefault
	// SetValueSet replaces a parser value set's members.
	SetValueSet
	// FillRegister sets a register's uniform fill value.
	FillRegister
)

var updateKindNames = [...]string{
	"insert", "modify", "delete", "set-default", "set-value-set", "fill-register",
}

func (k UpdateKind) String() string {
	if int(k) < len(updateKindNames) {
		return updateKindNames[k]
	}
	return "update?"
}

// Update is one control-plane write (one P4Runtime Write RPC entity).
type Update struct {
	Kind UpdateKind
	// Table is the qualified table name for entry/default updates.
	Table string
	Entry *TableEntry
	// Default applies to SetDefault.
	Default ActionCall
	// ValueSet/Members apply to SetValueSet.
	ValueSet string
	Members  []ValueSetMember
	// Register/Fill apply to FillRegister.
	Register string
	Fill     sym.BV
}

// Target returns the qualified name of the configurable object the
// update touches — the key into the taint map.
func (u *Update) Target() string {
	switch u.Kind {
	case SetValueSet:
		return u.ValueSet
	case FillRegister:
		return u.Register
	default:
		return u.Table
	}
}

func (u *Update) String() string {
	return fmt.Sprintf("%s %s", u.Kind, u.Target())
}

// Apply validates and applies an update. Invalid updates (unknown
// objects, schema mismatches, duplicate inserts, missing entries) are
// rejected with an error and leave the configuration unchanged.
func (c *Config) Apply(u *Update) error {
	err := c.applyInner(u)
	if err != nil {
		c.met.rejects.Inc()
		return err
	}
	c.met.applies.Inc()
	c.observeSizes()
	return nil
}

func (c *Config) applyInner(u *Update) error {
	switch u.Kind {
	case InsertEntry, ModifyEntry, DeleteEntry:
		ti, ok := c.Analysis.Tables[u.Table]
		if !ok {
			return fmt.Errorf("controlplane: %w %s", flayerr.ErrUnknownTable, u.Table)
		}
		if u.Entry == nil {
			return fmt.Errorf("controlplane: %s on %s without an entry", u.Kind, u.Table)
		}
		if err := c.validateEntry(ti, u.Entry); err != nil {
			return err
		}
		t := c.tables[u.Table]
		old := t.find(u.Entry)
		switch u.Kind {
		case InsertEntry:
			if old != nil {
				return fmt.Errorf("controlplane: duplicate entry in %s", u.Table)
			}
			if t == nil {
				t = &tableState{ti: ti}
				c.tables[u.Table] = t
			}
			cp := *u.Entry
			c.seq++
			cp.seq = c.seq
			t.insert(&cp)
		case ModifyEntry:
			if old == nil {
				return fmt.Errorf("controlplane: modify of missing entry in %s", u.Table)
			}
			cp := *u.Entry
			t.replace(old, &cp)
		case DeleteEntry:
			if old == nil {
				return fmt.Errorf("controlplane: delete of missing entry in %s", u.Table)
			}
			t.remove(old)
		}
		return nil
	case SetDefault:
		ti, ok := c.Analysis.Tables[u.Table]
		if !ok {
			return fmt.Errorf("controlplane: %w %s", flayerr.ErrUnknownTable, u.Table)
		}
		ai := actionInfo(ti, u.Default.Name)
		if ai == nil {
			return fmt.Errorf("controlplane: table %s has no action %s", u.Table, u.Default.Name)
		}
		if err := validateParams(ti.Name, ai, u.Default.Params); err != nil {
			return err
		}
		c.defaults[u.Table] = u.Default
		if t := c.tables[u.Table]; t != nil && t.chain != nil {
			t.chain.touch(len(t.active)) // the miss link, and so every link
		}
		return nil
	case SetValueSet:
		vi := c.valueSetInfo(u.ValueSet)
		if vi == nil {
			return fmt.Errorf("controlplane: unknown value set %s", u.ValueSet)
		}
		if len(u.Members) > vi.Decl.Size {
			return fmt.Errorf("controlplane: value set %s holds at most %d members, got %d",
				u.ValueSet, vi.Decl.Size, len(u.Members))
		}
		for _, m := range u.Members {
			if m.Value.W != vi.Width {
				return fmt.Errorf("controlplane: value set %s member width %d, want %d",
					u.ValueSet, m.Value.W, vi.Width)
			}
			if m.Mask.W != 0 && m.Mask.W != vi.Width {
				return fmt.Errorf("controlplane: value set %s mask width %d, want %d",
					u.ValueSet, m.Mask.W, vi.Width)
			}
		}
		c.valueSets[u.ValueSet] = append([]ValueSetMember(nil), u.Members...)
		return nil
	case FillRegister:
		ri, ok := c.Analysis.Registers[u.Register]
		if !ok {
			return fmt.Errorf("controlplane: unknown register %s", u.Register)
		}
		if u.Fill.W != ri.Width {
			return fmt.Errorf("controlplane: register %s fill width %d, want %d",
				u.Register, u.Fill.W, ri.Width)
		}
		c.regFills[u.Register] = u.Fill
		return nil
	default:
		return fmt.Errorf("controlplane: unknown update kind %d", u.Kind)
	}
}

func (c *Config) valueSetInfo(name string) *dataplane.ValueSetInfo {
	for _, vi := range c.Analysis.ValueSets {
		if vi.Name == name {
			return vi
		}
	}
	return nil
}

func actionInfo(ti *dataplane.TableInfo, name string) *dataplane.ActionInfo {
	for i := range ti.Actions {
		if ti.Actions[i].Name == name {
			return &ti.Actions[i]
		}
	}
	return nil
}

func actionIndex(ti *dataplane.TableInfo, name string) int {
	for i := range ti.Actions {
		if ti.Actions[i].Name == name {
			return i
		}
	}
	return -1
}

func validateParams(table string, ai *dataplane.ActionInfo, params []sym.BV) error {
	if len(params) != len(ai.Params) {
		return fmt.Errorf("controlplane: %s action %s takes %d params, got %d",
			table, ai.Name, len(ai.Params), len(params))
	}
	for i, p := range params {
		if p.W != ai.ParamWidths[i] {
			return fmt.Errorf("controlplane: %s action %s param %d width %d, want %d",
				table, ai.Name, i, p.W, ai.ParamWidths[i])
		}
	}
	return nil
}

func (c *Config) validateEntry(ti *dataplane.TableInfo, e *TableEntry) error {
	if len(e.Matches) != len(ti.KeyWidths) {
		return fmt.Errorf("controlplane: %s entry has %d match fields, want %d",
			ti.Name, len(e.Matches), len(ti.KeyWidths))
	}
	for i, m := range e.Matches {
		w := ti.KeyWidths[i]
		if m.Kind != ti.KeyMatch[i] {
			return fmt.Errorf("controlplane: %s key %d is %s, entry supplies %s",
				ti.Name, i, ti.KeyMatch[i], m.Kind)
		}
		if m.Value.W != w {
			return fmt.Errorf("controlplane: %s key %d width %d, want %d",
				ti.Name, i, m.Value.W, w)
		}
		switch m.Kind {
		case MatchTernary:
			if m.Mask.W != w {
				return fmt.Errorf("controlplane: %s key %d ternary mask width %d, want %d",
					ti.Name, i, m.Mask.W, w)
			}
		case MatchLPM:
			if m.PrefixLen < 0 || m.PrefixLen > int(w) {
				return fmt.Errorf("controlplane: %s key %d prefix length %d out of range 0..%d",
					ti.Name, i, m.PrefixLen, w)
			}
		}
	}
	ai := actionInfo(ti, e.Action)
	if ai == nil {
		return fmt.Errorf("controlplane: table %s has no action %s", ti.Name, e.Action)
	}
	if ai.Name == "NoAction" && len(e.Params) != 0 {
		return fmt.Errorf("controlplane: NoAction takes no params")
	}
	if ai.Name != "NoAction" {
		if err := validateParams(ti.Name, ai, e.Params); err != nil {
			return err
		}
	}
	return nil
}

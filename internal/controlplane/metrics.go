package controlplane

import "repro/internal/obs"

// cpMetrics holds the configuration layer's pre-resolved instruments
// under the "cp." prefix. The zero value (all nil) is the disabled
// state; every instrument absorbs writes for free when nil, so Apply
// and the Compile* entry points stay branch-free.
type cpMetrics struct {
	applies  *obs.Counter // updates accepted into the configuration
	rejects  *obs.Counter // updates that failed validation
	compiles *obs.Counter // table-assignment recompilations

	overapprox *obs.Counter // table compiles that took the *any* path
	eclipsed   *obs.Counter // entries omitted as duplicate/eclipsed
	vsCompiles *obs.Counter // value-set assignment recompilations
	rgCompiles *obs.Counter // register assignment recompilations

	entries *obs.Gauge // installed entries across all tables
}

// SetObserver resolves the configuration layer's instruments from a
// registry; a nil registry disables them (the default).
func (c *Config) SetObserver(r *obs.Registry) {
	if r == nil {
		c.met = cpMetrics{}
		return
	}
	c.met = cpMetrics{
		applies:    r.Counter("cp.updates_applied"),
		rejects:    r.Counter("cp.updates_rejected"),
		compiles:   r.Counter("cp.table_compiles"),
		overapprox: r.Counter("cp.table_compiles_overapprox"),
		eclipsed:   r.Counter("cp.entries_eclipsed"),
		vsCompiles: r.Counter("cp.valueset_compiles"),
		rgCompiles: r.Counter("cp.register_compiles"),
		entries:    r.Gauge("cp.entries_installed"),
	}
}

// observeEntries refreshes the installed-entry gauge after a mutation.
func (c *Config) observeEntries() {
	if c.met.entries == nil {
		return
	}
	total := 0
	for _, t := range c.tables {
		total += len(t.entries)
	}
	c.met.entries.Set(int64(total))
}

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

	// linksRebuilt counts the spine links table compiles rebuilt (entry
	// links; the miss link is not counted) and links the entry links the
	// spines hold (chain.go): rebuilt ÷ held is the share of a chain a
	// compile walks.
	linksRebuilt *obs.Counter
	links        *obs.Gauge

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

		linksRebuilt: r.Counter("cp.chain_links_rebuilt"),
		links:        r.Gauge("cp.chain_links"),
	}
}

// observeSizes refreshes the installed-entry and spine-link gauges
// after a mutation (a write, or a compile that built or dropped a
// spine).
func (c *Config) observeSizes() {
	if c.met.entries == nil {
		return
	}
	entries, links := 0, 0
	for _, t := range c.tables {
		entries += len(t.entries)
		if t.chain != nil {
			links += len(t.chain.links) - 1
		}
	}
	c.met.entries.Set(int64(entries))
	c.met.links.Set(int64(links))
}

package main

// The registry is the one list of workload and metric names. The
// README tables and BENCHMARK.json are pinned to it by
// TestDocsMatchRegistry, and every run is checked against it before a
// result is printed, so a name cannot exist in one place only.

// referenceSeconds is the run length BENCHMARK.json pins
// ("run_seconds"): -seconds N multiplies the round counts by the scale
// N/20, and scale 1.0 is sized to measure for about twenty seconds on
// the 2-core reference box.
const referenceSeconds = 20

// metric is one named number a run reports.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change is a regression (0 for per-layer metrics).
	Bound float64
	// Src is how a per-layer number is taken from outside: "S" a span the
	// harness records around a call into the layer's public function, "C"
	// a counter the program already exports.
	Src string
	// Moves names the end-to-end metric a per-layer metric should move,
	// On the workloads where it should.
	Moves string
	On    string
}

var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "update_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "update_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "update_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "pkt_ns_p50", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

const (
	inproc   = "churn_batch, acl_precise, pkt_churn"
	allLoads = "all"
)

var perLayer = []metric{
	// Set-up stages.
	{Name: "p4.parse_ms", Unit: "ms", Better: "lower", Src: "S", Moves: "setup_s", On: allLoads},
	{Name: "dataplane.analyze_ms", Unit: "ms", Better: "lower", Src: "C", Moves: "setup_s", On: allLoads},
	{Name: "core.preprocess_ms", Unit: "ms", Better: "lower", Src: "C", Moves: "setup_s", On: allLoads},
	{Name: "core.representative_ms", Unit: "ms", Better: "lower", Src: "S", Moves: "setup_s", On: "churn_batch"},
	{Name: "core.preload_ms", Unit: "ms", Better: "lower", Src: "S", Moves: "setup_s", On: "acl_precise, pkt_churn, fleet_small"},
	{Name: "core.snapshot_ms", Unit: "ms", Better: "lower", Src: "S", Moves: "setup_s", On: "fleet_small"},
	{Name: "core.restore_ms", Unit: "ms", Better: "lower", Src: "S", Moves: "setup_s", On: "fleet_small"},
	{Name: "core.snapshot_kb", Unit: "KB", Better: "lower", Src: "S", Moves: "setup_s", On: "fleet_small"},

	// The update path inside the engine.
	{Name: "core.eval_share", Unit: "share", Better: "lower", Src: "C", Moves: "update_per_s", On: "churn_batch, acl_precise"},
	{Name: "core.update_share", Unit: "share", Better: "lower", Src: "C", Moves: "update_p50_ms", On: "churn_batch, acl_precise"},
	{Name: "core.forwarded_share", Unit: "share", Better: "higher", Src: "C", Moves: "update_per_s", On: "churn_batch"},
	{Name: "core.coalesced_share", Unit: "share", Better: "higher", Src: "C", Moves: "update_per_s", On: "churn_batch"},
	{Name: "core.points_per_update", Unit: "count", Better: "lower", Src: "C", Moves: "update_per_s", On: "churn_batch"},
	{Name: "core.cache_hit_share", Unit: "share", Better: "higher", Src: "C", Moves: "update_p50_ms", On: "acl_precise, churn_batch"},
	{Name: "dd.answered_share", Unit: "share", Better: "higher", Src: "C", Moves: "update_p50_ms", On: "acl_precise, churn_batch"},
	{Name: "dd.compiles", Unit: "count", Better: "lower", Src: "C", Moves: "update_p50_ms", On: "acl_precise, churn_batch"},
	{Name: "dd.nodes", Unit: "count", Better: "lower", Src: "C", Moves: "heap_live_mb", On: "acl_precise"},
	{Name: "sym.solver_queries_per_update", Unit: "count", Better: "lower", Src: "C", Moves: "update_p50_ms", On: "acl_precise, churn_batch"},
	{Name: "controlplane.compile_us", Unit: "us", Better: "lower", Src: "S", Moves: "update_p50_ms", On: "churn_batch"},
	{Name: "controlplane.overapprox_share", Unit: "share", Better: "lower", Src: "C", Moves: "update_p50_ms", On: "churn_batch"},
	{Name: "core.arena_sweeps", Unit: "count", Better: "lower", Src: "C", Moves: "update_p95_ms", On: "acl_precise, churn_batch"},
	{Name: "core.arena_nodes", Unit: "count", Better: "lower", Src: "C", Moves: "heap_live_mb", On: "acl_precise, churn_batch"},
	{Name: "rt.alloc_kb_per_update", Unit: "KB", Better: "lower", Src: "C", Moves: "update_p95_ms", On: "acl_precise, churn_batch"},
	{Name: "rt.gc_cycles", Unit: "count", Better: "lower", Src: "C", Moves: "update_p95_ms", On: "acl_precise, churn_batch"},

	// The executable image: built on the writer's path, run on the packet path.
	{Name: "dpexec.compile_us", Unit: "us", Better: "lower", Src: "S", Moves: "update_p50_ms", On: "pkt_churn"},
	{Name: "dpexec.retarget_us", Unit: "us", Better: "lower", Src: "S", Moves: "update_p50_ms", On: "pkt_churn"},
	{Name: "dpexec.rebuild_share", Unit: "share", Better: "lower", Src: "S", Moves: "update_p50_ms", On: "pkt_churn"},
	{Name: "dpexec.run_ns_hit", Unit: "ns", Better: "lower", Src: "S", Moves: "pkt_ns_p50", On: "pkt_churn"},
	{Name: "dpexec.run_ns_miss", Unit: "ns", Better: "lower", Src: "S", Moves: "pkt_ns_p50", On: "pkt_churn"},
	{Name: "dpexec.run_ns_reject", Unit: "ns", Better: "lower", Src: "S", Moves: "pkt_ns_p50", On: "pkt_churn"},
	{Name: "dpexec.run_ns_1500", Unit: "ns", Better: "lower", Src: "S", Moves: "pkt_ns_p50", On: "pkt_churn"},
	{Name: "dpexec.pin_ns", Unit: "ns", Better: "lower", Src: "S", Moves: "pkt_ns_p50", On: "pkt_churn"},
	{Name: "dpexec.allocs_per_pkt", Unit: "count", Better: "lower", Src: "C", Moves: "pkt_ns_p50", On: "pkt_churn"},
	{Name: "dpexec.fastpath_share", Unit: "share", Better: "higher", Src: "S", Moves: "pkt_ns_p50", On: "pkt_churn"},
	{Name: "dpexec.image_instrs", Unit: "count", Better: "lower", Src: "C", Moves: "pkt_ns_p50", On: inproc},
	{Name: "dpexec.image_slots", Unit: "count", Better: "lower", Src: "C", Moves: "pkt_ns_p50", On: inproc},
	{Name: "devcompiler.spec_stages", Unit: "count", Better: "lower", Src: "C", Moves: "pkt_ns_p50", On: allLoads},
	{Name: "devcompiler.spec_stmts", Unit: "count", Better: "lower", Src: "C", Moves: "pkt_ns_p50", On: allLoads},
	{Name: "core.dead_points_share", Unit: "share", Better: "higher", Src: "C", Moves: "pkt_ns_p50", On: allLoads},
	{Name: "dpexec.quiet_pkt_ns_p50", Unit: "ns", Better: "lower", Src: "S", Moves: "pkt_ns_p50", On: "pkt_churn"},
	{Name: "dpexec.churn_penalty", Unit: "ratio", Better: "lower", Src: "S", Moves: "pkt_ns_p50", On: "pkt_churn"},
	{Name: "dpexec.pkt_ns_p99", Unit: "ns", Better: "lower", Src: "S", Moves: "pkt_ns_p50", On: "pkt_churn"},
	{Name: "dpexec.pkt_per_s", Unit: "1/s", Better: "higher", Src: "S", Moves: "pkt_ns_p50", On: "pkt_churn"},
	{Name: "dpexec.swaps_seen", Unit: "count", Better: "higher", Src: "S", Moves: "pkt_ns_p50", On: "pkt_churn"},
	{Name: "bmv2.run_ns", Unit: "ns", Better: "lower", Src: "S", Moves: "pkt_ns_p50", On: "pkt_churn"},
	{Name: "dpexec.speedup_vs_bmv2", Unit: "ratio", Better: "higher", Src: "S", Moves: "pkt_ns_p50", On: "pkt_churn"},

	// The fleet's wires; zero on the in-process three.
	{Name: "binproto.encode_us", Unit: "us", Better: "lower", Src: "S", Moves: "update_p50_ms", On: "fleet_small"},
	{Name: "binproto.decode_us", Unit: "us", Better: "lower", Src: "S", Moves: "update_p50_ms", On: "fleet_small"},
	{Name: "binproto.bytes_per_update", Unit: "B", Better: "lower", Src: "S", Moves: "update_p50_ms", On: "fleet_small"},
	{Name: "wire.encode_us", Unit: "us", Better: "lower", Src: "S", Moves: "update_p50_ms", On: "fleet_small"},
	{Name: "wire.decode_us", Unit: "us", Better: "lower", Src: "S", Moves: "update_p50_ms", On: "fleet_small"},
	{Name: "wire.bytes_per_update", Unit: "B", Better: "lower", Src: "S", Moves: "update_p50_ms", On: "fleet_small"},
	{Name: "client.ping_us", Unit: "us", Better: "lower", Src: "S", Moves: "update_p50_ms", On: "fleet_small"},
	{Name: "cluster.front_overhead_us", Unit: "us", Better: "lower", Src: "S", Moves: "update_p50_ms", On: "fleet_small"},
	{Name: "server.apply_share", Unit: "share", Better: "lower", Src: "C", Moves: "update_per_s", On: "fleet_small"},
	{Name: "server.ship_share", Unit: "share", Better: "lower", Src: "C", Moves: "update_per_s", On: "fleet_small"},
	{Name: "server.queue_wait_us", Unit: "us", Better: "lower", Src: "C", Moves: "update_p95_ms", On: "fleet_small"},
	{Name: "server.coalesced_share", Unit: "share", Better: "higher", Src: "C", Moves: "update_per_s", On: "fleet_small"},
	{Name: "server.queue_full", Unit: "count", Better: "lower", Src: "C", Moves: "update_p95_ms", On: "fleet_small"},
	{Name: "server.ship_errors", Unit: "count", Better: "lower", Src: "C", Moves: "update_p95_ms", On: "fleet_small"},
	{Name: "server.ship_gaps", Unit: "count", Better: "lower", Src: "C", Moves: "update_p95_ms", On: "fleet_small"},
	{Name: "server.exec_req_us", Unit: "us", Better: "lower", Src: "S", Moves: "pkt_ns_p50", On: "fleet_small"},
	{Name: "wire.exec_codec_share", Unit: "share", Better: "lower", Src: "S", Moves: "pkt_ns_p50", On: "fleet_small"},
	{Name: "server.read_p50_us", Unit: "us", Better: "lower", Src: "S", Moves: "pkt_ns_p50", On: "fleet_small"},

	// Health of the benchmark itself; these should move nothing.
	{Name: "bench.budget_residual_share", Unit: "share", Better: "lower", Src: "S", Moves: "-", On: "fleet_small"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower", Src: "S", Moves: "-", On: allLoads},
	{Name: "bench.writer_late_ms_p95", Unit: "ms", Better: "lower", Src: "S", Moves: "-", On: "pkt_churn"},
	{Name: "bench.spread.setup_s", Unit: "share", Better: "lower", Src: "S", Moves: "-", On: allLoads},
	{Name: "bench.spread.update_per_s", Unit: "share", Better: "lower", Src: "S", Moves: "-", On: allLoads},
	{Name: "bench.spread.update_p50_ms", Unit: "share", Better: "lower", Src: "S", Moves: "-", On: allLoads},
	{Name: "bench.spread.update_p95_ms", Unit: "share", Better: "lower", Src: "S", Moves: "-", On: allLoads},
	{Name: "bench.spread.pkt_ns_p50", Unit: "share", Better: "lower", Src: "S", Moves: "-", On: allLoads},
	{Name: "bench.spread.heap_live_mb", Unit: "share", Better: "lower", Src: "S", Moves: "-", On: allLoads},
}

// exactCounters are the per-layer C-metrics that repeat exactly for a
// given seed and scale (pure operation counts, no clock), so the plain
// run prints them too and a later change may rest a claim on them.
var exactCounters = []string{
	"core.forwarded_share", "core.coalesced_share",
	"dpexec.fastpath_share", "devcompiler.spec_stages", "devcompiler.spec_stmts",
	"core.dead_points_share",
}

// findMetric looks a name up in both lists.
func findMetric(name string) *metric {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

func isEndToEnd(name string) bool {
	m := findMetric(name)
	return m != nil && m.Bound > 0
}

func isExactCounter(name string) bool {
	for _, n := range exactCounters {
		if n == name {
			return true
		}
	}
	return false
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	// Why is the one line BENCHMARK.json carries.
	Why string
	// Loop states how load is offered: closed (the next call waits for
	// the previous reply) or open (calls are due on a schedule).
	Loop string
	run  func(*env) error
}

var workloads = []workload{
	{
		Name: "churn_batch",
		Why:  "scion headline burst as controller-shaped batches: core re-evaluation and controlplane compile do the work, no wire",
		Loop: "closed, 1 writer",
		run:  runChurnBatch,
	},
	{
		Name: "acl_precise",
		Why:  "middleblock precise-mode single ACL updates on a deep priority chain: same core/dd layers unbatched, heap is diagram nodes",
		Loop: "closed, 1 writer",
		run:  runACLPrecise,
	},
	{
		Name: "pkt_churn",
		Why:  "nat44 packets beside a fixed-rate open-loop writer: dpexec VM, image rebuild and hot swap with one core per thread",
		Loop: "open, 1 writer at 50 calls/s (200 updates/s) beside 1 closed-loop traffic goroutine",
		run:  runPktChurn,
	},
	{
		Name: "fleet_small",
		Why:  "front + 2 shards with ship-before-ack standbys on loopback: binproto/wire codecs, splice, dispatcher and ship leg dominate",
		Loop: "closed, 2 connections",
		run:  runFleetSmall,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

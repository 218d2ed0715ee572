// Package core implements Flay's incremental specialization engine
// (paper §4): it combines the one-time data-plane analysis with the
// live control-plane configuration, answers specialization queries at
// every annotated program point, decides for each control-plane update
// whether the program's implementation must change (Recompile) or the
// update can be forwarded to the device as-is (Forward), and produces
// the specialized program.
package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/dd"
	"repro/internal/flayerr"
	"repro/internal/obs"
	"repro/internal/p4/ast"
	"repro/internal/p4/parser"
	"repro/internal/p4/typecheck"
	"repro/internal/sym"
)

// VerdictKind classifies a program point's resolved behaviour.
type VerdictKind uint8

const (
	// VerdictDead: the point's condition is provably unsatisfiable.
	VerdictDead VerdictKind = iota
	// VerdictLive: the condition may hold (includes no proof —
	// conservative).
	VerdictLive
	// VerdictConst: the point's value is a single constant.
	VerdictConst
	// VerdictVaries: the value is not provably constant.
	VerdictVaries
)

var verdictNames = [...]string{"dead", "live", "const", "varies"}

func (k VerdictKind) String() string {
	if int(k) < len(verdictNames) {
		return verdictNames[k]
	}
	return "verdict?"
}

// Verdict is the resolved behaviour of one program point under the
// current control-plane configuration.
type Verdict struct {
	Kind VerdictKind
	// Val holds the constant for VerdictConst.
	Val sym.BV
}

func (v Verdict) String() string {
	if v.Kind == VerdictConst {
		return fmt.Sprintf("const %s", v.Val)
	}
	return v.Kind.String()
}

// DecisionKind is the outcome of processing one control-plane update.
type DecisionKind uint8

const (
	// Forward: no program point changed behaviour; the update is
	// installed on the device without recompilation (the paper's fast
	// path).
	Forward DecisionKind = iota
	// Recompile: at least one point's verdict (or an implementation
	// assumption such as a narrowed match kind) changed; the affected
	// components must be respecialized.
	Recompile
	// Rejected: the update failed validation and was not applied.
	Rejected
)

var decisionNames = [...]string{"forward", "recompile", "rejected"}

func (k DecisionKind) String() string {
	if int(k) < len(decisionNames) {
		return decisionNames[k]
	}
	return "decision?"
}

// Decision reports what Flay did with one update.
type Decision struct {
	Kind   DecisionKind
	Update *controlplane.Update
	// AffectedPoints is how many program points the taint map routed
	// the update to.
	AffectedPoints int
	// ChangedPoints lists the IDs of points whose verdict changed.
	ChangedPoints []int
	// ImplementationChange notes a non-verdict assumption violation
	// (e.g. a ternary key narrowed to exact now needs ternary again).
	ImplementationChange string
	// Components lists the qualified names of data-plane components
	// needing recompilation.
	Components []string
	// Elapsed is the update-analysis wall time (the paper's "update
	// analysis time", Tbl. 2/3).
	Elapsed time.Duration
	// Degraded marks a decision evaluated under a degraded assignment:
	// the adaptive precision controller (deadline.go) pinned the target
	// to the overapproximation, so the verdict is conservative rather
	// than precise ("precision":"degraded" on the wire and in the audit
	// trail).
	Degraded bool
	// Err is set for Rejected decisions.
	Err error
}

func (d *Decision) String() string {
	switch d.Kind {
	case Forward:
		return fmt.Sprintf("forward %s (%d points, %v)", d.Update, d.AffectedPoints, d.Elapsed)
	case Recompile:
		return fmt.Sprintf("recompile %v after %s (%d/%d points changed, %v)",
			d.Components, d.Update, len(d.ChangedPoints), d.AffectedPoints, d.Elapsed)
	default:
		return fmt.Sprintf("rejected %s: %v", d.Update, d.Err)
	}
}

// Quality selects how aggressively the specializer rewrites the
// program — the recompilation-time vs specialization-quality tradeoff
// the paper names as future work (§6). Lower quality keeps more of the
// original implementation, so fewer control-plane updates invalidate
// it (fewer recompilations), at the price of higher resource usage.
type Quality uint8

const (
	// QualityFull applies every pass: DCE, constant propagation, table
	// inlining, dead-action removal, match-kind narrowing, select-case
	// pruning. Best resource usage, most recompilation triggers.
	QualityFull Quality = iota
	// QualityNoNarrowing skips match-kind narrowing (ternary keys stay
	// ternary), removing the Fig.-3-step-4 class of recompilations for
	// tables with mask churn.
	QualityNoNarrowing
	// QualityDCEOnly additionally skips table inlining and constant
	// propagation: only dead branches, dead actions and empty tables
	// are removed.
	QualityDCEOnly
	// QualityNone performs no specialization at all: the installed
	// implementation is the original program, so no control-plane
	// update ever requires recompilation (the "fall-back datapath"
	// extreme the paper contrasts against).
	QualityNone
)

var qualityNames = [...]string{"full", "no-narrowing", "dce-only", "none"}

func (q Quality) String() string {
	if int(q) < len(qualityNames) {
		return qualityNames[q]
	}
	return "quality?"
}

// Options configures a Specializer.
type Options struct {
	// SkipParser skips parser analysis (paper §4.2, switch.p4).
	SkipParser bool
	// OverapproxThreshold overrides the per-table entry budget
	// (default 100; negative disables overapproximation — "precise
	// mode" in Tbl. 3).
	OverapproxThreshold int
	// Quality selects the specialization aggressiveness (default
	// QualityFull).
	Quality Quality

	// Exec enables the data-plane executor (exec.go): every epoch
	// publication also compiles and hot-swaps an executable image of
	// the specialized program, served wait-free by Exec/ExecBatch. Off
	// by default — engines that never execute packets pay nothing.
	Exec bool

	// RepairInterval paces the adaptive precision controller's
	// background repair goroutine (deadline.go): after RepairInterval of
	// quiescence, degraded tables are differentially checked and
	// promoted back to precise, one per tick. Zero selects the default
	// (100ms); negative disables background repair (promotion then only
	// happens through PromoteAll).
	RepairInterval time.Duration

	// Trace, when set, records structured spans for every pipeline stage
	// (parse → dataflow → taint → query → pass). Metrics, when set,
	// resolves the engine's counters, gauges and latency histograms.
	// Audit, when set, receives one AuditRecord per decided update. All
	// three default to nil — fully disabled, with no allocation on the
	// update path.
	Trace   *obs.Trace
	Metrics *obs.Registry
	Audit   *obs.Trail
}

// Stats aggregates engine counters. The three outcome counters
// partition Updates: Updates == Forwarded + Recompilations + Rejected.
type Stats struct {
	Points         int
	Tables         int
	AnalysisTime   time.Duration // one-time data-plane analysis
	PreprocessTime time.Duration // initial verdict computation
	Updates        int
	Forwarded      int
	Recompilations int
	Rejected       int
	UpdateTime     time.Duration // cumulative update-analysis time

	// Batch engine counters (ApplyBatch).
	Batches        int // ApplyBatch invocations
	BatchedUpdates int // updates processed through ApplyBatch
	// Coalesced counts updates that shared a per-target assignment
	// recompile + point re-evaluation with at least one other update of
	// the same batch — i.e. evaluation passes the batch engine elided.
	Coalesced int

	EvalTime time.Duration // cumulative wall time re-evaluating points

	// Always zero: the specialization-query cache they counted is gone.
	// They stay only because bench/ — which a PR may not edit alongside
	// other code — still reads them (bench/layers.go through
	// goflay.Stats, bench/fleet_small.go through wire.Stats) for
	// core.cache_hit_share; the ROADMAP item that retires the legacy
	// benchmark estate drops that metric and these fields with it.
	CacheHits   int64
	CacheMisses int64

	// Query dispatch counters: how each query that got past the
	// substitution skip was answered (decide), cheapest first — by a
	// literal residue, by the width rule (free variables past the
	// exhaustive bound: Live/Varies without a proof attempt), or on a
	// decision diagram. With DDFallbacks they sum to the points evaluated
	// minus substitution skips.
	QueryLiteral int64
	QueryWidth   int64
	QueryDD      int64

	// Decision-diagram counters, over the queries that reached the
	// diagram stage — literal and width-decided queries never do.
	// DDQueries counts verdicts a diagram walk decided (QueryDD again),
	// DDFallbacks queries that reached the diagram stage and got no
	// proof (Live/Varies), DDCompiles diagram compilations (one per query
	// that reached the stage, compile-memo hits included, counted where
	// the compile runs: DDQueries + DDFallbacks unless a query skipped
	// it), and DDNodes the nodes in the current diagram store.
	DDQueries   int64
	DDFallbacks int64
	DDCompiles  int64
	DDNodes     int

	// Adaptive precision controller counters (deadline.go).
	Degradations    int // tables degraded to overapproximation
	Promotions      int // tables promoted back to precise
	DegradedTables  int // tables currently degraded
	UnsoundDegraded int // unsound degraded verdicts observed (must be 0)

	// Expression-arena hygiene counters. Sustained churn interns fresh
	// constants on every update; periodic sweeps keep the hash-consing
	// arena proportional to live state instead of update history.
	ArenaNodes  int // interned expression nodes right now
	ArenaSweeps int // arena garbage collections run
	ArenaSwept  int // nodes reclaimed across all sweeps

	// Executable image maintenance (exec.go; zero without Options.Exec).
	// A publication that changed the configuration either patches the
	// previous image (every update of the call was forwarded) or
	// recompiles it from the specialized program; a recompile that failed
	// counts as an error, not a compile, and the previous image serves on.
	ImagePatches  int
	ImageCompiles int
	ImageErrors   int
	ImageBlocks   int           // entry action blocks the image builds compiled
	ImageTime     time.Duration // cumulative image build time
}

// Specializer is the incremental specializing compiler.
//
// A Specializer is safe for concurrent use: mutating entry points
// (Apply, ApplyBatch, Degrade, PromoteAll, ReevaluateAll) serialize behind a
// write lock and end by publishing an immutable epoch (epoch.go), while the
// query-path readers (Verdict, Statistics, Entries, Generation,
// DegradedTables) load the published epoch wait-free — they never
// block a writer and a writer never blocks them. Heavy read entry
// points that need the full mutable state (Snapshot, DifferentialCheck,
// SpecializedProgram) share the read lock, which is what gives them a
// consistent cut against writers. Point re-evaluation inside a mutating
// call is one loop on the caller's goroutine (eval.go).
type Specializer struct {
	Prog *ast.Program
	Info *typecheck.Info
	An   *dataplane.Analysis
	Cfg  *controlplane.Config

	// source is the program text the engine was opened from; snapshots
	// embed it so Restore can open it again.
	source string

	// mu guards every field below as well as Cfg and the Builder's
	// single-threaded substitution memo.
	mu sync.RWMutex

	env      controlplane.Env
	verdicts []Verdict
	impls    map[string]*tableImpl
	stats    Stats
	quality  Quality

	// tablePoints indexes each table's points by kind (impl.go), built
	// once at open; plan is the rewriter's verdict-independent grouping
	// of the points (passes.go), also built once at open.
	tablePoints map[string]*tablePoints
	plan        *rewritePlan

	// co is the coordination state (epoch.go): the published epoch
	// pointer, the audit-seq allocator and the arena-sweep trigger.
	co coord
	// verdictsDirty is set (single-threaded, in reevalPoints' epilogue)
	// when a pass changed at least one verdict; publish() clears it and
	// only then re-copies the verdict slice.
	verdictsDirty bool
	// Data-plane executor state (exec.go), all guarded by mu: exec is
	// Options.Exec; imgTargets lists the targets forwarded updates
	// touched since the last publication (the image is patched there);
	// imgFull forces the next publication to recompile the image from
	// the specialized program. machines pools executor machines for the
	// wait-free Exec path. imgFault makes the next image compile fail
	// (a test seam, export_test.go).
	exec       bool
	imgFull    bool
	imgFault   bool
	imgTargets []string
	machines   sync.Pool

	// eval is the evaluation scratch every pass runs over (eval.go);
	// grouping is the update path's bookkeeping (batch.go).
	eval     evalScratch
	grouping grouping

	// Observability (all fields are nil-safe; nil means disabled).
	trace  *obs.Trace
	audit  *obs.Trail
	met    coreMetrics
	symMet *sym.SolverMetrics
	// lastChanges is the scratch buffer reevalPoints fills with the
	// point-level verdict flips of the last pass, in point-ID order. It
	// is only populated when the audit trail is enabled.
	lastChanges []obs.PointChange

	// pointSub caches each point's last substituted expression (a
	// hash-consed pointer): when an update's substitution yields the
	// same node, the verdict cannot have changed and the query is
	// skipped entirely. With the verdict it is all the engine keeps per
	// point.
	pointSub []*sym.Expr

	// The decision-diagram query core (dd.go): set once in open and
	// never swapped, so the wait-free Statistics reads its store pointer
	// without the lock.
	ddc *ddCore
	// answeredBy counts queryAny's dispatch, one slot per queryPath;
	// atomic because Statistics reads them live beside the writer.
	answeredBy [numQueryPaths]atomic.Int64

	// Adaptive precision controller state (deadline.go). costNS is the
	// per-target EWMA of precise analysis cost per tainted point (ns),
	// costGlobalNS the engine-wide fallback; degraded maps each
	// currently degraded table to its cause; repair is the configured
	// repair interval and repairOn whether the repair goroutine is live.
	costNS       map[string]float64
	costGlobalNS float64
	degraded     map[string]string
	repair       time.Duration
	repairOn     bool
	unsound      atomic.Int64 // unsound degraded verdicts ever observed
	lastApply    atomic.Int64 // unix ns of the last mutating call (quiescence)
	closedCh     chan struct{}
	closeOnce    sync.Once
}

// NewFromSource opens an engine on a program under the empty
// (device-spec) configuration.
func NewFromSource(name, src string, opts Options) (*Specializer, error) {
	return open(name, src, opts, nil)
}

// open is the one producer of an engine and of everything an engine
// derives: parse, type-check, analyse, compile the assignments of the
// configuration in force, evaluate every point (fullPass), install each
// table's ideal implementation, publish. boot is nil for a fresh open;
// a snapshot's (Restore) puts a configuration, a degraded set, a
// variable order and counters in place before the pass — the pass does
// not know which it runs under.
func open(name, src string, opts Options, boot *boot) (*Specializer, error) {
	sp := opts.Trace.Start("parse", 0)
	prog, err := parser.Parse(name, src)
	opts.Trace.End(sp)
	if err != nil {
		return nil, err
	}
	sp = opts.Trace.Start("typecheck", 0)
	info, err := typecheck.Check(prog)
	opts.Trace.End(sp)
	if err != nil {
		return nil, err
	}
	root := opts.Trace.Start("open", 0)
	defer opts.Trace.End(root)
	t0 := time.Now()
	an, err := dataplane.Analyze(prog, info, dataplane.Options{
		SkipParser: opts.SkipParser,
		Trace:      opts.Trace,
		Parent:     root,
		Metrics:    opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	analysisTime := time.Since(t0)

	cfg := controlplane.NewConfig(an)
	cfg.OverapproxThreshold = opts.OverapproxThreshold
	cfg.SetObserver(opts.Metrics)
	s := &Specializer{
		Prog:     prog,
		Info:     info,
		An:       an,
		Cfg:      cfg,
		source:   src,
		impls:    make(map[string]*tableImpl),
		quality:  opts.Quality,
		exec:     opts.Exec,
		trace:    opts.Trace,
		audit:    opts.Audit,
		met:      newCoreMetrics(opts.Metrics),
		symMet:   sym.NewSolverMetrics(opts.Metrics),
		repair:   opts.RepairInterval,
		closedCh: make(chan struct{}),
	}
	var order []dd.Atom
	if boot != nil {
		if err := cfg.SetState(boot.state); err != nil {
			return nil, err
		}
		// Pinned before the assignments compile, so a degraded table's
		// compiles overapproximated.
		for table := range boot.degraded {
			if an.Tables[table] == nil {
				return nil, fmt.Errorf("%w: degraded table %q not in program",
					flayerr.ErrSnapshotCorrupt, table)
			}
			cfg.ForceOverapprox(table, true)
		}
		s.degraded = boot.degraded
		order = boot.order
		c := &boot.counters
		s.stats = Stats{
			Updates:        int(c[snapUpdates]),
			Forwarded:      int(c[snapForwarded]),
			Recompilations: int(c[snapRecompilations]),
			Rejected:       int(c[snapRejected]),
			Batches:        int(c[snapBatches]),
			BatchedUpdates: int(c[snapBatchedUpdates]),
			Coalesced:      int(c[snapCoalesced]),
			UpdateTime:     time.Duration(c[snapUpdateTime]),
			EvalTime:       time.Duration(c[snapEvalTime]),
			Degradations:   int(c[snapDegradations]),
			Promotions:     int(c[snapPromotions]),
		}
		s.unsound.Store(c[snapUnsound])
		// Sequence numbers continue where the snapshotting engine stopped.
		s.co.seq.Store(c[snapUpdates])
	}
	s.ddc = newDDCore(an, order)
	t1 := time.Now()
	sp = s.trace.Start("preprocess", root)
	if err := s.initState(); err != nil {
		return nil, err
	}
	s.fullPass()
	for table := range an.Tables {
		s.impls[table] = s.idealImpl(table)
	}
	s.trace.Attr(sp, "points", int64(len(an.Points)))
	s.trace.End(sp)
	s.met.points.Set(int64(len(an.Points)))
	s.met.tables.Set(int64(len(an.Tables)))
	s.met.degradedTables.Set(int64(len(s.degraded)))
	s.stats.Points = len(an.Points)
	s.stats.Tables = len(an.Tables)
	s.stats.AnalysisTime = analysisTime
	s.stats.PreprocessTime = time.Since(t1)
	// Publish the open-time epoch before the engine escapes: readers may
	// load it the moment open returns.
	s.publish()
	// A degraded set resumes repair where the snapshotting engine left
	// off.
	s.ensureRepairLocked()
	return s, nil
}

// initState allocates the per-point state and compiles the full
// control-plane environment one target at a time.
func (s *Specializer) initState() error {
	an := s.An
	s.env = make(controlplane.Env)
	s.eval.dec = decider{solver: sym.NewSolver(), ddc: s.ddc, store: s.ddc.store.Load(), compiles: &s.ddc.compiles}
	s.eval.dec.solver.Metrics = s.symMet
	s.tablePoints = indexTablePoints(an)
	s.plan = newRewritePlan(an, s.Prog)
	s.verdicts = make([]Verdict, len(an.Points))
	s.pointSub = make([]*sym.Expr, len(an.Points))
	// Deterministic target order: compile-time state (register refill
	// variables become diagram atoms as they appear) must not depend on
	// map iteration, or restored engines could walk diagrams in a
	// different variable order than the engine that snapshotted them.
	for _, name := range sortedNames(an.Tables) {
		if err := s.recompileTarget(name); err != nil {
			return err
		}
	}
	// ValueSets is keyed by alias as well as canonical name; targets are
	// the deduped canonical names, sorted for the same determinism.
	seenVS := make(map[string]bool, len(an.ValueSets))
	vsNames := make([]string, 0, len(an.ValueSets))
	for _, vi := range an.ValueSets {
		if !seenVS[vi.Name] {
			seenVS[vi.Name] = true
			vsNames = append(vsNames, vi.Name)
		}
	}
	slices.Sort(vsNames)
	for _, name := range vsNames {
		if err := s.recompileTarget(name); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(an.Registers) {
		if err := s.recompileTarget(name); err != nil {
			return err
		}
	}
	return nil
}

// Statistics returns a copy of the engine counters as of the published
// epoch. It is wait-free (one atomic load, no lock) and may be called
// concurrently with Apply/ApplyBatch from any number of goroutines
// without ever blocking a writer. The query-dispatch, diagram and
// unsound counters are overlaid live from their atomics; everything
// else is the consistent cut the last mutating call published.
func (s *Specializer) Statistics() Stats {
	st := s.loadEpoch().stats
	st.QueryLiteral = s.answeredBy[byLiteral].Load()
	st.QueryWidth = s.answeredBy[byWidth].Load()
	st.QueryDD = s.answeredBy[byDD].Load()
	st.DDQueries = st.QueryDD
	st.DDFallbacks = s.answeredBy[unproven].Load()
	st.DDCompiles = s.ddc.compiles.Load()
	st.DDNodes = s.ddc.store.Load().NumNodes()
	st.UnsoundDegraded = int(s.unsound.Load())
	return st
}

// Entries returns the live entry count of a table as of the published
// epoch. Like Statistics it is wait-free and safe to call concurrently
// with Apply/ApplyBatch.
func (s *Specializer) Entries(table string) int {
	return s.loadEpoch().entries[table]
}

// ReevaluateAll recomputes every program point's verdict from scratch,
// bypassing the taint map and the per-point memos — the pass open runs.
// It exists as the ablation baseline: this is the work a non-incremental
// specializing compiler performs on every control-plane update (§2:
// "recompiling the data-plane program every time the control-plane
// issues an update"). It returns the number of points whose verdict
// differs from the cached one (always zero when the engine is
// consistent).
func (s *Specializer) ReevaluateAll() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publish()
	s.imgMarkFull()
	t0 := time.Now()
	changed := s.fullPass()
	s.stats.EvalTime += time.Since(t0)
	return len(changed)
}

// fullPass evaluates every point as if for the first time: no residue
// pointer to compare against.
func (s *Specializer) fullPass() []int {
	clear(s.pointSub)
	return s.reevalPoints(s.An.Points)
}

// recompileTarget recompiles the environment fragment of one touched
// object — the assignment of its control-plane variables — leaving the
// rest of the environment untouched. Dispatch is by the object's schema
// class; a successfully applied update always targets a known object.
func (s *Specializer) recompileTarget(target string) error {
	b := s.An.Builder
	var frag controlplane.Env
	// freshVars: the fragment may mention data variables the open-time
	// atom derivation never saw. A precisely compiled table or a value
	// set is built from key expressions alone, all registered at open;
	// the "*any*" forms substitute fresh unconstrained variables.
	freshVars := false
	switch {
	case s.An.Tables[target] != nil:
		te, st, err := s.Cfg.CompileTable(b, target)
		if err != nil {
			return err
		}
		frag, freshVars = te, st.Overapproximate
	case s.An.Registers[target] != nil:
		frag, freshVars = s.Cfg.CompileRegister(b, target), true
	default:
		frag = s.Cfg.CompileValueSet(b, target)
	}
	// The one place the environment is written, so the one place the
	// substitution memo learns what moved: an assignment that is the
	// pointer it was invalidates nothing.
	for k, v := range frag {
		if s.env[k] != v {
			s.env[k] = v
			s.eval.changed |= k.CtrlMask()
		}
	}
	if freshVars {
		s.ddc.ensureAtoms(frag)
	}
	return nil
}

// Verdict returns the verdict of a point as of the published epoch —
// one atomic load plus an index into the epoch's frozen verdict copy,
// wait-free against concurrent writers.
func (s *Specializer) Verdict(id int) Verdict {
	return s.loadEpoch().verdicts[id]
}

// evalPoint answers one point's specialization query inside the pass in
// flight, in two steps: substitute, then query. Hash-consing makes the
// substituted expression a canonical pointer, so an unchanged pointer
// means an unchanged verdict and the query is skipped; a changed one is
// queried (queryAny).
func (s *Specializer) evalPoint(p *dataplane.Point) Verdict {
	sub := s.eval.pass.Subst(p.Expr)
	if s.pointSub[p.ID] == sub && sub != nil {
		s.met.substSkips.Inc()
		return s.verdicts[p.ID]
	}
	s.pointSub[p.ID] = sub
	return s.queryAny(p, sub)
}

// queryPath names how the decision procedure answered a query.
type queryPath uint8

const (
	byLiteral queryPath = iota
	byWidth
	byDD
	// unproven: the residue reached the diagram stage and got no proof
	// (Stats.DDFallbacks).
	unproven
	numQueryPaths
)

// queryPathNames are Explanation.Source's values, one per queryPath.
var queryPathNames = [numQueryPaths]string{"literal", "width", "dd", "unproven"}

// constQuery reports whether a point kind asks "is this value a
// constant?"; every other kind asks "is this condition executable?".
func constQuery(k dataplane.PointKind) bool {
	return k == dataplane.PointAssignValue || k == dataplane.PointTableAction
}

// queryAny answers the point's specialization query on the substituted
// residue with the engine's decider, and counts how it was answered.
func (s *Specializer) queryAny(p *dataplane.Point, sub *sym.Expr) Verdict {
	d := s.eval.dec.decide(p.Kind, sub)
	s.answeredBy[d.by].Add(1)
	s.met.answeredBy[d.by].Inc()
	return d.v
}

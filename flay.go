// Package goflay is a from-scratch Go implementation of Flay, the
// incremental specializing compiler for network programs from
// "Incremental Specialization of Network Programs" (HotNets '24).
//
// A Pipeline wraps a P4 program (goflay's P4-16 subset) together with
// its live control-plane configuration. Every control-plane update is
// routed through a taint map to the program points it can influence;
// Flay re-answers the specialization queries at exactly those points
// and decides whether the update can be forwarded to the device as-is
// (the common case) or whether the affected components must be
// respecialized and recompiled.
//
//	pipe, err := goflay.Open("router", source, goflay.WithMetrics(reg))
//	d := pipe.Apply(&goflay.Update{
//		Kind:  goflay.InsertEntry,
//		Table: "Ingress.route",
//		Entry: &goflay.TableEntry{ ... },
//	})
//	if d.Kind == goflay.Recompile {
//		report, _ := pipe.Compile()
//		install(pipe.SpecializedSource(), report)
//	}
//
// Latency-sensitive callers hand Apply a budget instead of a bare
// update: ApplyCtx with a context deadline lets the adaptive precision
// controller degrade a table to the conservative overapproximated
// assignment when the precise analysis would miss the deadline (see
// DESIGN.md §4.11). Failures classify with errors.Is against the
// package sentinels (ErrUnknownTable, ErrClosed, ErrDeadlineExceeded,
// ErrSnapshotCorrupt, ErrBackpressure) rather than string matching.
package goflay

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/devcompiler"
	"repro/internal/dpexec"
	"repro/internal/flayerr"
	"repro/internal/obs"
	"repro/internal/p4/ast"
	"repro/internal/progs"
	"repro/internal/rmt"
	"repro/internal/sym"
)

// Typed sentinel errors. Every error the pipeline (and the flayd
// client) returns for one of these conditions satisfies
// errors.Is(err, sentinel), across process boundaries: internal/wire
// maps each sentinel to a machine-readable error code plus HTTP status,
// and internal/client maps responses back.
var (
	// ErrUnknownTable: an update or query named a table (or value set /
	// register target) the program does not declare.
	ErrUnknownTable = flayerr.ErrUnknownTable
	// ErrClosed: the pipeline, session or server has shut down. No state
	// was modified.
	ErrClosed = flayerr.ErrClosed
	// ErrDeadlineExceeded: the call's latency budget expired before the
	// work was attempted. Also satisfies
	// errors.Is(err, context.DeadlineExceeded).
	ErrDeadlineExceeded = flayerr.ErrDeadlineExceeded
	// ErrSnapshotCorrupt: Restore rejected the snapshot bytes
	// (truncation, checksum mismatch, or fields inconsistent with the
	// embedded program).
	ErrSnapshotCorrupt = flayerr.ErrSnapshotCorrupt
	// ErrBackpressure: a bounded queue was full and the write was shed
	// (HTTP 429 on the wire).
	ErrBackpressure = flayerr.ErrBackpressure
	// ErrExecDisabled: Exec/ExecBatch was called on a pipeline opened
	// without WithExec.
	ErrExecDisabled = flayerr.ErrExecDisabled
	// ErrBadPacket: a wire exec request carried a malformed packet.
	ErrBadPacket = flayerr.ErrBadPacket
)

// ExecResult is the observable outcome of executing one packet against
// the pipeline's current specialized program (see Pipeline.Exec).
type ExecResult = dpexec.Result

// PinnedExec is a batch-level pin of one published executable image;
// see Pipeline.PinExec.
type PinnedExec = core.PinnedExec

// Re-exported control-plane vocabulary. The aliases make the full
// update model usable through this package alone.
type (
	// Update is one control-plane write (P4Runtime-style).
	Update = controlplane.Update
	// TableEntry is one match-action entry.
	TableEntry = controlplane.TableEntry
	// FieldMatch is one key component of an entry.
	FieldMatch = controlplane.FieldMatch
	// ActionCall names an action with bound parameters.
	ActionCall = controlplane.ActionCall
	// ValueSetMember is one parser value-set member.
	ValueSetMember = controlplane.ValueSetMember
	// Decision reports what Flay did with an update.
	Decision = core.Decision
	// Stats aggregates engine counters.
	Stats = core.Stats
	// BV is a bitvector value (match keys, masks, action parameters).
	BV = sym.BV
	// Explanation is the introspection record of one program point: the
	// specialization query, the verdict, and — when the point's
	// condition compiles into a decision diagram — the exact predicate
	// path and witness assignment behind it (see Pipeline.Explain).
	Explanation = core.Explanation
	// ExplainStep is one predicate test along an explained path.
	ExplainStep = core.ExplainStep
)

// Re-exported observability vocabulary (the internal/obs package made
// public). A Pipeline carries nil instruments by default — fully
// disabled, with zero allocation on the update path — and Options
// switches each one on independently.
type (
	// Trace records structured spans (parse → dataflow → taint → query
	// → pass) with parent/child links and integer attributes.
	Trace = obs.Trace
	// Span is one recorded region of pipeline work.
	Span = obs.Span
	// SpanID identifies a span within a Trace (0 = none).
	SpanID = obs.SpanID
	// Metrics is a named-instrument registry (counters, gauges,
	// bounded-memory latency histograms).
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time copy of every instrument.
	MetricsSnapshot = obs.Snapshot
	// HistogramSnapshot summarizes one histogram (count/sum/min/max and
	// p50/p95/p99).
	HistogramSnapshot = obs.HistogramSnapshot
	// AuditTrail is the decision audit trail: one AuditRecord per
	// control-plane update the engine decided.
	AuditTrail = obs.Trail
	// AuditRecord is one specialization verdict, made inspectable.
	AuditRecord = obs.AuditRecord
	// PointChange is one program point whose verdict flipped during an
	// update.
	PointChange = obs.PointChange
)

// NewTrace returns an empty span tracer.
func NewTrace() *Trace { return obs.NewTrace() }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewAuditTrail returns an audit trail keeping at most limit records;
// limit <= 0 keeps every record.
func NewAuditTrail(limit int) *AuditTrail { return obs.NewTrail(limit) }

// Update kinds.
const (
	InsertEntry  = controlplane.InsertEntry
	ModifyEntry  = controlplane.ModifyEntry
	DeleteEntry  = controlplane.DeleteEntry
	SetDefault   = controlplane.SetDefault
	SetValueSet  = controlplane.SetValueSet
	FillRegister = controlplane.FillRegister
)

// Match kinds.
const (
	MatchExact    = controlplane.MatchExact
	MatchTernary  = controlplane.MatchTernary
	MatchLPM      = controlplane.MatchLPM
	MatchOptional = controlplane.MatchOptional
)

// Decision kinds.
const (
	// Forward: the update does not change the program's implementation.
	Forward = core.Forward
	// Recompile: affected components must be respecialized.
	Recompile = core.Recompile
	// Rejected: the update failed validation.
	Rejected = core.Rejected
)

// NewBV builds a bitvector value of the given width from lo.
func NewBV(width uint16, lo uint64) BV { return sym.NewBV(width, lo) }

// NewBV2 builds a wide bitvector from (hi, lo) 64-bit limbs.
func NewBV2(width uint16, hi, lo uint64) BV { return sym.NewBV2(width, hi, lo) }

// Target selects the device backend for Compile.
type Target = devcompiler.Target

// Device backends.
const (
	// TargetTofino lowers onto the RMT pipeline model (stage
	// allocation, TCAM/SRAM/PHV accounting).
	TargetTofino = devcompiler.TargetTofino
	// TargetBMv2 targets the software switch.
	TargetBMv2 = devcompiler.TargetBMv2
)

// Quality selects how aggressively the specializer rewrites the
// program — the recompilation-time vs specialization-quality tradeoff
// (paper §6).
type Quality = core.Quality

// Quality levels, most to least aggressive.
const (
	QualityFull        = core.QualityFull
	QualityNoNarrowing = core.QualityNoNarrowing
	QualityDCEOnly     = core.QualityDCEOnly
	QualityNone        = core.QualityNone
)

// Option configures Open, OpenCatalog and Restore. Options are built
// with the With* constructors:
//
//	pipe, err := goflay.Open(name, src,
//		goflay.WithExec(), goflay.WithMetrics(reg))
type Option func(*options)

// options is the resolved configuration an Option list folds into.
type options struct {
	skipParser          bool
	overapproxThreshold int
	target              Target
	quality             Quality
	exec                bool
	tracer              *Trace
	metrics             *Metrics
	audit               *AuditTrail
}

// WithSkipParser skips parser analysis (the paper does this for
// switch.p4).
func WithSkipParser() Option {
	return func(o *options) { o.skipParser = true }
}

// WithOverapproxThreshold sets the per-table entry count past which the
// table's assignment is overapproximated (default 100; negative
// disables overapproximation entirely).
func WithOverapproxThreshold(n int) Option {
	return func(o *options) { o.overapproxThreshold = n }
}

// WithTarget selects the device backend for Compile (default Tofino).
func WithTarget(t Target) Option {
	return func(o *options) { o.target = t }
}

// WithQuality selects specialization aggressiveness (default
// QualityFull).
func WithQuality(q Quality) Option {
	return func(o *options) { o.quality = q }
}

// WithWorkers does nothing: the engine evaluates every pass on the
// caller's goroutine and has no worker pool to bound. It stays only
// because bench/ — which a PR may not edit alongside other code — still
// calls it (bench/closed.go with 2, bench/pkt_churn.go with 1); the
// ROADMAP item that retires the legacy benchmark estate drops it.
func WithWorkers(int) Option {
	return func(*options) {}
}

// WithExec enables the data-plane executor: every verdict-changing
// epoch publication also compiles the specialized program into a
// flattened match-action image and atomically hot-swaps it, making
// Pipeline.Exec/ExecBatch available. Off by default (the image compile
// adds work to the update path that pure control-plane users never
// need).
func WithExec() Option {
	return func(o *options) { o.exec = true }
}

// WithTracer records a span per pipeline stage and per update.
func WithTracer(t *Trace) Option {
	return func(o *options) { o.tracer = t }
}

// WithMetrics resolves the engine's counters, gauges and latency
// histograms in the given registry.
func WithMetrics(m *Metrics) Option {
	return func(o *options) { o.metrics = m }
}

// WithAudit routes the decision audit trail to the given trail.
func WithAudit(a *AuditTrail) Option {
	return func(o *options) { o.audit = a }
}

// resolveOptions folds a variadic option list into one options value.
func resolveOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Pipeline is a live program + configuration pair under incremental
// specialization.
type Pipeline struct {
	spec    *core.Specializer
	target  Target
	tracer  *Trace
	metrics *Metrics
	audit   *AuditTrail
}

// Open parses, type-checks and analyzes a program, then runs the
// initial specialization pass under the empty (device-default)
// configuration.
func Open(name, source string, opts ...Option) (*Pipeline, error) {
	return open(name, source, resolveOptions(opts))
}

func open(name, source string, o options) (*Pipeline, error) {
	s, err := core.NewFromSource(name, source, core.Options{
		SkipParser:          o.skipParser,
		OverapproxThreshold: o.overapproxThreshold,
		Quality:             o.quality,
		Exec:                o.exec,
		Trace:               o.tracer,
		Metrics:             o.metrics,
		Audit:               o.audit,
	})
	if err != nil {
		return nil, err
	}
	return &Pipeline{
		spec:    s,
		target:  o.target,
		tracer:  o.tracer,
		metrics: o.metrics,
		audit:   o.audit,
	}, nil
}

// OpenCatalog opens a pipeline over one of the evaluation catalog
// programs (internal/progs) by name — the long-running service's way
// of loading a program without shipping P4 source over the wire. The
// catalog entry's parser accommodation (switch.p4 skips parser
// analysis) is applied on top of opts.
func OpenCatalog(name string, opts ...Option) (*Pipeline, error) {
	p, err := progs.ByName(name)
	if err != nil {
		return nil, err
	}
	o := resolveOptions(opts)
	if p.SkipParser {
		o.skipParser = true
	}
	return open(p.Name, p.Source, o)
}

// CatalogNames lists the loadable catalog program names.
func CatalogNames() []string {
	var out []string
	for _, p := range progs.Catalog() {
		out = append(out, p.Name)
	}
	return out
}

// Name returns the program's name: the name Open was given, the catalog
// entry's name, or the name carried in a restored snapshot.
func (p *Pipeline) Name() string { return p.spec.Prog.Name }

// Generation counts the pipeline's state-changing updates (forwarded +
// recompiled). A host that checkpoints sessions snapshots only when the
// generation moved since its last snapshot; the counter survives
// Snapshot/Restore, so it is comparable across warm restarts.
func (p *Pipeline) Generation() uint64 { return p.spec.Generation() }

// Epoch returns the engine's published epoch sequence number: the
// version of the wait-free read state. It advances on every mutating
// call (including rejected updates), so two queries bracketed by equal
// Epoch values observed the same consistent state.
func (p *Pipeline) Epoch() uint64 { return p.spec.EpochSeq() }

// Snapshot serializes what the pipeline is a function of — program,
// verdict-shaping options, installed configuration, degraded tables and
// decision counters — to portable bytes. It holds no verdicts: Restore
// opens the program with that configuration installed and computes
// them, so replaying the remaining update stream on the restored
// pipeline yields exactly the decisions the uninterrupted run would
// have produced.
func (p *Pipeline) Snapshot() ([]byte, error) { return p.spec.Snapshot() }

// Restore rebuilds a pipeline from Snapshot bytes. The snapshot
// dictates the verdict-shaping options (quality, overapproximation
// threshold, parser skipping) and whether the data-plane executor runs:
// a pipeline opened WithExec restores with its executor, and WithExec
// turns one on for a snapshot taken without it. Target and
// observability come from opts. Corrupted, truncated or tampered input,
// or a snapshot written in an earlier format version, yields an error
// satisfying errors.Is(err, ErrSnapshotCorrupt), never a panic.
func Restore(data []byte, opts ...Option) (*Pipeline, error) {
	o := resolveOptions(opts)
	s, err := core.Restore(data, core.Options{
		Exec:    o.exec,
		Trace:   o.tracer,
		Metrics: o.metrics,
		Audit:   o.audit,
	})
	if err != nil {
		return nil, err
	}
	return &Pipeline{
		spec:    s,
		target:  o.target,
		tracer:  o.tracer,
		metrics: o.metrics,
		audit:   o.audit,
	}, nil
}

// Apply processes one control-plane update and returns Flay's decision.
// Rejected updates leave all state unchanged.
//
// A Pipeline is safe for concurrent use: Apply/ApplyBatch serialize
// against each other, and Statistics, SpecializedProgram and Compile
// may run concurrently with them from other goroutines.
func (p *Pipeline) Apply(u *Update) *Decision { return p.spec.Apply(u) }

// ApplyAll processes a batch one update at a time and returns the
// per-update decisions. It is the sequential baseline; ApplyBatch is
// the coalescing fast path with identical end state.
func (p *Pipeline) ApplyAll(updates []*Update) []*Decision {
	out := make([]*Decision, len(updates))
	for i, u := range updates {
		out[i] = p.spec.Apply(u)
	}
	return out
}

// ApplyBatch processes a batch of updates as one atomic configuration
// transition: per-target assignments are recompiled once and the union
// of tainted program points is re-evaluated in a single pass, instead
// of once per update. The resulting engine state is identical
// to ApplyAll on the same slice; decisions are attributed per target
// group (see core.Specializer.ApplyBatch).
func (p *Pipeline) ApplyBatch(updates []*Update) []*Decision {
	return p.spec.ApplyBatch(updates)
}

// ApplyCtx is Apply with a latency budget: when ctx carries a deadline
// and the projected precise analysis cost of the update does not fit
// the remaining budget, the adaptive precision controller degrades the
// target table to the conservative overapproximated assignment instead
// of blowing the deadline. The decision then reports Degraded=true, and
// a background repair goroutine promotes the table back to precise
// during the next quiescent period. A context already done on entry
// yields a Rejected decision satisfying
// errors.Is(d.Err, ErrDeadlineExceeded).
func (p *Pipeline) ApplyCtx(ctx context.Context, u *Update) *Decision {
	return p.spec.ApplyCtx(ctx, u)
}

// ApplyAllCtx is ApplyAll under one shared latency budget: each update
// runs through ApplyCtx against the same context.
func (p *Pipeline) ApplyAllCtx(ctx context.Context, updates []*Update) []*Decision {
	out := make([]*Decision, len(updates))
	for i, u := range updates {
		out[i] = p.spec.ApplyCtx(ctx, u)
	}
	return out
}

// ApplyBatchCtx is ApplyBatch with a latency budget: the controller
// projects the precise cost of every target the batch touches and
// degrades the most expensive ones until the projection fits the
// remaining budget.
func (p *Pipeline) ApplyBatchCtx(ctx context.Context, updates []*Update) []*Decision {
	return p.spec.ApplyBatchCtx(ctx, updates)
}

// Exec runs one packet through the pipeline's current specialized
// program and returns the observable outcome (drop, egress port,
// multicast group, emitted bytes). Execution is wait-free with respect
// to concurrent control-plane updates: each call runs against the
// image hot-swapped by the most recently published epoch, and an
// in-flight update never blocks or tears a packet. Requires WithExec;
// otherwise the error satisfies errors.Is(err, ErrExecDisabled).
func (p *Pipeline) Exec(data []byte, port uint16) (ExecResult, error) {
	return p.spec.Exec(data, port)
}

// ExecBatch runs a burst of packets against one consistent image (the
// epoch current at entry), with ports[i] as packet i's ingress port
// (missing entries default to 0). The first failing packet aborts the
// batch.
func (p *Pipeline) ExecBatch(packets [][]byte, ports []uint16) ([]ExecResult, error) {
	return p.spec.ExecBatch(packets, ports)
}

// PinExec pins the currently published executable image for a stream of
// packets: the epoch load and machine rental are paid once per pin
// instead of once per packet, and every Run of the pin executes against
// the same program+configuration cut regardless of concurrent updates.
// Exec and ExecBatch are one-pin conveniences over this. A pin is not
// safe for concurrent use; pin per goroutine, and Close it to return
// the machine to the pool. Requires WithExec; otherwise the error
// satisfies errors.Is(err, ErrExecDisabled).
func (p *Pipeline) PinExec() (*PinnedExec, error) { return p.spec.PinExec() }

// Close releases the pipeline's background resources (the precision
// repair goroutine). Updates applied after Close are rejected with
// ErrClosed; read-only accessors keep working. Close is idempotent.
func (p *Pipeline) Close() { p.spec.Close() }

// DegradedTables lists the tables currently pinned to the
// overapproximated assignment by the adaptive precision controller,
// sorted by name.
func (p *Pipeline) DegradedTables() []string { return p.spec.DegradedTables() }

// Degrade pins a table to the overapproximated assignment now — the
// operator-facing form of what the deadline policy does mid-flight.
// Unknown tables yield an error satisfying
// errors.Is(err, ErrUnknownTable).
func (p *Pipeline) Degrade(table string) error { return p.spec.Degrade(table) }

// PromoteAll promotes every degraded table back to the precise
// assignment now, returning the number of unsound degraded verdicts
// observed while re-proving (zero on a healthy engine: degraded
// verdicts are conservative, never wrong).
func (p *Pipeline) PromoteAll() (unsound int, err error) { return p.spec.PromoteAll() }

// DifferentialCheck re-runs the specialization queries of every point
// tainted by a degraded table against the precise assignment, without
// modifying any state, and reports how many installed degraded verdicts
// disagree unsoundly with the precise answer (must be zero).
func (p *Pipeline) DifferentialCheck() (checked, unsound int, err error) {
	return p.spec.DifferentialCheck()
}

// Statistics returns engine counters (points, update timings,
// forward/recompile counts).
func (p *Pipeline) Statistics() Stats { return p.spec.Statistics() }

// Tracer returns the span tracer the pipeline was opened with, or nil
// when tracing is disabled.
func (p *Pipeline) Tracer() *Trace { return p.tracer }

// Metrics returns the metrics registry the pipeline was opened with, or
// nil when metrics are disabled.
func (p *Pipeline) Metrics() *Metrics { return p.metrics }

// Audit returns the decision audit trail the pipeline was opened with,
// or nil when auditing is disabled.
func (p *Pipeline) Audit() *AuditTrail { return p.audit }

// Tables lists the program's qualified table names in apply order.
func (p *Pipeline) Tables() []string {
	return append([]string(nil), p.spec.An.TableOrder...)
}

// Entries returns the installed entry count of a table.
func (p *Pipeline) Entries(table string) int { return p.spec.Entries(table) }

// Points returns the IDs of the program points the named control-plane
// object (table, value set or register) can influence through the
// taint map, in ascending order — the enumeration half of the
// introspection API: walk Points, Explain each. Unknown names yield an
// error satisfying errors.Is(err, ErrUnknownTable).
func (p *Pipeline) Points(table string) ([]int, error) {
	an := p.spec.An
	if an.Tables[table] == nil && an.ValueSets[table] == nil && an.Registers[table] == nil {
		return nil, fmt.Errorf("goflay: points: %w: %q", ErrUnknownTable, table)
	}
	pts := an.PointsOf(table)
	ids := make([]int, 0, len(pts))
	for _, pt := range pts {
		ids = append(ids, pt.ID)
	}
	sort.Ints(ids)
	return ids, nil
}

// Explain reports how the published verdict at one program point comes
// about: the specialization query asked there, the verdict, and — when
// the point's condition compiles into a decision diagram (Source "dd")
// — the predicates tested along the witness path through the canonical
// diagram together with the witness assignment itself (a liveness
// witness for executability queries, one realizing assignment for
// constancy). A point whose residue has more free bits than the engine
// can decide over is live/varies by width, not by proof (Source
// "width", FreeBits); one whose diagram does not compile or whose walk
// does not decide is live/varies unproven (Source "unproven"); a
// residue that folded to a literal is its own answer (Source
// "literal"). Explain still narrates a diagram for a point without a
// proof when the residue fits the compile budget. table scopes the lookup: when
// non-empty, the point must be one the named object influences
// (Points(table) lists them); "" addresses any point by global ID.
// Explain may be called concurrently with updates from any number of
// goroutines. The engine keeps no diagram between queries: the point's
// residue is re-derived and compiled for the call under the engine's
// read lock, so it waits for an update in flight.
func (p *Pipeline) Explain(table string, point int) (*Explanation, error) {
	if table != "" {
		ids, err := p.Points(table)
		if err != nil {
			return nil, err
		}
		ok := false
		for _, id := range ids {
			if id == point {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("goflay: explain: point %d is not influenced by %q", point, table)
		}
	}
	return p.spec.Explain(point)
}

// SpecializedProgram returns the AST of the program specialized to the
// current configuration.
func (p *Pipeline) SpecializedProgram() *ast.Program { return p.spec.SpecializedProgram() }

// SpecializedSource renders the specialized program as P4 source.
func (p *Pipeline) SpecializedSource() string { return ast.Print(p.spec.SpecializedProgram()) }

// OriginalSource renders the original (unspecialized) program.
func (p *Pipeline) OriginalSource() string { return ast.Print(p.spec.Prog) }

// CompileReport is the outcome of a device compile.
type CompileReport struct {
	Target       Target
	Statements   int
	Tables       int
	ModelSeconds float64
	// Stage/resource figures are present for the Tofino target.
	Stages     int
	MaxStages  int
	Feasible   bool
	TCAMBlocks int
	SRAMBlocks int
	PHVBits    int
}

func (r CompileReport) String() string {
	if r.MaxStages > 0 {
		return fmt.Sprintf("[%s] %d stmts, %d tables, %d/%d stages, %d TCAM, %d SRAM, %d PHV bits, model %.1fs",
			r.Target, r.Statements, r.Tables, r.Stages, r.MaxStages, r.TCAMBlocks, r.SRAMBlocks, r.PHVBits, r.ModelSeconds)
	}
	return fmt.Sprintf("[%s] %d stmts, %d tables, model %.1fs", r.Target, r.Statements, r.Tables, r.ModelSeconds)
}

// Compile lowers the current specialized program onto the configured
// target device.
func (p *Pipeline) Compile() (CompileReport, error) {
	return p.compileProgram(p.spec.SpecializedProgram())
}

// CompileOriginal lowers the unspecialized program (for
// before/after-specialization comparisons).
func (p *Pipeline) CompileOriginal() (CompileReport, error) {
	return p.compileProgram(p.spec.Prog)
}

func (p *Pipeline) compileProgram(prog *ast.Program) (CompileReport, error) {
	comp := devcompiler.New(p.target)
	res, err := comp.Compile(prog)
	if err != nil {
		return CompileReport{}, err
	}
	rep := CompileReport{
		Target:       p.target,
		Statements:   res.Statements,
		Tables:       res.Tables,
		ModelSeconds: res.ModelSeconds,
	}
	if res.Allocation != nil {
		rep.Stages = res.Allocation.StagesUsed
		rep.MaxStages = res.Allocation.Device.Stages
		rep.Feasible = res.Allocation.Feasible
		rep.TCAMBlocks = res.Allocation.TCAMBlocks
		rep.SRAMBlocks = res.Allocation.SRAMBlocks
		rep.PHVBits = res.Allocation.PHVBits
	}
	return rep, nil
}

// Device returns the Tofino-like device profile used by the Tofino
// backend.
func Device() rmt.Device { return rmt.Tofino2() }

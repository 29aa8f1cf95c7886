// Package core assembles complete simulated machines — processors, L1s,
// BDMs, shared L2, directory modules, arbiters and network — runs a
// workload on them, and verifies sequential consistency of BulkSC
// executions with a replay checker.
//
// This is the layer the public bulksc package and all experiment harnesses
// sit on.
package core

import (
	"fmt"
	"io"
	"sort"
	"time"

	"bulksc/internal/arbiter"
	"bulksc/internal/cache"
	"bulksc/internal/chunk"
	"bulksc/internal/directory"
	"bulksc/internal/fault"
	"bulksc/internal/history"
	"bulksc/internal/lineset"
	"bulksc/internal/mem"
	"bulksc/internal/network"
	"bulksc/internal/proc"
	"bulksc/internal/sccheck"
	"bulksc/internal/sig"
	"bulksc/internal/sim"
	"bulksc/internal/stats"
	"bulksc/internal/workload"
)

// ModelKind selects the consistency implementation of the machine.
type ModelKind int

const (
	// ModelSC is the SC baseline (read + exclusive prefetching).
	ModelSC ModelKind = iota
	// ModelRC is the RC baseline (speculation across fences).
	ModelRC
	// ModelSCpp is the SC++ baseline (SHiQ).
	ModelSCpp
	// ModelBulk is BulkSC.
	ModelBulk
)

func (m ModelKind) String() string {
	return [...]string{"SC", "RC", "SC++", "BulkSC"}[m]
}

// MaxProcs is the largest machine the simulator supports. The sparse
// sharer-set directory and the sharded arbiter tier scale to it; the bound
// exists because the address layout reserves per-thread stack windows and
// the fault plans target procs by 64-bit mask.
const MaxProcs = 1024

// Config describes one simulated machine + workload.
type Config struct {
	Model ModelKind
	// App names a registered workload generator (see workload.All).
	App string
	// Procs is the core count (Table 2: 8). RunProgram requires it to
	// match the program's thread count; 0 means "infer from the program".
	Procs int
	// Work is the approximate dynamic instruction count per thread.
	Work int
	// Seed drives all randomness (workload generation and timing jitter).
	Seed int64

	// BulkSC options (ignored by the baselines).
	ChunkSize int      // dynamic instructions per chunk (Table 2: 1000)
	MaxChunks int      // chunks in flight per processor (Table 2: 2)
	SigKind   sig.Kind // bloom (real) or exact (BSC_exact)
	// SigGeometry overrides the production 2×1024-bit Bloom geometry for
	// the §6 signature design-space ablation. Ignored for exact
	// signatures; nil selects the production encoding.
	SigGeometry *sig.Geometry
	RSigOpt     bool // §4.2.2 commit bandwidth optimization
	Dypvt       bool // §5.2 dynamically-private data
	Stpvt       bool // §5.1 statically-private data (stack pages)

	// NumArbiters distributes the arbiter and directory into that many
	// address-interleaved modules (§4.2.3); 1 = the paper's base system.
	NumArbiters int
	// GArbShards splits the G-arbiter coordinator into that many
	// independent shards, each handling the multi-range commits whose
	// first address range lands on it, with a per-shard in-flight cap and
	// FIFO overflow queue; ≤1 = a single coordinator (the paper's base
	// system). Only meaningful when NumArbiters > 1.
	GArbShards int
	// DirCacheEntries limits each directory module to a directory cache
	// of that many entries (§4.3.3); 0 = full-map.
	DirCacheEntries int

	// CheckSC runs the replay checker over every committed chunk
	// (BulkSC only). Costs memory proportional to the access count.
	CheckSC bool
	// Witness runs the online SC-witness checker (internal/sccheck) over
	// the execution: chunk commits under BulkSC, architectural accesses
	// under the conventional models. Unlike CheckSC it keeps only
	// O(footprint) state, so it can gate long runs. Findings land in
	// Result.WitnessViolations. Note that RC (and SC++, which shares RC's
	// dispatch path) genuinely relaxes store→load order; witness findings
	// for those models describe the relaxation rather than a bug.
	Witness bool
	// TraceWriter, when non-nil, streams the execution's memory-
	// consistency history to it as NDJSON (internal/history): one "chunk"
	// record per committed chunk under BulkSC, one "access" record per
	// architectural access under the conventional models, behind a
	// descriptive header. The hooks observe the same commit/perform
	// instants the witness checker audits and add no simulation events,
	// so tracing never perturbs the execution (golden hashes are
	// unaffected). Write errors are surfaced once, at end of run.
	TraceWriter io.Writer
	// MaxCycles aborts apparent livelocks; 0 = a generous default.
	MaxCycles uint64
	// Faults optionally injects deterministic faults (internal/fault):
	// arbitration denial storms and grant delays, network delay jitter,
	// spurious bulk-disambiguation squashes and W-signature aliasing
	// amplification. nil runs fault-free and is bit-identical to a build
	// without the hooks.
	Faults *fault.Plan
	// Watchdog enables the liveness watchdog: a read-only poller that
	// fails the run with a diagnostic when global commit progress stalls
	// or an individual processor starves in a squash/denial loop. The
	// polls never mutate simulation state, so enabling it does not
	// change the simulated execution (golden hashes are unaffected).
	Watchdog bool
	// WatchdogWindow is the no-progress window in cycles before the
	// watchdog declares livelock; 0 = a generous default (400k cycles).
	WatchdogWindow uint64
	// RecordTimeline collects commit/squash/pre-arbitration events into
	// Result.Timeline (BulkSC only).
	RecordTimeline bool
	// WarmupFrac excludes the first fraction of the committed
	// instructions from the characterization statistics (caches and
	// private working sets must reach steady state before Table 3/4
	// metrics mean anything). Cycles and speedups always cover the full
	// run. 0 disables warmup exclusion.
	WarmupFrac float64
}

// DefaultArbitersFor returns the arbiter/directory module count the
// scaling experiments pair with a machine of procs processors: one
// address-interleaved module per 8 processors, clamped to [1, 64]. The
// paper's 8-proc base system gets its single arbiter; a 256-proc machine
// gets 32.
func DefaultArbitersFor(procs int) int {
	n := procs / 8
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	return n
}

// DefaultGArbShardsFor returns the G-arbiter shard count paired with an
// arbiter tier of arbs modules: one coordinator shard per 4 modules, at
// least one. Multi-range commits fan out from the shard owning their
// first address range instead of a single global coordinator.
func DefaultGArbShardsFor(arbs int) int {
	n := arbs / 4
	if n < 1 {
		n = 1
	}
	return n
}

// DefaultConfig returns the paper's BSC_dypvt system on 8 processors.
func DefaultConfig(app string) Config {
	return Config{
		Model:       ModelBulk,
		App:         app,
		Procs:       8,
		Work:        60_000,
		Seed:        1,
		ChunkSize:   1000,
		MaxChunks:   2,
		SigKind:     sig.KindBloom,
		RSigOpt:     true,
		Dypvt:       true,
		NumArbiters: 1,
		CheckSC:     true,
		Witness:     true,
		Watchdog:    true,
		WarmupFrac:  0.3,
	}
}

// Result is the outcome of one run.
type Result struct {
	Config  Config
	Cycles  uint64
	Stats   *stats.Stats
	PerProc []uint64 // per-processor completion cycle
	// SCViolations lists replay-checker findings (empty = SC held).
	SCViolations []string
	// ChunksChecked is how many committed chunks the checker replayed.
	ChunksChecked int
	// Commits holds the committed chunks in commit order when
	// Config.CheckSC was set; tests and debugging tools inspect it.
	Commits []*chunk.Chunk
	// WitnessViolations lists online SC-witness checker findings when
	// Config.Witness was set (empty = all witness obligations held).
	// Deliberately excluded from DeterminismHash: golden hashes pin the
	// simulated execution, not the diagnostic instrumentation.
	WitnessViolations []string
	// WitnessChunks and WitnessAccesses count what the witness checker
	// examined (also excluded from DeterminismHash).
	WitnessChunks   int
	WitnessAccesses uint64
	// Timeline holds execution events when Config.RecordTimeline was set.
	Timeline Timeline
	// FaultCounters reports what Config.Faults actually injected (all
	// zero when fault-free). Excluded from DeterminismHash: hashes pin
	// the fault-free execution only.
	FaultCounters fault.Counters
	// WallNs is the host wall-clock time the simulation loop took and
	// EventsFired the number of discrete events the engine dispatched —
	// together the simulator-throughput numbers (events/sec) the scaling
	// sweep reports. WallNs is host measurement, not simulated state: it
	// is excluded from DeterminismHash and never feeds back into the
	// simulation. EventsFired is itself deterministic but stays out of
	// the hash with the other diagnostics.
	WallNs      int64
	EventsFired uint64
}

// Speedup returns other's runtime relative to r (r.Cycles / other.Cycles
// inverted: >1 means r is faster).
func (r *Result) Speedup(other *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(other.Cycles) / float64(r.Cycles)
}

// Run generates cfg.App and simulates it on a fresh machine. It is
// exactly Runner.Run on a throwaway Runner: cold and warm runs execute the
// same construction + Reset + run path, which is what makes their results
// bit-identical.
func Run(cfg Config) (*Result, error) {
	return NewRunner().Run(cfg)
}

// RunProgram simulates an explicit program on a fresh machine (used by the
// litmus tests).
func RunProgram(cfg Config, prog *workload.Program) (*Result, error) {
	return NewRunner().RunProgram(cfg, prog)
}

// Runner is a reusable machine context: one simulated machine — engine,
// caches, directory slabs, arbiters, network, processors — constructed
// once and reset in place between runs. A Runner amortizes the multi-
// megabyte machine arena (the 8 MB L2 tag array, the directory entry
// slabs, the per-processor L1s, maps and FIFOs) across a whole sweep:
// Run produces Results bit-identical to a cold core.Run (both
// DeterminismHash and WitnessHash), because every subsystem's Reset
// restores cold-equivalent state and the state whose shape could leak
// (grown open-addressed tables, chunk pools) is deliberately dropped.
//
// A Runner is NOT safe for concurrent use: it is one machine. Parallel
// sweeps hold one Runner per worker.
type Runner struct {
	m *machine
}

// NewRunner constructs the machine arena once; the first Run pays the same
// cost as a cold core.Run, subsequent Runs reuse the arena.
func NewRunner() *Runner { return &Runner{m: newMachine()} }

// Run generates cfg.App and simulates it on the reused machine.
func (r *Runner) Run(cfg Config) (*Result, error) {
	gen, err := workload.Get(cfg.App)
	if err != nil {
		return nil, err
	}
	prog := gen(cfg.Procs, cfg.Work, cfg.Seed)
	return r.m.runProgram(cfg, prog)
}

// RunProgram simulates an explicit (immutable) program on the reused
// machine. The program is only read, so one memoized *workload.Program may
// be shared by many Runners and runs.
func (r *Runner) RunProgram(cfg Config, prog *workload.Program) (*Result, error) {
	return r.m.runProgram(cfg, prog)
}

func (m *machine) runProgram(cfg Config, prog *workload.Program) (*Result, error) {
	if cfg.Procs == 0 {
		cfg.Procs = len(prog.Threads)
	}
	if len(prog.Threads) != cfg.Procs {
		// A mismatch used to silently resize the machine, letting sweep
		// configs lie about machine size; make it the caller's bug.
		return nil, fmt.Errorf("core: config has %d processors but program %q has %d threads",
			cfg.Procs, prog.Name, len(prog.Threads))
	}
	if cfg.Procs < 1 || cfg.Procs > MaxProcs {
		return nil, fmt.Errorf("core: %d processors unsupported (max %d)", cfg.Procs, MaxProcs)
	}
	if cfg.NumArbiters < 1 {
		cfg.NumArbiters = 1
	}
	m.Reset(cfg)
	for t, ins := range prog.Threads {
		m.addProc(cfg, t, ins)
	}
	m.wirePorts()
	return m.run(cfg)
}

// machine is one assembled system. It is built once (newMachine) and then
// reconfigured in place for every run (Reset): the expensive arenas — the
// 8 MB L2 tag array, the directory entry slabs, per-processor L1s, maps,
// FIFOs and the event heap — survive across runs, while every piece of
// per-run state is scrubbed back to its cold value.
type machine struct {
	cfg   Config
	eng   *sim.Engine
	net   *network.Network
	st    *stats.Stats
	memry *mem.Memory
	pages *mem.PageTable
	l2    *cache.L2
	dirs  []*directory.Directory
	arbs  []*arbiter.Arbiter
	garb  *arbiter.GArbiter
	env   *proc.Env

	// order is the global commit-order counter shared (by pointer) with
	// every arbiter; Reset zeroes it between runs.
	order uint64

	// sigRec recycles standard-Bloom signature objects across runs: the
	// chunk pools feed dropped signatures back through Env.SigRecycle,
	// and Reset wraps each run's factories so they draw from the parked
	// set. A recycled Bloom is cleared and geometry-fixed — bit-identical
	// to a fresh one — so this is storage recycling only.
	sigRec sig.Recycler

	// bulkProcs/convProcs are the processors of the CURRENT run, in id
	// order; bulkPool/convPool are the per-id processor arenas that
	// survive across runs (addProc resets and reuses pool[id] when it
	// exists, so a worker running the same geometry repeatedly never
	// reconstructs a processor).
	bulkProcs []*proc.BulkProc
	convProcs []*proc.ConvProc
	//lint:poolsafe processor arena; each entry is fully Reset at reacquisition in addProc
	bulkPool []*proc.BulkProc
	//lint:poolsafe processor arena; each entry is fully Reset at reacquisition in addProc
	convPool []*proc.ConvProc

	commits []*chunk.Chunk // commit-order log for the checker
	// rangeScratch is routeCommit's reusable set-list buffer; fully
	// overwritten before every use, dead after every call.
	//lint:poolsafe per-call scratch, fully overwritten before every use
	rangeScratch []*lineset.Set
	// rangeSeen/rangeIDs back the address-range computation in
	// routeCommit (arbiter.RangesOfInto): per-call scratch, consumed
	// synchronously — the multi-range path copies the result before it
	// escapes into deferred network events.
	//lint:poolsafe per-call scratch, fully overwritten before every use
	rangeSeen []bool
	//lint:poolsafe per-call scratch, fully overwritten before every use
	rangeIDs []int
	// privSent marks directory modules already targeted by the current
	// stpvt Wpriv propagation; sized to the module count per call.
	//lint:poolsafe per-call scratch, fully cleared before every use
	privSent []bool
	// wdScratch backs the watchdog's three per-proc trail arrays so a warm
	// runner does not reallocate them every run.
	//lint:poolsafe watchdog backing storage; startWatchdog re-slices and zeroes it per run
	wdScratch []uint64
	// witness is the active checker of the current run (nil when
	// cfg.Witness is off); witArena is the persistent checker storage it
	// draws from.
	witness  *sccheck.Checker
	witArena *sccheck.Checker
	// tracer streams the run's history as NDJSON when cfg.TraceWriter is
	// set (nil otherwise). Rebuilt per run: it wraps the caller's writer.
	tracer   *history.Writer
	timeline Timeline

	// watchdogErr is set by the liveness watchdog when it detects a
	// stall; the engine stop condition checks it every event.
	watchdogErr *WatchdogError
}

// newMachine constructs the run-independent machine arena. Everything
// configuration-dependent — seed, model, module count, signature kind —
// is applied by Reset before each run.
func newMachine() *machine {
	m := &machine{
		eng:   sim.NewEngine(0),
		st:    stats.New(),
		memry: mem.NewMemory(),
		pages: mem.NewPageTable(),
	}
	m.net = network.New(m.eng, m.st)
	m.l2 = cache.NewL2(32768, 8) // 8 MB / 8-way / 32 B
	m.env = m.buildEnv()
	return m
}

// buildModules (re)builds the address-interleaved directory + arbiter
// modules. Called by Reset only when the module count changes (the wiring
// closures are per-module but stable, so a same-count run just resets the
// existing modules in place and keeps their slabs).
func (m *machine) buildModules(n int) {
	m.dirs = m.dirs[:0]
	m.arbs = m.arbs[:0]
	for i := 0; i < n; i++ {
		d := directory.New(i, n, m.eng, m.net, m.st, m.l2)
		m.dirs = append(m.dirs, d)
		a := arbiter.New(i, m.eng, m.net, m.st, &m.order)
		m.arbs = append(m.arbs, a)
		// Arbiter i is co-located with directory i (Figure 7(b)).
		dd := d
		a.ForwardW = func(tok arbiter.Token, proc int, w sig.Signature, trueW *lineset.Set) {
			dd.ProcessCommit(dd.NewCommit(tok, proc, w, trueW))
		}
		aa := a
		d.OnDone = func(tok arbiter.Token) { aa.Done(tok) }
	}
}

// Reset reconfigures the machine for one run of cfg, restoring every
// subsystem to a cold-equivalent state in place. The reset order follows
// the dependency chain: engine first (drops any undrained events, which
// may reference pooled protocol records), then the passive state (stats,
// memory, pages, caches), then the protocol modules, then the per-run
// wiring. Signature factories are created fresh per run rather than
// retained: their pools are warm-start allocation state whose reuse could
// not change behavior but whose recreation is cheap and keeps the
// cold/warm equivalence argument trivial. Each run's factories are then
// wrapped by the machine's signature recycler, which substitutes cleared
// standard Blooms parked by previous runs for fresh allocations — an
// object-identity substitution the simulation cannot observe.
func (m *machine) Reset(cfg Config) {
	m.cfg = cfg
	m.eng.Reset(cfg.Seed)
	limit := cfg.MaxCycles
	if limit == 0 {
		limit = 2_000_000_000
	}
	m.eng.SetLimit(sim.Time(limit))
	m.net.Reset()
	m.net.Faults = cfg.Faults
	m.st.Reset()
	m.memry.Reset()
	m.pages.Reset()
	if cfg.Stpvt {
		m.pages.MarkStacksPrivate(cfg.Procs)
	}
	m.l2.Reset()

	// stdBloom: only the fixed-geometry Bloom may draw from the machine's
	// signature recycler (see sig.Recycler); exact and tunable signatures
	// pass through their factories untouched.
	stdBloom := cfg.SigKind == sig.KindBloom && cfg.SigGeometry == nil
	sigFactory := sig.NewFactory(cfg.SigKind)
	if cfg.SigGeometry != nil && cfg.SigKind == sig.KindBloom {
		sigFactory = sig.NewTunableFactory(*cfg.SigGeometry)
	}
	sigFactory = m.sigRec.Factory(sigFactory, stdBloom)
	if len(m.dirs) != cfg.NumArbiters {
		m.buildModules(cfg.NumArbiters)
	} else {
		for i := range m.dirs {
			m.dirs[i].Reset()
			m.arbs[i].Reset()
		}
	}
	for i := range m.dirs {
		m.dirs[i].MaxEntries = cfg.DirCacheEntries
		m.dirs[i].SigFactory = sigFactory
		m.arbs[i].Faults = cfg.Faults
	}
	m.garb = nil
	if cfg.NumArbiters > 1 {
		// The G-arbiter is stateless between transactions; recreating it is
		// cheaper than auditing it for reuse.
		m.garb = arbiter.NewGArbiter(m.eng, m.net, m.st, m.arbs)
		m.garb.SetShards(cfg.GArbShards)
	}
	m.order = 0

	// The env closures route through m.dirs/m.arbs/m.garb dynamically, so
	// they survive module rebuilds; only the value fields change per run.
	m.env.Sigs = sig.NewFactory(cfg.SigKind)
	if cfg.SigGeometry != nil && cfg.SigKind == sig.KindBloom {
		m.env.Sigs = sig.NewTunableFactory(*cfg.SigGeometry)
	}
	m.env.Sigs = m.sigRec.Factory(m.env.Sigs, stdBloom)
	m.env.NProcs = cfg.Procs
	m.env.Faults = cfg.Faults

	clear(m.bulkProcs) // active lists are rebuilt by addProc
	m.bulkProcs = m.bulkProcs[:0]
	clear(m.convProcs)
	m.convProcs = m.convProcs[:0]

	// commits and timeline were handed to the previous run's Result; they
	// must be dropped, not truncated — truncating would scrub the caller's
	// slice in place.
	m.commits = nil
	m.timeline = nil
	m.witness = nil
	if cfg.Witness {
		if m.witArena == nil {
			m.witArena = sccheck.New()
		}
		m.witArena.Reset()
		m.witness = m.witArena
	}
	m.tracer = nil
	if cfg.TraceWriter != nil {
		m.tracer = history.NewWriter(cfg.TraceWriter)
		m.tracer.Header(history.Header{
			Model: cfg.Model.String(), Procs: cfg.Procs,
			App: cfg.App, Seed: cfg.Seed, Work: cfg.Work,
		})
	}
	m.watchdogErr = nil
}

func (m *machine) dirFor(l mem.Line) *directory.Directory {
	return m.dirs[arbiter.RangeOf(l, len(m.dirs))]
}

// buildEnv wires the processor environment once, at machine construction.
// The closures dereference m.dirs/m.arbs/m.garb at call time, so they stay
// valid across Reset even when the module set is rebuilt; the per-run value
// fields (Sigs, NProcs, Faults) are filled in by Reset.
func (m *machine) buildEnv() *proc.Env {
	env := &proc.Env{
		Eng:   m.eng,
		Net:   m.net,
		St:    m.st,
		Mem:   m.memry,
		Pages: m.pages,
		// Chunk pools feed dropped signatures back to the machine's
		// recycler at warm reset; Reset wraps the per-run factories so
		// they draw from the parked set first.
		SigRecycle: m.sigRec.Recycle,
	}
	// The directory internalizes the request hop and the reply delivery
	// through pooled transaction records, so these wrappers are plain
	// routing — no per-miss closures.
	env.ReadLine = func(p int, l mem.Line, excl bool, done func(int)) {
		m.dirFor(l).Read(p, l, excl, done)
	}
	env.WritebackLine = func(p int, l mem.Line, drop bool) {
		m.dirFor(l).Writeback(p, l, drop)
	}
	env.Commit = m.routeCommit
	env.PrivCommit = func(p int, w sig.Signature, trueW *lineset.Set) {
		if len(m.privSent) < len(m.dirs) {
			m.privSent = make([]bool, len(m.dirs))
		}
		sent := m.privSent[:len(m.dirs)]
		clear(sent)
		trueW.ForEach(func(l mem.Line) {
			idx := arbiter.RangeOf(l, len(m.dirs))
			if sent[idx] {
				return
			}
			sent[idx] = true
			d := m.dirs[idx]
			m.net.Send(stats.CatWrSig, network.SigBytes, func() {
				d.ProcessPrivCommit(d.NewCommit(0, p, w, trueW))
			})
		})
	}
	env.PreArbitrate = func(p int, granted func()) {
		m.net.Send(stats.CatOther, network.CtrlBytes, func() {
			m.arbs[0].PreArbitrate(p, func() {
				m.net.Send(stats.CatOther, network.CtrlBytes, granted)
			})
		})
	}
	env.EndPreArbitrate = func(p int) {
		m.net.Send(stats.CatOther, network.CtrlBytes, func() {
			m.arbs[0].EndPreArbitration(p)
		})
	}
	return env
}

// routeCommit translates a processor commit request into arbitration:
// straight to the single owning arbiter, or through the G-arbiter when the
// chunk spans several address ranges (§4.2.3).
// routeCommit translates a processor's permission-to-commit request into
// an arbiter request. It consumes req synchronously: everything that
// travels onward is copied into areq (the FetchR wrapper captures the
// func value, never req itself), which is what lets the processor recycle
// its CommitReq records the moment Commit returns.
func (m *machine) routeCommit(req *proc.CommitReq) {
	areq := &arbiter.Request{
		Proc:  req.Proc,
		W:     req.W,
		R:     req.R,
		TrueW: req.TrueW,
		Reply: req.Reply,
	}
	if req.R != nil {
		// R travels with the request (no RSig optimization).
		m.net.Account(stats.CatRdSig, network.SigBytes)
	}
	if req.FetchR != nil {
		fetch := req.FetchR
		areq.FetchR = func(cb func(sig.Signature)) {
			// Arbiter → processor → arbiter round trip for R.
			m.net.Send(stats.CatOther, network.CtrlBytes, func() {
				fetch(func(r sig.Signature) {
					m.net.Send(stats.CatRdSig, network.SigBytes, func() { cb(r) })
				})
			})
		}
	}
	// An empty W signature compresses to nothing: the permission-to-commit
	// request is a plain control message.
	wBytes := network.SigBytes
	if req.W.Empty() {
		wBytes = network.CtrlBytes
	}
	if len(m.arbs) == 1 {
		m.net.Send(stats.CatWrSig, wBytes, func() { m.arbs[0].Request(areq) })
		return
	}
	m.rangeScratch = append(append(m.rangeScratch[:0], req.RSets...), req.WSets...)
	if len(m.rangeSeen) < len(m.arbs) {
		m.rangeSeen = make([]bool, len(m.arbs))
	}
	m.rangeIDs = arbiter.RangesOfInto(m.rangeIDs[:0], m.rangeScratch, len(m.arbs), m.rangeSeen[:len(m.arbs)])
	ranges := m.rangeIDs
	if len(ranges) == 1 {
		// Resolve the arbiter now: the send callback fires after this
		// scratch may have been overwritten by a later commit.
		arb := m.arbs[ranges[0]]
		m.net.Send(stats.CatWrSig, wBytes, func() { arb.Request(areq) })
		return
	}
	// Multi-range: the range list escapes into deferred events (and may be
	// queued at a busy G-arbiter shard), so it needs a stable copy of the
	// per-call scratch. Multi-arb commits are the rare case — single-range
	// routing above stays allocation-free. The G-arbiter needs R upfront.
	stable := append(make([]int, 0, len(ranges)), ranges...)
	if areq.R == nil {
		areq.FetchR(func(r sig.Signature) {
			areq.R = r
			m.net.Send(stats.CatWrSig, network.SigBytes, func() { m.garb.Request(areq, stable) })
		})
		return
	}
	m.net.Send(stats.CatWrSig, network.SigBytes, func() { m.garb.Request(areq, stable) })
}

func (m *machine) addProc(cfg Config, id int, ins []workload.Instr) {
	par := proc.DefaultParams()
	if cfg.ChunkSize > 0 {
		par.ChunkSize = cfg.ChunkSize
	}
	if cfg.MaxChunks > 0 {
		par.MaxChunks = cfg.MaxChunks
	}
	switch cfg.Model {
	case ModelBulk:
		opts := proc.Opts{
			RSigOpt:         cfg.RSigOpt,
			Dypvt:           cfg.Dypvt,
			Stpvt:           cfg.Stpvt,
			PreArbThreshold: 6,
			// Committed chunks may be recycled across runs unless this
			// run exports them through Result.Commits (CheckSC). The
			// retire list is write-only during the run, so the flag can
			// never affect simulated behavior or the determinism hashes.
			RetainCommitted: !cfg.CheckSC,
			// Chunk access logs are recorded only for their consumers:
			// the replay checker, the witness and the trace writer.
			NoAccessLog: !cfg.CheckSC && !cfg.Witness && cfg.TraceWriter == nil,
		}
		var p *proc.BulkProc
		if id < len(m.bulkPool) && m.bulkPool[id] != nil {
			p = m.bulkPool[id]
			p.Reset(ins, par, opts)
		} else {
			p = proc.NewBulkProc(id, m.env, par, opts, ins)
			for len(m.bulkPool) <= id {
				m.bulkPool = append(m.bulkPool, nil)
			}
			m.bulkPool[id] = p
		}
		onCommit := func(ch *chunk.Chunk) {
			if cfg.CheckSC {
				m.commits = append(m.commits, ch)
			}
			if m.witness != nil {
				// OnCommit fires at the arbiter's grant event, so chunks
				// arrive here in global commit order — exactly the
				// serialization the witness checker validates.
				m.witness.CommitChunk(ch)
			}
			if m.tracer != nil {
				// The tracer serializes at the same instant, so the
				// exported history carries the identical claimed order —
				// and the chunk may be recycled afterwards regardless.
				m.tracer.Chunk(ch)
			}
			if cfg.RecordTimeline {
				m.timeline = append(m.timeline, TimelineEvent{
					At: uint64(m.eng.Now()), Proc: ch.Proc, Kind: EvCommit,
					Order: ch.CommitOrder, Instrs: ch.Executed,
				})
			}
		}
		if cfg.CheckSC || cfg.RecordTimeline || m.witness != nil || m.tracer != nil {
			p.OnCommit = onCommit
		}
		if cfg.RecordTimeline {
			pid := id
			p.OnSquash = func(victims, instrs int, genuine bool) {
				m.timeline = append(m.timeline, TimelineEvent{
					At: uint64(m.eng.Now()), Proc: pid, Kind: EvSquash,
					Victims: victims, Instrs: instrs, Genuine: genuine,
				})
			}
			p.OnPreArb = func() {
				m.timeline = append(m.timeline, TimelineEvent{
					At: uint64(m.eng.Now()), Proc: pid, Kind: EvPreArb,
				})
			}
		}
		m.bulkProcs = append(m.bulkProcs, p)
	case ModelSC:
		m.addConvProc(id, par, proc.SC, ins)
	case ModelRC:
		m.addConvProc(id, par, proc.RC, ins)
	case ModelSCpp:
		m.addConvProc(id, par, proc.SCpp, ins)
	default:
		panic("core: unknown model")
	}
}

func (m *machine) addConvProc(id int, par proc.Params, model proc.Model, ins []workload.Instr) {
	var p *proc.ConvProc
	if id < len(m.convPool) && m.convPool[id] != nil {
		p = m.convPool[id]
		p.Reset(ins, par, model)
	} else {
		p = proc.NewConvProc(id, m.env, par, model, ins)
		for len(m.convPool) <= id {
			m.convPool = append(m.convPool, nil)
		}
		m.convPool[id] = p
	}
	if m.witness != nil || m.tracer != nil {
		pid := id
		p.OnAccess = func(po uint64, store bool, a mem.Addr, v uint64, fwd bool) {
			if m.witness != nil {
				m.witness.Access(pid, po, store, a, v, fwd)
			}
			if m.tracer != nil {
				m.tracer.Access(pid, po, store, a, v, fwd)
			}
		}
	}
	m.convProcs = append(m.convProcs, p)
}

func (m *machine) wirePorts() {
	var ports []directory.CachePort
	for _, p := range m.bulkProcs {
		ports = append(ports, p)
	}
	for _, p := range m.convProcs {
		ports = append(ports, p)
	}
	for _, d := range m.dirs {
		d.AttachPorts(ports)
	}
}

func (m *machine) allDone() bool {
	for _, p := range m.bulkProcs {
		if !p.Finished() {
			return false
		}
	}
	for _, p := range m.convProcs {
		if !p.Finished() {
			return false
		}
	}
	return true
}

func (m *machine) run(cfg Config) (*Result, error) {
	for _, p := range m.bulkProcs {
		p.Start()
	}
	for _, p := range m.convProcs {
		p.Start()
	}
	// Warmup exclusion: once the committed-instruction count passes the
	// warmup fraction, snapshot the counters; the final stats subtract the
	// snapshot so Table 3/4 metrics describe steady state only.
	var warmBase *stats.Stats
	var warmCycle uint64
	if cfg.WarmupFrac > 0 {
		target := uint64(cfg.WarmupFrac * float64(cfg.Work) * float64(cfg.Procs))
		var poll func()
		poll = func() {
			if m.allDone() {
				return
			}
			if m.st.CommittedInstrs >= target {
				snap := m.st.Snapshot()
				warmBase = &snap
				warmCycle = uint64(m.eng.Now())
				return
			}
			m.eng.After(5000, poll)
		}
		m.eng.After(5000, poll)
	}
	if cfg.Watchdog {
		startWatchdog(m, cfg.WatchdogWindow)
	}
	//lint:deterministic host-side throughput measurement around the event loop; the value only lands in Result.WallNs, which is excluded from DeterminismHash and never feeds simulated state
	wallStart := time.Now()
	m.eng.Run(func() bool { return m.watchdogErr != nil || m.allDone() })
	//lint:deterministic host-side throughput measurement; see wallStart above
	wallNs := time.Since(wallStart).Nanoseconds()
	if m.watchdogErr != nil {
		return nil, fmt.Errorf("core: %s/%s: %w", cfg.Model, cfg.App, m.watchdogErr)
	}
	if !m.allDone() {
		return nil, fmt.Errorf("core: %s/%s deadlocked at cycle %d", cfg.Model, cfg.App, m.eng.Now())
	}
	res := &Result{Config: cfg, WallNs: wallNs, EventsFired: m.eng.Fired()}
	if cfg.Faults != nil {
		res.FaultCounters = cfg.Faults.Counters()
	}
	var last sim.Time
	for _, p := range m.bulkProcs {
		res.PerProc = append(res.PerProc, uint64(p.DoneAt()))
		if p.DoneAt() > last {
			last = p.DoneAt()
		}
	}
	for _, p := range m.convProcs {
		res.PerProc = append(res.PerProc, uint64(p.DoneAt()))
		if p.DoneAt() > last {
			last = p.DoneAt()
		}
	}
	res.Cycles = uint64(last)
	m.st.Cycles = res.Cycles
	m.st.CloseWList(res.Cycles)
	if warmBase != nil {
		m.st.SubtractBase(warmBase, warmCycle)
	}
	// The Result must not alias the machine: a warm Runner scrubs its
	// stats on the next Reset, which would retroactively zero any Result
	// still holding the live pointer. Hand out a deliberate copy instead.
	final := m.st.Snapshot()
	res.Stats = &final
	if cfg.CheckSC && cfg.Model == ModelBulk {
		res.SCViolations = verifySC(m.commits)
		res.ChunksChecked = len(m.commits)
		res.Commits = m.commits
	}
	if m.witness != nil {
		res.WitnessViolations = m.witness.Strings()
		res.WitnessChunks = m.witness.Chunks()
		res.WitnessAccesses = m.witness.Accesses()
	}
	if m.tracer != nil {
		// Flush the streamed history; the writer's sticky error delivers
		// the first failure anywhere in the stream exactly once.
		if err := m.tracer.Close(); err != nil {
			return nil, fmt.Errorf("core: %s/%s: trace export: %w", cfg.Model, cfg.App, err)
		}
	}
	if cfg.RecordTimeline {
		sortTimeline(m.timeline)
		res.Timeline = m.timeline
	}
	return res, nil
}

// verifySC replays every committed chunk in global commit order and checks
// that each logged load observed exactly the value the sequential replay
// produces. This validates chunk atomicity, isolation, per-processor
// order, forwarding, squash recovery and the private-data optimizations
// end to end: any hole would surface as a mismatched load.
func verifySC(commits []*chunk.Chunk) []string {
	sorted := make([]*chunk.Chunk, len(commits))
	copy(sorted, commits)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].CommitOrder < sorted[j].CommitOrder })
	replay := make(map[mem.Addr]uint64)
	var bad []string
	perProc := make(map[int]uint64)
	for _, ch := range sorted {
		if ch.CommitOrder <= perProc[ch.Proc] && perProc[ch.Proc] != 0 {
			bad = append(bad, fmt.Sprintf("proc %d chunk %d committed out of per-processor order", ch.Proc, ch.Seq))
		}
		perProc[ch.Proc] = ch.CommitOrder
		for _, rec := range ch.Log {
			a := rec.Addr.Align()
			if rec.IsStore {
				replay[a] = rec.Value
				continue
			}
			if got := replay[a]; got != rec.Value {
				bad = append(bad, fmt.Sprintf(
					"proc %d chunk %d (order %d): load %#x observed %d, replay has %d",
					ch.Proc, ch.Seq, ch.CommitOrder, uint64(rec.Addr), rec.Value, got))
				if len(bad) >= 20 {
					return bad
				}
			}
		}
	}
	return bad
}

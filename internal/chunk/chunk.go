// Package chunk holds the per-chunk speculative state of BulkSC: the R, W
// and Wpriv signatures, the exact line sets that back the signatures (used
// to apply commits, to classify aliased squashes and to compute Table 3's
// set sizes), the speculative write buffer, and the load/store access log.
//
// The access log is not hardware state: BulkSC keeps only signatures and
// speculative lines. It exists for the simulator's three observers of
// committed chunks — the SC replay checker (core's CheckSC), the online
// SC-witness checker (internal/sccheck) and the NDJSON history writer
// (internal/history) — and a chunk records it only when one of them is
// attached to the run (see NoLog).
//
// A chunk is created at a checkpoint, accumulates accesses while the
// processor executes it, then either commits (its buffered writes become
// the committed memory state, in global arbitration order) or squashes
// (everything is discarded and the processor re-executes from the
// checkpoint).
//
// The exact sets are open-addressed lineset structures rather than Go
// maps, and chunks are recycled through a Pool across squash/re-execute
// cycles: squash-heavy applications (radix, raytrace) churn chunk state
// constantly, and pooling makes a re-executed chunk's bookkeeping
// allocation-free. A generation counter (Gen) guards stale references —
// any callback that may outlive a squash must capture Gen and compare.
package chunk

import (
	"fmt"

	"bulksc/internal/lineset"
	"bulksc/internal/mem"
	"bulksc/internal/sig"
	"bulksc/internal/slab"
)

// State is a chunk's lifecycle position.
type State int

const (
	// Executing: the processor is still dispatching the chunk's
	// instructions.
	Executing State = iota
	// Completed: all instructions executed; waiting for outstanding line
	// fills before arbitration may start.
	Completed
	// Arbitrating: a permission-to-commit request is in flight.
	Arbitrating
	// Committing: permission granted; invalidations propagating.
	Committing
	// Committed: fully done.
	Committed
	// Squashed: discarded.
	Squashed
)

func (s State) String() string {
	return [...]string{"executing", "completed", "arbitrating", "committing", "committed", "squashed"}[s]
}

// AccessRec logs one memory access for the replay checker, in program
// order within the chunk.
type AccessRec struct {
	IsStore bool
	Addr    mem.Addr
	Value   uint64 // store: value written; load: load observed
}

// Chunk is one dynamic chunk's speculative context.
type Chunk struct {
	Proc     int    // owning processor
	Seq      uint64 // per-processor chunk sequence number
	Slot     int    // hardware signature-pair slot (0..MaxSlots-1)
	Checkpt  int    // stream position of the checkpoint
	State    State
	Target   int // instruction budget for this chunk
	Executed int // dynamic instructions dispatched so far

	// Gen is the recycling generation. Pool.Put bumps it; callbacks that
	// may fire after a squash capture it and bail on mismatch, so pooled
	// reuse can never corrupt a successor chunk.
	Gen uint64

	// Signatures (superset encodings used by the protocol).
	R, W, Wpriv sig.Signature

	// Sum, when non-nil, is the owning processor's live-summary signature:
	// the BDM's incrementally-maintained union of every active chunk's
	// R∪W (DESIGN.md §16). RecordLoad, RecordStore and PromoteToW mirror
	// each shared-line insert into it, so an incoming committing W that
	// does not intersect the summary provably cannot conflict with any
	// chunk and the whole disambiguation walk is skipped. Proc-owned
	// wiring: openChunk attaches it at acquisition; recycling detaches it.
	Sum sig.Signature

	// Exact line sets backing the signatures. RSet/WSet drive commit
	// application and stats; PrivSet backs Wpriv.
	RSet, WSet, PrivSet lineset.Set

	// WriteBuf holds the chunk's speculative word values (Rule1: not
	// visible to other chunks until commit).
	WriteBuf lineset.Map

	// Log is the program-order access log read by the replay checker, the
	// witness checker and the history writer. It is recorded only when
	// NoLog is false, i.e. when one of those observers is attached.
	Log []AccessRec
	// NoLog suppresses Log recording for a run nothing observes. The
	// zero value logs; the owning processor stamps it on every chunk it
	// acquires, so a recycled chunk follows the current run's setting.
	NoLog bool

	// Pending counts line fills requested by this chunk that have not
	// arrived; arbitration may not start until it reaches zero.
	Pending int

	// ReqsOut counts commit requests in flight through the arbitration
	// system. A squashed chunk may be recycled only at zero: while a
	// request is out, the arbiter (and, after a grant, the directory) hold
	// references to the chunk's signatures and exact sets.
	ReqsOut int

	// CommitOrder is assigned by the arbiter at grant time.
	CommitOrder uint64

	// ReplyFn and FetchRFn are the chunk's commit-request callbacks,
	// allocated once per chunk LIFETIME by the owning processor (not per
	// request): they capture only the processor and the chunk pointer,
	// both of which are stable across pooled recycling, so re-sends after
	// a denial and chunks recycled through the Pool reuse the same two
	// closures instead of allocating fresh ones per request. Stale
	// invocations are impossible by construction — a chunk is recycled
	// only at ReqsOut == 0, and each in-flight request calls ReplyFn
	// exactly once.
	//lint:poolsafe per-chunk-lifetime wiring; captures only stable pointers, intentionally survives recycling
	ReplyFn func(granted bool, order uint64)
	//lint:poolsafe per-chunk-lifetime wiring; captures only stable pointers, intentionally survives recycling
	FetchRFn func(cb func(sig.Signature))
}

// New returns a fresh chunk for proc at checkpoint pos using the given
// signature factory. arena, when non-nil, supplies the backing arrays of
// the chunk's exact sets and write buffer (see Pool.Drain: it lets a
// warm-reused machine re-walk the cold capacity history from recycled
// storage instead of the allocator).
func New(f sig.Factory, arena *slab.Pool[uint64], proc int, seq uint64, slot, pos, target int) *Chunk {
	c := &Chunk{
		R:     f(),
		W:     f(),
		Wpriv: f(),
	}
	c.RSet.UseArena(arena)
	c.WSet.UseArena(arena)
	c.PrivSet.UseArena(arena)
	c.WriteBuf.UseArena(arena)
	c.init(proc, seq, slot, pos, target)
	return c
}

// init (re)sets the per-execution fields; signatures and sets must already
// be empty.
func (c *Chunk) init(proc int, seq uint64, slot, pos, target int) {
	c.Proc = proc
	c.Seq = seq
	c.Slot = slot
	c.Checkpt = pos
	c.State = Executing
	c.Target = target
	c.Executed = 0
	c.Pending = 0
	c.ReqsOut = 0
	c.CommitOrder = 0
}

// RecordLoad notes a load of a and the value it observed. The R signature
// is updated unless private (the stpvt optimization skips R updates for
// statically-private data). v is logged only when the chunk logs.
//
//sim:hotpath
func (c *Chunk) RecordLoad(a mem.Addr, v uint64, private bool) {
	if !private {
		l := a.LineOf()
		c.R.Add(l)
		c.RSet.Add(l)
		if c.Sum != nil {
			c.Sum.Add(l)
		}
	}
	if !c.NoLog {
		c.Log = append(c.Log, AccessRec{Addr: a, Value: v})
	}
}

// RecordStore buffers a speculative store. If priv, the write goes to
// Wpriv instead of W (paper §5: writes to private data are exempt from
// consistency arbitration and disambiguation).
//
//sim:hotpath
func (c *Chunk) RecordStore(a mem.Addr, v uint64, priv bool) {
	l := a.LineOf()
	if priv {
		c.Wpriv.Add(l)
		c.PrivSet.Add(l)
	} else {
		c.W.Add(l)
		c.WSet.Add(l)
		if c.Sum != nil {
			c.Sum.Add(l)
		}
	}
	c.WriteBuf.Put(a.Align(), v)
	if !c.NoLog {
		c.Log = append(c.Log, AccessRec{IsStore: true, Addr: a, Value: v})
	}
}

// PromoteToW moves line l from Wpriv to W, the "add back" step when a
// dynamically-private prediction stops working (§5.2). Word values stay in
// WriteBuf. It reports whether l was private.
//
//sim:hotpath
func (c *Chunk) PromoteToW(l mem.Line) bool {
	if !c.PrivSet.Remove(l) {
		return false
	}
	c.W.Add(l)
	c.WSet.Add(l)
	if c.Sum != nil {
		c.Sum.Add(l)
	}
	// Wpriv is a superset encoding; the stale bit is harmless (it only
	// matters for ∈ checks on external accesses, which now also hit W).
	return true
}

// Forward returns the chunk's buffered value for a, if any — the
// store-to-load forwarding path within and across in-flight chunks.
//
//sim:hotpath
func (c *Chunk) Forward(a mem.Addr) (uint64, bool) {
	return c.WriteBuf.Get(a.Align())
}

// WroteLine reports whether the chunk speculatively wrote any word of l
// (through either W or Wpriv).
//
//sim:hotpath
func (c *Chunk) WroteLine(l mem.Line) bool {
	return c.WSet.Has(l) || c.PrivSet.Has(l)
}

// ConflictsWith reports whether an incoming committing W signature
// collides with this chunk: (Wc ∩ R) ∪ (Wc ∩ W) ≠ ∅. Wpriv is exempt by
// design. trueW, when non-nil, is the committer's exact write set; the
// second result reports whether the collision is genuine (shares a real
// line) as opposed to pure signature aliasing.
//
//sim:hotpath
func (c *Chunk) ConflictsWith(wc sig.Signature, trueW *lineset.Set) (hit, genuine bool) {
	if !wc.Intersects(c.R) && !wc.Intersects(c.W) {
		return false, false
	}
	if trueW != nil {
		// ForEach and this literal are both inlined (-gcflags=-m reports
		// "can inline ConflictsWith.func1" / "inlining call to ForEach"),
		// so the capture of `genuine` never materializes a heap closure;
		// scripts/hotpath_escape.sh cross-checks this.
		//lint:alloc closure fully inlined; verified non-escaping via -gcflags=-m
		trueW.ForEach(func(l mem.Line) {
			if genuine {
				return
			}
			if c.RSet.Has(l) || c.WSet.Has(l) {
				genuine = true
			}
		})
	}
	return true, genuine
}

// Active reports whether the chunk can still be squashed by an incoming
// commit (it has not been granted commit permission itself, nor already
// squashed).
func (c *Chunk) Active() bool {
	return c.State == Executing || c.State == Completed || c.State == Arbitrating
}

func (c *Chunk) String() string {
	return fmt.Sprintf("chunk{p%d #%d %s R=%d W=%d priv=%d}",
		c.Proc, c.Seq, c.State, c.RSet.Len(), c.WSet.Len(), c.PrivSet.Len())
}

// ---------------------------------------------------------------------------
// Pooling
// ---------------------------------------------------------------------------

// Pool recycles Chunk objects — including their signatures, exact sets,
// write buffers and logs — across squash/re-execute cycles. It is owned by
// one processor (the simulator is single-goroutine per machine; machines
// running in parallel each have their own pools).
//
// Only chunks with no live external references may be returned: in
// practice the squash path, where the chunk's signatures were never handed
// to the arbiter/directory pipeline (see proc's reqInFlight tracking).
// Committed chunks are NOT pooled within a run — the replay checker and
// timeline may retain them, and the directory may still be expanding
// their W. Across runs, once the machine is quiescent, they re-enter the
// pool through Adopt.
type Pool struct {
	free []*Chunk

	// SigRecycler, when set, receives the signatures Adopt and Drain
	// drop instead of leaving them to the garbage collector (typically
	// sig.Recycler.Recycle, which parks standard Blooms for the next
	// run's factory and ignores everything else). Pure storage wiring:
	// a recycled signature is cleared and geometry-fixed, so reuse is
	// invisible to the simulation.
	//lint:poolsafe machine-lifetime recycler wiring; storage sink only, never simulated state
	SigRecycler func(sig.Signature)
}

// dropSigs detaches c's signatures, routing them through the recycler
// when one is wired.
func (p *Pool) dropSigs(c *Chunk) {
	if p.SigRecycler != nil {
		p.SigRecycler(c.R)
		p.SigRecycler(c.W)
		p.SigRecycler(c.Wpriv)
	}
	c.R, c.W, c.Wpriv = nil, nil, nil
	c.Sum = nil
}

// Get returns a ready chunk, recycling a pooled one when available. A
// chunk retained across a machine reset (Drain) has no signatures; they
// are rebuilt here from the current run's factory.
//
//sim:hotpath
//sim:pool acquire
func (p *Pool) Get(f sig.Factory, arena *slab.Pool[uint64], proc int, seq uint64, slot, pos, target int) *Chunk {
	n := len(p.free)
	if n == 0 {
		return New(f, arena, proc, seq, slot, pos, target)
	}
	c := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	if c.R == nil {
		c.R, c.W, c.Wpriv = f(), f(), f()
	}
	c.init(proc, seq, slot, pos, target)
	return c
}

// Put recycles c. The caller asserts no external component still holds a
// reference that could mutate or read c later; in-processor callbacks are
// defused by the Gen bump.
//
//sim:hotpath
//sim:pool release
func (p *Pool) Put(c *Chunk) {
	c.Gen++
	c.R.Clear()
	c.W.Clear()
	c.Wpriv.Clear()
	c.RSet.Reset()
	c.WSet.Reset()
	c.PrivSet.Reset()
	c.WriteBuf.Reset()
	c.Log = c.Log[:0]
	c.Sum = nil // the summary outlives the chunk; drop the proc's wiring
	p.free = append(p.free, c)
}

// Adopt places a chunk that COMMITTED in a now-finished run into the
// pool, stripped to the same cold shape Drain produces: sets and write
// buffer release their arrays to the arena, signatures are dropped (the
// next Get rebuilds them from the next run's factory), and only the
// struct, its Gen counter, its commit callbacks and the append-only Log
// storage survive.
//
// Committed chunks can never be recycled WITHIN a run (the replay
// checker, the witness and the directory pipeline may all hold them),
// which is why Put refuses them; but between runs the machine is
// quiescent, so the only reference that can outlive the run is
// Result.Commits — the caller (core, via the processor's retire list)
// asserts that run did not export them there. Adoption is
// identity-neutral for the same reason Drain is: the adopted chunk is
// indistinguishable from a drained one.
//
//sim:pool release
func (p *Pool) Adopt(c *Chunk) {
	c.Gen++
	p.dropSigs(c)
	c.RSet.Release()
	c.WSet.Release()
	c.PrivSet.Release()
	c.WriteBuf.Release()
	c.Log = c.Log[:0]
	p.free = append(p.free, c)
}

// Drain prepares the pool for reuse across a warm machine reset
// (DESIGN.md §11). Retaining pooled chunks as-is would violate the
// cold/warm bit-identity contract: their open-addressed sets keep grown
// capacities, and slot-order iteration depends on capacity. Instead each
// pooled chunk keeps only what is order-neutral — the struct itself, its
// generation counter (compared by equality only), and the append-only
// Log's storage — while its sets and write buffer return their arrays to
// the chunk arena (Release restores the zero-value cold shape, so the
// next run re-walks the cold growth history from recycled storage) and
// its signatures are dropped (the next Get rebuilds them from that run's
// factory, which may differ in kind or geometry).
//
// Only pooled chunks are drained: a chunk is in the pool precisely
// because nothing external retained it, so releasing its storage cannot
// alias a previous run's Result (committed chunks, whose sets the replay
// checker and commit records do retain, are never pooled).
func (p *Pool) Drain() {
	for _, c := range p.free {
		p.dropSigs(c)
		c.RSet.Release()
		c.WSet.Release()
		c.PrivSet.Release()
		c.WriteBuf.Release()
		c.Log = c.Log[:0]
	}
}

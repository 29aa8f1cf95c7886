package proc

import (
	"fmt"

	"bulksc/internal/bdm"
	"bulksc/internal/cache"
	"bulksc/internal/chunk"
	"bulksc/internal/directory"
	"bulksc/internal/mem"
	"bulksc/internal/sig"
	"bulksc/internal/sim"
)

// This file holds the chunk lifecycle of BulkProc: creation, completion,
// commit arbitration, squash handling, forward progress, and the cache
// port the directory drives.

// openChunk starts a new chunk at the current interpreter position if a
// hardware slot (signature pair + checkpoint) is free.
func (p *BulkProc) openChunk() bool {
	slot := -1
	for s, busy := range p.slotBusy {
		if !busy {
			slot = s
			break
		}
	}
	if slot < 0 {
		return false
	}
	target := p.par.ChunkSize
	if p.squashStreak > 0 {
		// Forward progress: exponentially smaller chunks after squashes
		// (§3.3).
		target >>= uint(p.squashStreak)
		if target < minChunk {
			target = minChunk
		}
		if target < p.par.ChunkSize {
			p.env.St.ChunkShrinks++
		}
	}
	p.chunkSeq++
	ch := p.pool.Get(p.env.Sigs, &p.arena, p.id, p.chunkSeq, slot, p.f.pos, target)
	ch.Sum = p.liveSum // mirror shared-line inserts into the live summary
	ch.NoLog = p.opts.NoAccessLog
	p.checkpoints[slot] = p.f.checkpoint()
	p.slotBusy[slot] = true
	p.chunks = append(p.chunks, ch)
	p.cur = ch
	return true
}

// closeChunk completes the executing chunk and tries to start arbitration.
func (p *BulkProc) closeChunk() {
	ch := p.cur
	p.cur = nil
	ch.State = chunk.Completed
	// Fault injection: W-signature aliasing amplification — force extra
	// (phantom) lines into the chunk's W signature before it ever leaves
	// the processor. The phantoms never enter the exact WSet, so every
	// conflict they cause is classified as aliased.
	p.env.Faults.AmplifyW(p.id, ch.W)
	if p.env.Faults != nil {
		// Amplified phantom bits bypass the per-access mirror; fold the
		// whole (possibly amplified) W back into the live summary so the
		// disambiguation early-out stays a strict superset under faults.
		p.liveSum.UnionWith(ch.W)
	}
	p.tryRequestCommit(ch)
}

// tryRequestCommit sends a permission-to-commit request if the chunk is
// completed, all its line fills arrived (which also closes the
// signature-update vulnerability window of §3.2.1 — forwards are recorded
// in R instantly in this model), and every older chunk has been granted.
//
//sim:hotpath
func (p *BulkProc) tryRequestCommit(ch *chunk.Chunk) {
	if ch.State != chunk.Completed || ch.Pending > 0 {
		return
	}
	if len(p.chunks) == 0 || p.chunks[0] != ch {
		return // in-order commit requests (§4.1.2)
	}
	ch.State = chunk.Arbitrating
	p.sendCommit(ch)
}

// sendCommit builds and routes the arbitration request for ch. The
// request record is pooled (Env.Commit consumes it synchronously) and the
// two callbacks live on the chunk itself, allocated once per chunk
// lifetime — a steady-state request, including re-sends after denials,
// allocates nothing.
//
//sim:hotpath
func (p *BulkProc) sendCommit(ch *chunk.Chunk) {
	ch.ReqsOut++
	if ch.ReplyFn == nil {
		chch := ch
		//lint:alloc once per chunk lifetime, reused across re-sends and pooled recycling
		ch.ReplyFn = func(granted bool, order uint64) {
			p.commitReply(chch, granted, order)
		}
		//lint:alloc once per chunk lifetime, reused across re-sends and pooled recycling
		ch.FetchRFn = func(cb func(sig.Signature)) { cb(chch.R) }
	}
	req := p.getCommitReq()
	req.Proc = p.id
	req.W = ch.W
	req.RSets = append(req.RSets, &ch.RSet)
	req.WSets = append(req.WSets, &ch.WSet)
	req.TrueW = &ch.WSet
	if p.opts.RSigOpt {
		req.FetchR = ch.FetchRFn
	} else {
		req.R = ch.R
	}
	req.Reply = ch.ReplyFn
	p.env.Commit(req)
	p.putCommitReq(req)
}

func (p *BulkProc) commitReply(ch *chunk.Chunk, granted bool, order uint64) {
	ch.ReqsOut--
	if ch.State == chunk.Squashed {
		// The chunk died while the request was in flight. A denial needs
		// nothing; a grant becomes a no-op commit (no memory update) —
		// the directory flow it triggered is conservative but harmless.
		if granted {
			// The arbiter's pending list and the directory pipeline still
			// reference the chunk's W and exact write set; the chunk must
			// not be recycled (rare: stats.CommitCancels).
			p.env.St.CommitCancels++
		} else if ch.ReqsOut == 0 {
			// Denied after the squash: nothing external holds the chunk any
			// more, so it can join the pool now.
			p.pool.Put(ch)
		}
		return
	}
	if ch.State != chunk.Arbitrating {
		panic(fmt.Sprintf("proc %d: commit reply in state %v", p.id, ch.State))
	}
	if !granted {
		p.denyCount++
		p.trail.noteDenied(ch.Seq, uint64(p.env.Eng.Now()))
		// Retry after a jittered backoff. The closure may outlive a squash
		// and even a recycling of ch; the Gen guard defuses it then.
		back := sim.Time(20 + p.env.Eng.Rand().Intn(25))
		gen := ch.Gen
		p.env.Eng.After(p.env.Net.HopLat+back, func() {
			if ch.Gen == gen && ch.State == chunk.Arbitrating {
				p.sendCommit(ch)
			}
		})
		return
	}
	p.applyCommit(ch, order)
	p.env.Eng.After(p.env.Net.HopLat, func() { p.grantArrived(ch) })
}

// applyCommit makes ch's updates the committed memory state at the
// arbiter's decision instant — the chunk's serialization point.
//
//sim:hotpath
func (p *BulkProc) applyCommit(ch *chunk.Chunk, order uint64) {
	if p.env.St.Trace != nil {
		//lint:alloc debug-only trace formatting, guarded by Trace != nil
		p.env.St.Trace("t=%d proc%d APPLY chunk=%d order=%d W=%d priv=%d", p.env.Eng.Now(), p.id, ch.Seq, order, ch.WSet.Len(), ch.PrivSet.Len())
	}
	ch.State = chunk.Committing
	ch.CommitOrder = order
	p.rebuildLiveSum() // ch left the active set; shrink the summary back
	//lint:alloc inlined ForEach closure; verified non-escaping via scripts/hotpath_escape.sh
	ch.WriteBuf.ForEach(func(a mem.Addr, v uint64) {
		p.env.Mem.Store(a, v)
	})
	st := p.env.St
	st.Chunks++
	st.CommittedInstrs += uint64(ch.Executed)
	st.SumRSetLines += uint64(ch.RSet.Len())
	st.SumWSetLines += uint64(ch.WSet.Len())
	st.SumPrivWSetLines += uint64(ch.PrivSet.Len())
	// Speculatively written lines become dirty non-speculative.
	//lint:alloc inlined ForEach closure; verified non-escaping via scripts/hotpath_escape.sh
	ch.WSet.ForEach(func(l mem.Line) {
		p.unpinToDirty(l, ch.Slot)
	})
	//lint:alloc inlined ForEach closure; verified non-escaping via scripts/hotpath_escape.sh
	ch.PrivSet.ForEach(func(l mem.Line) {
		p.unpinToDirty(l, ch.Slot)
	})
	// Write-backs successfully skipped; the saved pre-images are dead.
	p.privScratch = p.privBuf.DrainSlot(ch.Slot, p.privScratch[:0])
	if p.opts.Stpvt && !ch.Wpriv.Empty() {
		p.env.PrivCommit(p.id, ch.Wpriv, &ch.PrivSet)
	}
	p.squashStreak = 0
	p.commitCount++
	if p.preArbing {
		// Release the exclusive commit window explicitly: the single-
		// arbiter grant path auto-unlocks, but distributed-arbiter
		// commits go through Reserve/Confirm, which does not.
		p.preArbing = false
		p.preArbGranted = false
		p.env.EndPreArbitrate(p.id)
	}
	if p.OnCommit != nil {
		p.OnCommit(ch)
	}
}

//sim:hotpath
func (p *BulkProc) unpinToDirty(l mem.Line, slot int) {
	if w := p.l1.Unpin(l, slot); w != nil && w.Valid() && w.PinMask == 0 {
		w.State = cache.Dirty
	}
}

// grantArrived runs when the grant reaches the processor: the chunk's
// hardware slot frees and the next completed chunk may arbitrate.
//
//sim:hotpath
func (p *BulkProc) grantArrived(ch *chunk.Chunk) {
	for i, c := range p.chunks {
		if c == ch {
			p.chunks = append(p.chunks[:i], p.chunks[i+1:]...)
			break
		}
	}
	ch.State = chunk.Committed
	if p.opts.RetainCommitted {
		// Park the chunk for cross-run recycling; nothing reads the
		// retired list until the next Reset adopts it into the pool.
		p.retired = append(p.retired, ch)
	}
	p.slotBusy[ch.Slot] = false
	if len(p.chunks) > 0 {
		p.tryRequestCommit(p.chunks[0])
	}
	if p.f.done() && p.cur == nil && len(p.chunks) == 0 {
		p.finished = true
		p.doneAt = p.env.Eng.Now()
		return
	}
	p.kick()
}

// endOfStream closes the final chunk (whatever its size) and finishes once
// everything committed.
func (p *BulkProc) endOfStream() {
	if p.cur != nil {
		if p.cur.Executed == 0 && len(p.chunks) > 0 && p.chunks[len(p.chunks)-1] == p.cur {
			// Empty trailing chunk: discard it silently. It never left the
			// processor (no accesses, no requests), so it can be recycled
			// immediately.
			p.chunks = p.chunks[:len(p.chunks)-1]
			p.slotBusy[p.cur.Slot] = false
			p.pool.Put(p.cur)
			p.cur = nil
		} else if p.cur != nil {
			p.closeChunk()
		}
	}
	if len(p.chunks) == 0 {
		p.finished = true
		p.doneAt = p.env.Eng.Now()
	}
}

// ---------------------------------------------------------------------------
// Squash handling
// ---------------------------------------------------------------------------

// squashFrom discards ch and every younger chunk, rewinds the interpreter
// to ch's checkpoint, and applies the forward-progress escalation.
func (p *BulkProc) squashFrom(idx int, genuine bool) {
	victims := p.chunks[idx:]
	p.chunks = p.chunks[:idx]
	p.squashCount++
	p.trail.noteSquash(victims[0].Seq, uint64(p.env.Eng.Now()), len(victims), genuine)
	st := p.env.St
	for i, ch := range victims {
		ch.State = chunk.Squashed
		st.Squashes++
		if i > 0 {
			st.SquashCascades++
		}
		st.SquashedInstrs += uint64(ch.Executed)
		ch.WSet.ForEach(func(l mem.Line) {
			p.dropSpecLine(l, ch, false)
		})
		ch.PrivSet.ForEach(func(l mem.Line) {
			p.dropSpecLine(l, ch, true)
		})
		p.privScratch = p.privBuf.DrainSlot(ch.Slot, p.privScratch[:0])
		st.PrivBufRestores += uint64(len(p.privScratch))
		p.slotBusy[ch.Slot] = false
	}
	if genuine {
		st.SquashesTrue++
	} else {
		st.SquashesAliased++
	}
	if p.OnSquash != nil {
		wasted := 0
		for _, ch := range victims {
			wasted += ch.Executed
		}
		p.OnSquash(len(victims), wasted, genuine)
	}
	if p.env.St.Trace != nil {
		p.env.St.Trace("t=%d proc%d SQUASH from chunk=%d (%d victims)", p.env.Eng.Now(), p.id, victims[0].Seq, len(victims))
	}
	oldest := victims[0]
	p.f.restore(p.checkpoints[oldest.Slot])
	p.cur = nil
	p.rebuildLiveSum() // the victims left the active set
	p.squashStreak++
	if p.squashStreak >= p.opts.PreArbThreshold && !p.preArbing {
		p.preArbing = true
		p.env.PreArbitrate(p.id, func() {
			if !p.preArbing {
				// Stale grant: the request sat in the arbiter's queue
				// while we committed (or timed out) and stopped wanting
				// exclusivity. Hand the lock straight back or it leaks
				// forever.
				p.env.EndPreArbitrate(p.id)
				return
			}
			p.preArbGranted = true
			if p.OnPreArb != nil {
				p.OnPreArb()
			}
			// Deadlock guard: if we are spin-waiting on a lock whose
			// holder now cannot commit its release (we block every other
			// commit), nothing ever frees us. Release the exclusive
			// window if we fail to commit within a generous bound.
			commitsAtGrant := p.commitCount
			p.env.Eng.After(sim.Time(8*p.par.ChunkSize+20000), func() {
				if p.preArbing && p.commitCount == commitsAtGrant {
					p.preArbing = false
					p.preArbGranted = false
					p.squashStreak = 0
					p.env.EndPreArbitrate(p.id)
				}
			})
		})
	}
	// Recycle the victims. Chunks with a commit request still in flight are
	// skipped here: commitReply recycles them on a posthumous denial and
	// leaks them on a posthumous grant (the arbiter/directory pipeline then
	// holds their signatures until commit completion).
	for _, ch := range victims {
		if ch.ReqsOut == 0 {
			p.pool.Put(ch)
		}
	}
	// Pipeline refill before re-execution.
	p.kickAt(p.par.SquashPenalty)
}

// dropSpecLine unpins a squashed chunk's line. Lines written under the
// dynamically-private optimization are restored from the private buffer —
// the cache keeps the (old) committed version, so the line stays valid and
// dirty. Ordinary speculative lines are invalidated.
//
//sim:hotpath
func (p *BulkProc) dropSpecLine(l mem.Line, ch *chunk.Chunk, priv bool) {
	w := p.l1.Unpin(l, ch.Slot)
	if w == nil || !w.Valid() || w.PinMask != 0 {
		return
	}
	if priv && p.opts.Dypvt {
		// The cache keeps the committed version (restored from the
		// private buffer); the line stays valid and dirty.
		w.State = cache.Dirty
		return
	}
	p.l1.Invalidate(l)
}

// ---------------------------------------------------------------------------
// directory.CachePort
// ---------------------------------------------------------------------------

// ApplyCommit is the BDM's reaction to an incoming committing W signature:
// bulk disambiguation against the live chunks, then bulk invalidation of
// matching committed lines.
//
//sim:hotpath
func (p *BulkProc) ApplyCommit(c *directory.Commit) {
	if c.Proc == p.id {
		return
	}
	if p.env.St.Trace != nil {
		//lint:alloc debug-only trace formatting, guarded by Trace != nil
		p.env.St.Trace("t=%d proc%d recv Wsig from proc%d (chunks=%d)", p.env.Eng.Now(), p.id, c.Proc, len(p.chunks))
	}
	// Incoming signatures always disambiguate — including stpvt Wpriv
	// propagations. Genuinely private lines never appear in another
	// processor's R/W sets, so this costs nothing in the intended case;
	// for an *aliased* Wpriv signature it is required for soundness: the
	// expansion may have claimed directory ownership of a shared line and
	// reset its sharer vector, and any chunk that read that line stale
	// must die here or nothing will ever squash it.
	idx, genuine := bdm.DisambiguateSummary(c.W, p.liveSum, c.TrueW, p.chunks)
	if idx < 0 && p.env.Faults != nil {
		// Fault injection: a spurious bulk-disambiguation squash — the
		// limit case of signature aliasing, where an incoming W "hits" a
		// chunk that shares no real line with it. Only asked when an
		// active chunk exists, so injected counters match applied faults.
		if j := p.oldestActiveChunk(); j >= 0 && p.env.Faults.SpuriousSquash(p.id) {
			idx, genuine = j, false
		}
	}
	if idx >= 0 {
		p.squashFrom(idx, genuine)
	}
	st := p.env.St
	//lint:alloc inlined BulkInvalidate closure; verified non-escaping via scripts/hotpath_escape.sh
	p.l1.BulkInvalidate(c.W, func(w cache.Way) {
		if c.TrueW.Has(w.Line) {
			st.CacheInvs++
		} else {
			st.ExtraCacheInvs++
		}
	})
	// Replies racing with this commit carry stale data: invalidate on
	// arrival instead of installing. The in-flight signature is a superset
	// of the live MSHR lines (add-only between empty-drain clears), so if
	// it does not intersect the committing W no in-flight line can satisfy
	// MayContain — the scan would mark nothing — and it is skipped in O(1).
	// Marking is commutative over the in-flight set (every matching
	// request is poisoned, no early exit), so walk order cannot affect
	// the outcome.
	if len(p.inflight) > 0 && c.W.Intersects(p.inflightSig) {
		for _, req := range p.inflight {
			if c.W.MayContain(req.l) {
				req.poisoned = true
			}
		}
	}
}

// rebuildLiveSum recomputes the live-summary signature as the exact union
// of the remaining active chunks' R and W. Called whenever a chunk leaves
// the active set (commit retirement, squash) — the only transitions that
// can shrink the union; access appends grow it incrementally via
// chunk.Sum.
//
//sim:hotpath
func (p *BulkProc) rebuildLiveSum() {
	p.liveSum.Clear()
	for _, ch := range p.chunks {
		if ch.Active() {
			p.liveSum.UnionWith(ch.R)
			p.liveSum.UnionWith(ch.W)
		}
	}
}

// oldestActiveChunk returns the index of the oldest still-squashable
// chunk, or -1.
func (p *BulkProc) oldestActiveChunk() int {
	for i, ch := range p.chunks {
		if ch.Active() {
			return i
		}
	}
	return -1
}

// ApplyInvalidate serves conventional invalidations; under BulkSC it only
// appears in mixed configurations (directory-cache displacement fallback).
func (p *BulkProc) ApplyInvalidate(l mem.Line) {
	if w := p.l1.Probe(l); w != nil && w.PinMask == 0 {
		p.l1.Invalidate(l)
	}
}

// SnoopDirty supplies a line the directory believes dirty here. The
// dypvt path: if any live chunk wrote the line privately, the private
// prediction has failed — the committed (pre-update) version is supplied
// (from the private buffer when present, otherwise from memory, where the
// last committed chunk left it) and the line is promoted back into W in
// every live chunk, so future commits arbitrate and disambiguate it
// (§5.2).
//
//sim:hotpath
func (p *BulkProc) SnoopDirty(l mem.Line) (supplied, holds bool) {
	promoted := false
	for _, ch := range p.chunks {
		if ch.Active() && ch.PromoteToW(l) {
			promoted = true
		}
	}
	if p.privBuf.Has(l) {
		p.env.St.PrivBufSupplies++
		p.privBuf.Take(l)
		return true, true
	}
	if promoted {
		// Privately written but no buffered pre-image (a predecessor's
		// commit drained it): memory holds the committed version; we
		// keep our (speculative) copy and stay a sharer.
		p.env.St.PrivBufSupplies++
		return true, true
	}
	w := p.l1.Probe(l)
	if w == nil || !w.Valid() {
		// Genuinely absent: the directory's dirty bit came from an
		// aliased update; memory is current.
		return false, false
	}
	if w.PinMask != 0 {
		// Speculatively W-written by an active chunk: memory holds the
		// committed version, but we do hold the line — we must remain in
		// the sharer vector so the chunk's commit invalidates the other
		// sharers (Table 1 case 2).
		return false, true
	}
	if w.State == cache.Dirty {
		w.State = cache.Shared
		return true, true
	}
	return false, true
}

// SnoopInvalidate is SnoopDirty plus invalidation (conventional RdX).
func (p *BulkProc) SnoopInvalidate(l mem.Line) bool {
	had, _ := p.SnoopDirty(l)
	p.ApplyInvalidate(l)
	return had
}

// Package sim provides the deterministic discrete-event simulation engine
// that underpins every timing model in the repository.
//
// The engine maintains a priority queue of events ordered by (time, sequence
// number). Sequence numbers make execution fully deterministic: two events
// scheduled for the same cycle fire in the order they were scheduled. All
// simulator components run on a single goroutine, so no locking is needed
// and results are bit-reproducible for a given seed.
//
// Performance architecture: the queue is a two-tier calendar. A cycle-level
// machine schedules almost every event at now+1..now+k for small k (cache
// hops are 6 cycles, an off-chip access 293, commit backoff tens), so the
// near future — the next wheelSize cycles — is a timing wheel: one FIFO
// slot per cycle, push and pop both O(1), with an occupancy bitmap making
// "next non-empty cycle" a couple of word scans. Events beyond the wheel
// horizon (watchdog polls, pre-arbitration timeouts) spill into the far
// list: a slice of the same inline event records kept sorted by (time,
// seq) descending, so the minimum pops from the end. Insertion is a
// binary search plus a shift; the path is rare (76 of 4,017,852 pushes
// over the golden cells and the 256-proc radix cell), so nothing faster
// than the simplest ordered structure pays. Both tiers are
// allocation-free in steady state: slot slices and the far slice are the
// pool, and append reuses their capacity. Each record
// carries either a plain func() or a typed callback + payload word
// (AtCall/AfterCall), letting hot schedulers avoid per-event closure
// captures entirely by reusing one callback and threading state through
// the payload.
//
// Ordering across the tiers is exact (see DESIGN.md §16): an event is
// far-resident only if its time was ≥ now+wheelSize when scheduled, and
// wheel-resident only if it was < now+wheelSize. now never decreases, so
// for any single cycle t every far event at t was scheduled before every
// wheel event at t and carries a smaller sequence number. Draining the
// far list first on time ties therefore reproduces the exact (time, seq)
// order of a single priority queue, bit for bit.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
)

// Time is a simulation timestamp in processor cycles.
type Time uint64

// event is one scheduled callback record. Records live inline in the
// wheel's slot slices and the far list — they are the "pool"; append
// reuses the slices' capacity, so steady-state scheduling performs zero
// allocations.
type event struct {
	at  Time
	seq uint64
	fn  func()    // plain closure form (At/After)
	cb  func(any) // typed-callback form (AtCall/AfterCall)
	arg any       // payload for cb; an interface holding a pointer does not allocate
}

// Timing-wheel geometry. wheelSize cycles of lookahead covers every
// steady-state latency in the machine (hop 6, directory access, off-chip
// 293, commit backoff ≤ 51, squash penalties); only coarse timers (5000-
// cycle watchdog polls, 20000+-cycle pre-arbitration timeouts) overflow
// to the far list. Power of two so slot index and bitmap scans are masks.
const (
	wheelBits  = 9
	wheelSize  = 1 << wheelBits // cycles of O(1) lookahead
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64 // occupancy bitmap words
)

// Engine is a discrete-event simulator clock and scheduler.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now Time
	seq uint64
	// slots[t&wheelMask] holds, in FIFO (= seq) order, the events
	// scheduled for cycle t, for t in [now, now+wheelSize). heads gives
	// each slot's drain cursor so pop never shifts storage; a fully
	// drained slot truncates to len 0, keeping capacity.
	slots [][]event
	heads []int
	// occ is the slot-occupancy bitmap: bit i set iff slots[i] has
	// undrained events. wcount is the total across all slots.
	occ    [wheelWords]uint64
	wcount int
	// far is the far-future overflow tier (events ≥ wheelSize cycles
	// ahead at scheduling time), sorted by (time, seq) descending: the
	// earliest event is far[len(far)-1].
	far []event
	rng *rand.Rand
	// fired counts events executed, as a cheap progress/livelock metric.
	fired uint64
	// limit aborts the run if the clock passes it (0 = no limit).
	limit Time
}

// NewEngine returns an engine whose RNG is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		slots: make([][]event, wheelSize),
		heads: make([]int, wheelSize),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. Components that
// need randomness (e.g. backoff jitter) must use this source so whole-system
// runs stay reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired reports the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// SetLimit installs a wall-clock (in cycles) abort limit. Run panics with a
// descriptive message if the limit is exceeded; this converts protocol
// livelocks into loud test failures instead of hangs.
func (e *Engine) SetLimit(t Time) { e.limit = t }

// At schedules f to run at absolute time t. Scheduling in the past is a
// programming error and panics.
//
//sim:hotpath
func (e *Engine) At(t Time, f func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: f})
}

// After schedules f to run d cycles from now.
//
//sim:hotpath
func (e *Engine) After(d Time, f func()) { e.At(e.now+d, f) }

// AtCall schedules cb(arg) at absolute time t. It is the allocation-free
// scheduling form: hot callers keep one long-lived cb (typically a bound
// method) and pass per-event state through arg — a pointer-shaped payload
// does not allocate when stored in the interface word.
//
//sim:hotpath
func (e *Engine) AtCall(t Time, cb func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, cb: cb, arg: arg})
}

// AfterCall schedules cb(arg) d cycles from now.
//
//sim:hotpath
func (e *Engine) AfterCall(d Time, cb func(any), arg any) { e.AtCall(e.now+d, cb, arg) }

// Pending reports the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return e.wcount + len(e.far) }

// Reset returns the engine to its just-constructed state while retaining
// the wheel slots' and far slice's capacity, so a warm machine reuse
// (core.Runner) pays no event-queue reallocation. Leftover events are
// dropped: Run can stop with events still queued (the all-procs-done
// condition), and a recycled engine must not fire a previous run's
// callbacks. The vacated records are zeroed so dead closures and payloads
// are released to the GC, and the RNG is re-seeded so the next run draws
// the exact stream a cold NewEngine would — the determinism contract of
// warm reuse.
func (e *Engine) Reset(seed int64) {
	for w, word := range e.occ {
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			clear(e.slots[i]) // release closures/payloads from undrained events
			e.slots[i] = e.slots[i][:0]
			e.heads[i] = 0
		}
		e.occ[w] = 0
	}
	e.wcount = 0
	clear(e.far) // release closures/payloads from any undrained events
	e.far = e.far[:0]
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.limit = 0
	e.rng = rand.New(rand.NewSource(seed))
}

// less orders events by (time, sequence), the determinism contract.
func (a *event) less(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push routes ev to the wheel when it lands within the lookahead window
// and to the far list otherwise. Wheel insertion is O(1): append to
// the cycle's FIFO slot and set its occupancy bit.
//
//sim:hotpath
func (e *Engine) push(ev event) {
	if ev.at < e.now+wheelSize {
		i := int(ev.at) & wheelMask
		e.slots[i] = append(e.slots[i], ev)
		e.occ[i>>6] |= 1 << uint(i&63)
		e.wcount++
		return
	}
	e.pushFar(ev)
}

// pushFar inserts ev into the far list at its descending (time, seq)
// position, found by binary search: the first index whose event orders
// before ev.
//
//sim:hotpath
func (e *Engine) pushFar(ev event) {
	lo, hi := 0, len(e.far)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.far[mid].less(&ev) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	e.far = slices.Insert(e.far, lo, ev)
}

// wheelNext returns the earliest cycle with a pending wheel event. It must
// only be called with wcount > 0. The scan walks the occupancy bitmap
// circularly from now's slot — at most wheelWords+1 word reads, usually
// one, since the wheel invariant guarantees every occupied slot maps to a
// unique cycle in [now, now+wheelSize).
//
//sim:hotpath
func (e *Engine) wheelNext() Time {
	start := int(e.now) & wheelMask
	w := start >> 6
	word := e.occ[w] &^ (1<<uint(start&63) - 1)
	for {
		if word != 0 {
			slot := w<<6 | bits.TrailingZeros64(word)
			return e.now + Time((slot-start)&wheelMask)
		}
		w = (w + 1) & (wheelWords - 1)
		word = e.occ[w]
		if w == start>>6 {
			// Wrapped: only the start word's low bits (cycles just under
			// now+wheelSize) remain unexamined.
			word &= 1<<uint(start&63) - 1
			slot := w<<6 | bits.TrailingZeros64(word)
			return e.now + Time((slot-start)&wheelMask)
		}
	}
}

// popWheel removes and returns the head of cycle t's FIFO slot, zeroing
// the vacated record so the slice does not retain dead closures or
// payloads. A fully drained slot truncates (capacity kept) and clears its
// occupancy bit.
//
//sim:hotpath
func (e *Engine) popWheel(t Time) event {
	i := int(t) & wheelMask
	s := e.slots[i]
	h := e.heads[i]
	ev := s[h]
	s[h] = event{} // release references held by the record
	h++
	if h == len(s) {
		e.slots[i] = s[:0]
		e.heads[i] = 0
		e.occ[i>>6] &^= 1 << uint(i&63)
	} else {
		e.heads[i] = h
	}
	e.wcount--
	return ev
}

// pop removes and returns the earliest event across both tiers. On a time
// tie the far list wins: a far-resident event at cycle t was scheduled while
// t was beyond the wheel horizon, i.e. before every wheel-resident event
// at t, so its sequence number is strictly smaller (package comment).
//
//sim:hotpath
func (e *Engine) pop() event {
	if e.wcount > 0 {
		t := e.wheelNext()
		if len(e.far) == 0 || t < e.far[len(e.far)-1].at {
			return e.popWheel(t)
		}
	}
	return e.popFar()
}

// popFar removes and returns the earliest far-list event, the last one.
// The vacated slot is zeroed so the slice does not retain dead closures
// or payloads.
//
//sim:hotpath
func (e *Engine) popFar() event {
	n := len(e.far) - 1
	ev := e.far[n]
	e.far[n] = event{} // release references held by the record
	e.far = e.far[:n]
	return ev
}

// nextAt reports the earliest pending event time across both tiers.
//
//sim:hotpath
func (e *Engine) nextAt() (Time, bool) {
	if e.wcount > 0 {
		t := e.wheelNext()
		if n := len(e.far); n > 0 && e.far[n-1].at < t {
			t = e.far[n-1].at
		}
		return t, true
	}
	if n := len(e.far); n > 0 {
		return e.far[n-1].at, true
	}
	return 0, false
}

// Step fires the single earliest event and returns true, or returns false
// if the queue is empty.
//
//sim:hotpath
func (e *Engine) Step() bool {
	if e.wcount == 0 && len(e.far) == 0 {
		return false
	}
	ev := e.pop()
	if ev.at > e.now {
		e.now = ev.at
	}
	if e.limit != 0 && e.now > e.limit {
		panic(fmt.Sprintf("sim: cycle limit %d exceeded (now %d, %d events fired); likely livelock", e.limit, e.now, e.fired))
	}
	e.fired++
	if ev.cb != nil {
		ev.cb(ev.arg)
	} else {
		ev.fn()
	}
	return true
}

// Run fires events until the queue drains or stop returns true. A nil stop
// runs to quiescence.
func (e *Engine) Run(stop func() bool) {
	for e.Step() {
		if stop != nil && stop() {
			return
		}
	}
}

// RunUntil fires events until the clock reaches t or the queue drains.
func (e *Engine) RunUntil(t Time) {
	for {
		at, ok := e.nextAt()
		if !ok || at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

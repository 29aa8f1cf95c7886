package main

import (
	"runtime"

	"bulksc"
)

// simTotals sums the simulated counters of a set of cells (post-warmup
// windows, as Result.Stats reports them) plus the engine's host cost.
type simTotals struct {
	cells                                  int
	committed, squashed                    uint64
	squashesTrue, squashesAliased, bounces uint64
	commitReqs, grants                     uint64
	pendingW                               float64 // Σ per-cell time-averaged pending W signatures
	garbTxn, garbQueued, garbQueueCycles   uint64
	dirLookups, dirUnnecessary, dirCommits uint64
	wsigNodeSends                          uint64
	l1Hits, l1Misses, l2Hits, l2Misses     uint64
	writebacks, msgs, bytes                uint64
	events                                 uint64
	wallNs                                 int64
}

func (t *simTotals) add(res *bulksc.Result) {
	s := res.Stats
	t.cells++
	t.committed += s.CommittedInstrs
	t.squashed += s.SquashedInstrs
	t.squashesTrue += s.SquashesTrue
	t.squashesAliased += s.SquashesAliased
	t.bounces += s.ReadBounces
	t.commitReqs += s.CommitRequests
	t.grants += s.CommitGrants
	t.pendingW += s.AvgPendingWSigs()
	t.garbTxn += s.GArbTransactions
	t.garbQueued += s.GArbQueued
	t.garbQueueCycles += s.GArbQueueCycles
	t.dirLookups += s.DirLookups
	t.dirUnnecessary += s.DirUnnecessary
	t.dirCommits += s.DirCommits
	t.wsigNodeSends += s.WSigNodeSends
	t.l1Hits += s.L1Hits
	t.l1Misses += s.L1Misses
	t.l2Hits += s.L2Hits
	t.l2Misses += s.L2Misses
	t.writebacks += s.Writebacks
	for _, m := range s.Messages {
		t.msgs += m
	}
	t.bytes += s.TotalTraffic()
	t.events += res.EventsFired
	t.wallNs += res.WallNs
}

// setSim reports the simulated layers of a set of cells: the event
// engine's work and host cost per event; how much executed work committed
// and why chunks squashed; the caches; and the arbiter, directory and
// network layers a commit fans out through.
func (r *run) setSim(t *simTotals) {
	r.set("sim.events", float64(t.events), "count")
	r.set("sim.ns_per_event", frac(float64(t.wallNs), float64(t.events)), "ns")
	r.set("chunk.useful_frac", frac(float64(t.committed), float64(t.committed+t.squashed)), "frac")
	r.set("bdm.squashes_true", float64(t.squashesTrue), "count")
	r.set("sig.squashes_aliased", float64(t.squashesAliased), "count")
	r.set("proc.read_bounces", float64(t.bounces), "count")
	r.set("cache.l1_hit_frac", frac(float64(t.l1Hits), float64(t.l1Hits+t.l1Misses)), "frac")
	r.set("cache.l2_hit_frac", frac(float64(t.l2Hits), float64(t.l2Hits+t.l2Misses)), "frac")
	r.set("cache.writebacks", float64(t.writebacks), "count")
	r.set("arbiter.grant_frac", frac(float64(t.grants), float64(t.commitReqs)), "frac")
	r.set("arbiter.avg_pending_w", frac(t.pendingW, float64(t.cells)), "count")
	r.set("arbiter.garb_txn", float64(t.garbTxn), "count")
	r.set("arbiter.garb_queued", float64(t.garbQueued), "count")
	r.set("arbiter.garb_queue_cycles", float64(t.garbQueueCycles), "cycles")
	r.set("directory.lookups_per_commit", frac(float64(t.dirLookups), float64(t.dirCommits)), "count")
	r.set("directory.useful_lookup_frac", 1-frac(float64(t.dirUnnecessary), float64(t.dirLookups)), "frac")
	r.set("sharerset.nodes_per_wsig", frac(float64(t.wsigNodeSends), float64(t.dirCommits)), "count")
	r.set("network.msgs_per_kinstr", frac(1000*float64(t.msgs), float64(t.committed)), "count")
	r.set("network.bytes_per_instr", frac(float64(t.bytes), float64(t.committed)), "B")
}

// setCore reports the core layer from RunProgram calls spread over units
// units of work: the median per-cell cost outside the simulation loop
// (RunProgram's span minus Result.WallNs: reset, arena reuse, result
// assembly) and the loop's seconds per unit.
func (r *run) setCore(spanNs, loopNs []int64, units int) {
	var reset []float64
	loop := int64(0)
	for i := range spanNs {
		reset = append(reset, float64(spanNs[i]-loopNs[i])/1e6)
		loop += loopNs[i]
	}
	r.set("core.reset_ms_per_cell", median(reset), "ms")
	r.set("core.loop_s", float64(loop)/1e9/float64(max(units, 1)), "s")
}

// memSample is a Go runtime allocation and GC reading.
type memSample struct {
	alloc, mallocs uint64
	gcs            uint32
	pauseNs        uint64
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{alloc: m.TotalAlloc, mallocs: m.Mallocs, gcs: m.NumGC, pauseNs: m.PauseTotalNs}
}

// setRuntime reports the Go runtime's allocation and GC work between two
// readings, divided by n units of work.
func (r *run) setRuntime(a, b memSample, n int) {
	d := float64(max(n, 1))
	r.set("runtime.alloc_mb", float64(b.alloc-a.alloc)/(1<<20)/d, "MB")
	r.set("runtime.allocs", float64(b.mallocs-a.mallocs)/d, "count")
	r.set("runtime.gc_cycles", float64(b.gcs-a.gcs)/d, "count")
	r.set("runtime.gc_pause_ms", float64(b.pauseNs-a.pauseNs)/1e6/d, "ms")
}

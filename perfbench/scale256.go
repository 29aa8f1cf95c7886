package main

import (
	"fmt"
	"time"

	"bulksc"
)

// The scale256 cell: BSC_dypvt radix on the largest machine the scaling
// study runs, with the arbiter tier split 32 ways and the G-arbiter in 8
// shards (bulksc.DefaultArbitersFor / DefaultGArbShardsFor of 256).
const (
	scaleApp   = "radix"
	scaleProcs = 256
	scaleWork  = 2000
)

func scaleConfig(seed int64) bulksc.Config {
	cfg := bulksc.Variant(scaleApp, "dypvt")
	cfg.Procs = scaleProcs
	cfg.NumArbiters = bulksc.DefaultArbitersFor(scaleProcs)
	cfg.GArbShards = bulksc.DefaultGArbShardsFor(cfg.NumArbiters)
	cfg.Work = scaleWork
	cfg.Seed = seed
	cfg.CheckSC = false
	cfg.Witness = false
	return cfg
}

// runScale256 runs the 256-processor cell serially, one fresh Runner per
// repetition, so every repetition builds and runs a machine from scratch.
func runScale256(r *run) error {
	seeds := progSeedsOf(r.seed)
	var (
		prog   *bulksc.Program
		runner *bulksc.Runner
		next   int       // index into seeds of the next repetition
		gen    []float64 // seconds to generate each traced repetition's program
	)
	newCell := func(tr *tracer, parent int) error {
		t0 := time.Now()
		sp := tr.begin("bulksc.GenerateProgram", parent)
		p, err := bulksc.GenerateProgram(scaleApp, scaleProcs, scaleWork, seeds[next%progSeeds])
		tr.end(sp)
		if err != nil {
			return err
		}
		if tr != nil {
			gen = append(gen, time.Since(t0).Seconds())
		}
		sp = tr.begin("bulksc.NewRunner", parent)
		prog, runner = p, bulksc.NewRunner()
		tr.end(sp)
		return nil
	}
	setup, err := setupTimes(setupReps, func() error { return newCell(nil, 0) }, nil)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	r.set("setup_s", setup, "s")

	var (
		hashes = make(map[int64]uint64)
		cycles = make(map[int64]float64)
		last   *bulksc.Result
		// RunProgram's span and simulation loop in each repetition.
		spanNs, loopNs []int64
	)
	rep := func(tr *tracer) (lap, error) {
		root := tr.begin("bench.rep", 0)
		defer tr.end(root)
		if runner == nil { // the first repetition runs on set-up's machine
			if err := newCell(tr, root); err != nil {
				return lap{}, err
			}
		}
		seed := seeds[next%progSeeds]
		next++
		w := startWatch()
		sp := tr.begin("Runner.RunProgram", root)
		res, err := runner.RunProgram(scaleConfig(seed), prog)
		tr.end(sp)
		el := w.lap()
		// Drop this repetition's machine so the collection before the next
		// one frees it.
		prog, runner = nil, nil
		if err != nil {
			return lap{}, fmt.Errorf("scale256 cell: %w", err)
		}
		if want, ok := hashes[seed]; ok {
			r.check(res.DeterminismHash() == want, "scale256 seed %d: hash %016x, first run %016x", seed, res.DeterminismHash(), want)
		} else {
			hashes[seed], cycles[seed] = res.DeterminismHash(), float64(res.Cycles)
		}
		last = res
		spanNs, loopNs = append(spanNs, int64(el.wall*1e9)), append(loopNs, res.WallNs)
		return el, nil
	}
	reps, err := r.measure(progSeeds, rep)
	if err != nil {
		return err
	}
	if err := r.setPeakRSS(); err != nil {
		return err
	}
	cpu := median(reps)
	r.set("cpu_s", cpu, "s")
	r.set("sim_instr_per_cpu_s", float64(scaleProcs*scaleWork)/cpu, "instr/s")
	var cyc []float64
	for _, c := range cycles {
		cyc = append(cyc, c)
	}
	r.set("sim.cycles", median(cyc), "cycles")
	r.notes["scale256.seeds"] = seeds
	if exp, ok := r.recorded(); ok {
		for i, s := range seeds {
			want := exp.scale[i]
			r.check(hashes[s] == want.hash && cycles[s] == float64(want.cycles),
				"scale256 seed %d: hash %016x in %v cycles, recorded %016x in %d", s, hashes[s], cycles[s], want.hash, want.cycles)
		}
	}

	if r.traced {
		var t simTotals
		t.add(last)
		r.setSim(&t)
		n := len(r.tracedReps)
		r.set("workload.gen_s", median(gen), "s")
		r.setCore(spanNs[len(spanNs)-n:], loopNs[len(loopNs)-n:], n)
	}

	// The measured cells run without checkers. One more cold run of the
	// first program with the online witness must reproduce its hash and
	// find nothing; one with the SC replay checker (whose verdict enters
	// the hash) must find nothing.
	seed := seeds[0]
	prog, err = bulksc.GenerateProgram(scaleApp, scaleProcs, scaleWork, seed)
	if err != nil {
		return err
	}
	vcfg := scaleConfig(seed)
	vcfg.Witness = true
	res, err := bulksc.RunProgram(vcfg, prog)
	if err != nil {
		return fmt.Errorf("scale256 verify: %w", err)
	}
	r.check(res.DeterminismHash() == hashes[seed], "scale256 verify: witness-on hash %016x, measured %016x", res.DeterminismHash(), hashes[seed])
	r.check(len(res.WitnessViolations) == 0, "scale256 verify: witness: %v", res.WitnessViolations)
	r.check(res.WitnessChunks > 0, "scale256 verify: witness audited no chunks")
	vcfg = scaleConfig(seed)
	vcfg.CheckSC = true
	if res, err = bulksc.RunProgram(vcfg, prog); err != nil {
		return fmt.Errorf("scale256 replay: %w", err)
	}
	r.check(len(res.SCViolations) == 0, "scale256 replay: %v", res.SCViolations)
	r.check(res.ChunksChecked > 0, "scale256 replay: no chunks replayed")
	return nil
}

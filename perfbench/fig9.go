package main

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"bulksc"
	"bulksc/experiments"
)

// fig9Work is the per-thread work of every Figure 9 cell: the value the
// repository's earlier Fig9 timings (BENCH_core.json, ROADMAP) used.
const fig9Work = 60_000

// fig9Procs is Figure 9's machine size (the paper's 8-core system).
const fig9Procs = 8

type cellID struct{ app, key string }

// runFig9 reruns the full Figure 9 sweep (13 apps × 7 variants) through
// experiments.Fig9 in its default warm parallel mode.
func runFig9(r *run) error {
	apps, variants := bulksc.Apps(), experiments.Fig9Variants()
	nCells := len(apps) * len(variants)

	setup, err := setupTimes(setupReps, func() error {
		if _, _, err := fig9Programs(nil, 0, apps, r.seed); err != nil {
			return err
		}
		for i := 0; i < r.procs; i++ {
			bulksc.NewRunner()
		}
		return nil
	}, nil)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	r.set("setup_s", setup, "s")

	var (
		hashes    map[cellID]uint64 // from the first sweep; later sweeps must match
		firstRows []experiments.Fig9Row
		last      simTotals // the latest sweep's cells
		busyNs    []float64 // per sweep: Σ simulation-loop time
		walls     []float64 // per sweep: wall seconds
		tails     []float64 // per sweep: seconds after the final dispatch
	)
	rep := func(tr *tracer) (lap, error) {
		var (
			mu    sync.Mutex
			tot   simTotals
			done  []time.Duration
			cells = make(map[cellID]uint64, nCells)
		)
		w := startWatch()
		t0 := w.wall
		p := experiments.Params{
			Work: fig9Work, Seed: r.seed, Parallelism: r.procs,
			OnCell: func(c experiments.Cell) {
				mu.Lock()
				defer mu.Unlock()
				done = append(done, time.Since(t0))
				cells[cellID{c.App, c.Key}] = c.Result.DeterminismHash()
				tot.add(c.Result)
			},
		}
		sp := tr.begin("experiments.Fig9", 0)
		rows, err := experiments.Fig9(p)
		tr.end(sp)
		el := w.lap()
		if err != nil {
			return lap{}, fmt.Errorf("fig9 sweep: %w", err)
		}
		r.check(len(cells) == nCells, "fig9: %d of %d cells completed", len(cells), nCells)
		if hashes == nil {
			hashes, firstRows = cells, rows
		} else {
			for id, h := range cells {
				r.check(hashes[id] == h, "fig9: %s/%s hash %016x, first sweep %016x", id.app, id.key, h, hashes[id])
			}
			r.check(reflect.DeepEqual(rows, firstRows), "fig9: rows differ from the first sweep")
		}
		last = tot
		busyNs, walls = append(busyNs, float64(tot.wallNs)), append(walls, el.wall)
		sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
		if k := len(done) - r.procs - 1; k >= 0 {
			tails = append(tails, el.wall-done[k].Seconds())
		}
		return el, nil
	}
	reps, err := r.measure(3, rep)
	if err != nil {
		return err
	}
	if err := r.setPeakRSS(); err != nil {
		return err
	}
	cpu := median(reps)
	r.set("cpu_s", cpu, "s")
	r.set("sim_instr_per_cpu_s", float64(nCells*fig9Procs*fig9Work)/cpu, "instr/s")
	r.set("sim.dypvt_vs_rc", experiments.Fig9GeoMeanRow(firstRows).Speedup["dypvt"], "ratio")
	r.notes["fig9.sweeps"] = len(reps)
	if exp, ok := r.recorded(); ok {
		got := experiments.Fig9GeoMeanRow(firstRows).Speedup["dypvt"]
		r.check(hashFold(hashes) == exp.fig9Fold, "fig9: cell hash fold %016x, recorded %016x", hashFold(hashes), exp.fig9Fold)
		r.check(got == exp.dypvtVsRC, "fig9: dypvt_vs_rc %v, recorded %v", got, exp.dypvtVsRC)
	}

	if r.traced {
		n := len(r.tracedReps)
		tracedBusy, tracedWalls := busyNs[len(busyNs)-n:], walls[len(walls)-n:]
		var busy []float64
		for i, b := range tracedBusy {
			busy = append(busy, b/1e9/(float64(r.procs)*tracedWalls[i]))
		}
		r.set("experiments.worker_busy_frac", median(busy), "frac")
		r.set("experiments.tail_s", median(tails[len(tails)-n:]), "s")
		r.setSim(&last)
		if err := r.decomposedSweep(apps, variants, hashes); err != nil {
			return err
		}
	}
	return r.verifyFig9(apps, variants, hashes)
}

// fig9Config is the configuration experiments.Fig9 runs for one cell.
func fig9Config(app, variant string, seed int64) bulksc.Config {
	cfg := bulksc.Variant(app, variant)
	cfg.CheckSC = false
	cfg.Witness = false
	cfg.Work = fig9Work
	cfg.Seed = seed
	return cfg
}

// fig9Programs generates each app's Figure 9 program, returning them and
// the seconds spent generating.
func fig9Programs(tr *tracer, parent int, apps []string, seed int64) (map[string]*bulksc.Program, float64, error) {
	progs := make(map[string]*bulksc.Program, len(apps))
	t0 := time.Now()
	for _, app := range apps {
		sp := tr.begin("bulksc.GenerateProgram", parent)
		prog, err := bulksc.GenerateProgram(app, fig9Procs, fig9Work, seed)
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		progs[app] = prog
	}
	return progs, time.Since(t0).Seconds(), nil
}

func fig9Cells(apps, variants []string) []cellID {
	var ids []cellID
	for _, app := range apps {
		for _, v := range variants {
			ids = append(ids, cellID{app, v})
		}
	}
	return ids
}

// decomposedSweep runs the Figure 9 cells the way experiments.Fig9 does
// internally — one program per app, one warm Runner per worker — but calls
// bulksc.GenerateProgram, bulksc.NewRunner and Runner.RunProgram itself,
// so each call gets a span. It gives the workload and core layer metrics
// that a call into experiments.Fig9 hides.
func (r *run) decomposedSweep(apps, variants []string, hashes map[cellID]uint64) error {
	root := r.tr.begin("bench.decomposed", 0)
	defer r.tr.end(root)
	progs, gen, err := fig9Programs(r.tr, root, apps, r.seed)
	if err != nil {
		return err
	}
	ids := fig9Cells(apps, variants)
	spanNs := make([]int64, len(ids))
	loopNs := make([]int64, len(ids))
	errs := make([]error, len(ids))
	runners := make(chan *bulksc.Runner, r.procs) // one warm Runner per worker, as in experiments.Fig9
	for w := 0; w < r.procs; w++ {
		sp := r.tr.begin("bulksc.NewRunner", root)
		runners <- bulksc.NewRunner()
		r.tr.end(sp)
	}
	forEachParallel(r.procs, len(ids), func(i int) {
		runner := <-runners
		defer func() { runners <- runner }()
		id := ids[i]
		t0 := time.Now()
		sp := r.tr.begin("Runner.RunProgram", root)
		res, err := runner.RunProgram(fig9Config(id.app, id.key, r.seed), progs[id.app])
		r.tr.end(sp)
		if err != nil {
			errs[i] = err
			return
		}
		spanNs[i], loopNs[i] = time.Since(t0).Nanoseconds(), res.WallNs
		if h := res.DeterminismHash(); h != hashes[id] {
			errs[i] = fmt.Errorf("%s/%s: Runner hash %016x, experiments.Fig9 %016x", id.app, id.key, h, hashes[id])
		}
	})
	for _, err := range errs {
		r.check(err == nil, "fig9 decomposed: %v", err)
	}
	r.set("workload.gen_s", gen, "s")
	r.setCore(spanNs, loopNs, 1)
	return nil
}

// verifyFig9 reruns every cell cold in two passes. The first runs the
// sweep's own configuration with the online witness on for the models
// that claim SC, and requires the warm sweep's determinism hash and a
// clean witness. The second runs the BulkSC variants with the SC replay
// checker, which must find no violation; it is a separate pass because
// the replay's verdict and commit log are part of the determinism hash.
func (r *run) verifyFig9(apps, variants []string, hashes map[cellID]uint64) error {
	progs, _, err := fig9Programs(nil, 0, apps, r.seed)
	if err != nil {
		return err
	}
	ids := fig9Cells(apps, variants)
	forEachParallel(r.procs, len(ids), func(i int) {
		id := ids[i]
		cfg := fig9Config(id.app, id.key, r.seed)
		cfg.Witness = cfg.Model == bulksc.ModelBulk || cfg.Model == bulksc.ModelSC
		res, err := bulksc.RunProgram(cfg, progs[id.app])
		r.mu.Lock()
		defer r.mu.Unlock()
		if err != nil {
			r.check(false, "fig9 verify %s/%s: %v", id.app, id.key, err)
			return
		}
		r.check(res.DeterminismHash() == hashes[id], "fig9 verify %s/%s: cold hash %016x, sweep %016x",
			id.app, id.key, res.DeterminismHash(), hashes[id])
		r.check(len(res.WitnessViolations) == 0, "fig9 verify %s/%s: witness: %v", id.app, id.key, res.WitnessViolations)
	})
	var bulkIDs []cellID
	for _, id := range ids {
		if fig9Config(id.app, id.key, r.seed).Model == bulksc.ModelBulk {
			bulkIDs = append(bulkIDs, id)
		}
	}
	forEachParallel(r.procs, len(bulkIDs), func(i int) {
		id := bulkIDs[i]
		cfg := fig9Config(id.app, id.key, r.seed)
		cfg.CheckSC = true
		res, err := bulksc.RunProgram(cfg, progs[id.app])
		r.mu.Lock()
		defer r.mu.Unlock()
		if err != nil {
			r.check(false, "fig9 replay %s/%s: %v", id.app, id.key, err)
			return
		}
		r.check(len(res.SCViolations) == 0, "fig9 replay %s/%s: %v", id.app, id.key, res.SCViolations)
	})
	return nil
}

// forEachParallel calls fn(0..n-1) on width goroutines and waits for all.
func forEachParallel(width, n int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

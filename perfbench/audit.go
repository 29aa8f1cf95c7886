package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"bulksc"
	"bulksc/experiments"
	"bulksc/internal/history"
	"bulksc/internal/history/gk"
)

// The audit cells: a few applications under both exported history shapes,
// BulkSC chunk records ("bulk") and SC per-access records ("sc").
var (
	auditApps   = []string{"radix", "fft", "ocean", "barnes"}
	auditModels = []string{"bulk", "sc"}
)

const auditWork = 20_000

type auditCell struct {
	app, model string
	seed       int64 // simulation seed
}

// id names the cell in a hash fold.
func (c auditCell) id() cellID { return cellID{c.app, fmt.Sprintf("%s@%d", c.model, c.seed)} }

// auditCells returns one round's cells: every app under both models, with
// one simulation seed.
func auditCells(seed int64) []auditCell {
	var cells []auditCell
	for _, app := range auditApps {
		for _, m := range auditModels {
			cells = append(cells, auditCell{app, m, seed})
		}
	}
	return cells
}

// auditConfig is the configuration experiments.TraceRun simulates for a
// cell, without its observers.
func auditConfig(c auditCell) bulksc.Config {
	v := "dypvt"
	if c.model == "sc" {
		v = "sc"
	}
	cfg := bulksc.Variant(c.app, v)
	cfg.Work, cfg.Seed = auditWork, c.seed
	cfg.Witness = false
	return cfg
}

// auditProgram is a program the reference runs need.
type auditProgram struct {
	app  string
	seed int64
}

// auditTimes is one round's host time in each audited layer.
type auditTimes struct {
	read, check time.Duration
	export      float64 // CPU seconds of the exports
	ops         int
	instrs      float64 // simulated: procs × work of each cell
}

// runAudit exports each cell's history through a file, reads it back and
// checks it offline, and requires the offline verdict and counts to match
// the online witness. Rounds cycle through the derived simulation seeds.
func runAudit(r *run) error {
	seeds := progSeedsOf(r.seed)
	dir := filepath.Join(r.workdir, fmt.Sprintf("audit-seed%d", r.seed))
	path := func(c auditCell) string {
		return filepath.Join(dir, fmt.Sprintf("%s-%s-%d.ndjson", c.app, c.model, c.seed))
	}

	// Set-up: the history directory and files, and each cell's program
	// (the reference runs below use them; TraceRun generates its own).
	progs := make(map[auditProgram]*bulksc.Program)
	setup, err := setupTimes(setupReps, func() error {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for _, seed := range seeds {
			for _, c := range auditCells(seed) {
				f, err := os.Create(path(c))
				if err != nil {
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
			for _, app := range auditApps {
				prog, err := bulksc.GenerateProgram(app, bulksc.DefaultConfig(app).Procs, auditWork, seed)
				if err != nil {
					return err
				}
				progs[auditProgram{app, seed}] = prog
			}
		}
		return nil
	}, nil)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	r.set("setup_s", setup, "s")

	hashes := make(map[auditCell]uint64)
	var (
		rounds []auditTimes
		last   simTotals // the latest round's cells
	)
	rep := func(tr *tracer) (lap, error) {
		root := tr.begin("bench.rep", 0)
		defer tr.end(root)
		w := startWatch()
		var (
			rt  auditTimes
			tot simTotals
		)
		for _, c := range auditCells(seeds[len(rounds)%len(seeds)]) {
			res, rep, times, err := auditOne(tr, root, c, path(c))
			if err != nil {
				return lap{}, err
			}
			rt.export += times.export
			rt.read += times.read
			rt.check += times.check
			rt.ops += times.ops
			rt.instrs += float64(res.Config.Procs * res.Config.Work)
			tot.add(res)
			r.checkAudit(c, res, rep)
			if want, ok := hashes[c]; ok {
				r.check(res.DeterminismHash() == want, "audit %s/%s seed %d: hash %016x, first round %016x", c.app, c.model, c.seed, res.DeterminismHash(), want)
			} else {
				hashes[c] = res.DeterminismHash()
			}
		}
		rounds = append(rounds, rt)
		last = tot
		return w.lap(), nil
	}
	reps, err := r.measure(progSeeds, rep)
	if err != nil {
		return err
	}
	if err := r.setPeakRSS(); err != nil {
		return err
	}
	r.set("cpu_s", median(reps), "s")
	var rates, sims []float64
	for _, rt := range rounds {
		rates = append(rates, float64(rt.ops)/(rt.read+rt.check).Seconds())
		sims = append(sims, rt.instrs/rt.export)
	}
	r.set("audit.ops_per_s", median(rates), "ops/s")
	// The simulation rate with both observers on, history export included.
	r.set("sim_instr_per_cpu_s", median(sims), "instr/s")
	r.notes["audit.ops_per_round"] = rounds[0].ops
	if exp, ok := r.recorded(); ok {
		ids := make(map[cellID]uint64, len(hashes))
		for c, h := range hashes {
			ids[c.id()] = h
		}
		r.check(hashFold(ids) == exp.auditFold, "audit: cell hash fold %016x, recorded %016x", hashFold(ids), exp.auditFold)
	}

	// Exporting a history must not perturb the run: the same program on a
	// Runner with no observers reproduces each cell's hash.
	// These serial runs on one warm Runner give the core layer metrics.
	runner := bulksc.NewRunner()
	var spanNs, loopNs []int64
	for c, h := range hashes {
		t0 := time.Now()
		res, err := runner.RunProgram(auditConfig(c), progs[auditProgram{c.app, c.seed}])
		spanNs = append(spanNs, time.Since(t0).Nanoseconds())
		if err != nil {
			return fmt.Errorf("audit reference %s/%s: %w", c.app, c.model, err)
		}
		r.check(res.DeterminismHash() == h, "audit %s/%s seed %d: unobserved hash %016x, exported %016x",
			c.app, c.model, c.seed, res.DeterminismHash(), h)
		loopNs = append(loopNs, res.WallNs)
	}
	r.setCore(spanNs, loopNs, progSeeds)

	if r.traced {
		n := len(r.tracedReps)
		traced := rounds[len(rounds)-n:]
		var reads, checks []float64
		for _, rt := range traced {
			reads = append(reads, rt.read.Seconds())
			checks = append(checks, rt.check.Seconds())
		}
		r.setSim(&last)
		gen := 0.0
		for _, app := range auditApps {
			t0 := time.Now()
			sp := r.tr.begin("bulksc.GenerateProgram", 0)
			_, err := bulksc.GenerateProgram(app, bulksc.DefaultConfig(app).Procs, auditWork, seeds[0])
			r.tr.end(sp)
			if err != nil {
				return err
			}
			gen += time.Since(t0).Seconds()
		}
		r.set("workload.gen_s", gen, "s")
		r.set("history.read_s", median(reads), "s")
		r.set("gk.check_s", median(checks), "s")
		cells := auditCells(seeds[0])
		peak, err := checkPeakHeap(cells, path)
		if err != nil {
			return err
		}
		r.set("gk.check_peak_heap_mb", peak, "MB")
		return r.observerPairs(cells[0], progs[auditProgram{cells[0].app, seeds[0]}], path(cells[0]))
	}
	return nil
}

// auditOne exports one cell's history to path with experiments.TraceRun,
// then reads and checks it.
func auditOne(tr *tracer, parent int, c auditCell, path string) (*bulksc.Result, *gk.Report, auditTimes, error) {
	var t auditTimes
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, t, err
	}
	w := bufio.NewWriter(f)
	sw := startWatch()
	sp := tr.begin("experiments.TraceRun", parent)
	res, err := experiments.TraceRun(experiments.Params{Work: auditWork, Seed: c.seed}, c.app, c.model, w)
	tr.end(sp)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	t.export = sw.lap().cpu
	if err != nil {
		return nil, nil, t, fmt.Errorf("audit export %s/%s: %w", c.app, c.model, err)
	}

	h, rt, err := readHistory(tr, parent, path)
	if err != nil {
		return nil, nil, t, err
	}
	t.read = rt
	t0 := time.Now()
	sp = tr.begin("gk.Check", parent)
	rep := gk.Check(h, gk.Options{})
	tr.end(sp)
	t.check = time.Since(t0)
	t.ops = h.Ops()
	return res, rep, t, nil
}

func readHistory(tr *tracer, parent int, path string) (*history.History, time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	t0 := time.Now()
	sp := tr.begin("history.Read", parent)
	h, err := history.Read(bufio.NewReader(f))
	tr.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("read %s: %w", path, err)
	}
	return h, time.Since(t0), nil
}

// checkAudit records one cell's verdicts: the online checkers must be
// clean, and the offline checker must agree with the online witness on
// the verdict and on how many chunks and accesses it examined.
func (r *run) checkAudit(c auditCell, res *bulksc.Result, rep *gk.Report) {
	r.check(len(res.WitnessViolations) == 0, "audit %s/%s: witness: %v", c.app, c.model, res.WitnessViolations)
	r.check(len(res.SCViolations) == 0, "audit %s/%s: SC replay: %v", c.app, c.model, res.SCViolations)
	r.check(rep.Ok(), "audit %s/%s: offline checker: %v", c.app, c.model, rep.Strings())
	r.check(rep.Chunks() == res.WitnessChunks && rep.Accesses() == res.WitnessAccesses,
		"audit %s/%s: offline checked %d chunks / %d accesses, witness %d / %d",
		c.app, c.model, rep.Chunks(), rep.Accesses(), res.WitnessChunks, res.WitnessAccesses)
	r.check(res.WitnessChunks+int(res.WitnessAccesses) > 0, "audit %s/%s: witness examined nothing", c.app, c.model)
}

// checkPeakHeap returns the largest heap growth across one gk.Check of
// each history, measured with the collector paused so that everything the
// check allocates is still counted when it returns.
func checkPeakHeap(cells []auditCell, path func(auditCell) string) (float64, error) {
	peak := 0.0
	for _, c := range cells {
		h, _, err := readHistory(nil, 0, path(c))
		if err != nil {
			return 0, err
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		old := debug.SetGCPercent(-1)
		gk.Check(h, gk.Options{})
		runtime.ReadMemStats(&m1)
		debug.SetGCPercent(old)
		peak = max(peak, float64(m1.HeapAlloc-m0.HeapAlloc)/(1<<20))
	}
	return peak, nil
}

// observerPairs times one audit cell with its observers toggled: neither,
// the online witness alone, and the witness plus history export (what
// TraceRun runs). The SC replay checker stays off in all three. The
// differences of the medians are the observers' costs.
func (r *run) observerPairs(c auditCell, prog *bulksc.Program, path string) error {
	const reps = 7
	var times [3][]float64 // no observers; the witness; the witness and export
	for i := 0; i < reps; i++ {
		for mode := range times {
			cfg := auditConfig(c)
			cfg.CheckSC = false
			cfg.Witness = mode > 0
			var f *os.File
			var w *bufio.Writer
			if mode == 2 {
				var err error
				if f, err = os.Create(path); err != nil {
					return err
				}
				w = bufio.NewWriter(f)
				cfg.TraceWriter = w
			}
			t0 := time.Now()
			_, err := bulksc.RunProgram(cfg, prog)
			if w != nil {
				err = errors.Join(err, w.Flush(), f.Close())
			}
			if err != nil {
				return fmt.Errorf("observer pair: %w", err)
			}
			times[mode] = append(times[mode], time.Since(t0).Seconds())
		}
	}
	r.set("observer.witness_s", median(times[1])-median(times[0]), "s")
	r.set("observer.trace_s", median(times[2])-median(times[1]), "s")
	return nil
}

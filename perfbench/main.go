// Command perfbench is the repository's benchmark. It drives the
// simulator, the Figure 9 fan-out, the sweep service and the offline SC
// checker through their public functions, times each call from outside,
// checks every output, and prints one JSON result line:
//
//	perfbench -workload fig9 -seed 1 -seconds 10 -trace 0
//
// -trace 0 prints the end-to-end metrics; -trace 1 is a separate run that
// records a span around every public call, CPU-profiles the process, and
// prints the per-layer metrics. README.md describes the workloads and
// metrics; run.sh builds and runs it from a checkout.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// progSeeds is how many programs scale256 and audit cycle through, with
// simulation seeds derived from the workload seed. What a cell simulates,
// and so how long it takes, depends on its program; cycling through a few
// keeps one unlucky program from moving a run's medians.
const progSeeds = 3

// progSeedsOf returns the simulation seeds derived from a workload seed.
func progSeedsOf(seed int64) []int64 {
	seeds := make([]int64, progSeeds)
	for i := range seeds {
		seeds[i] = seed*progSeeds + int64(i)
	}
	return seeds
}

// setupReps is how many times a workload sets up; setup_s is the median.
const setupReps = 9

// runDeadline bounds one invocation. A simulation that never finishes (a
// livelocked cell the liveness watchdog misses) ends the run with an
// error instead of hanging it.
const runDeadline = 170 * time.Second

// maxProcs caps GOMAXPROCS, sweep workers, sweepd pool workers and client
// connections, so every workload loads the host the same way on any
// machine with at least this many CPUs.
const maxProcs = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one benchmark invocation threads through a workload.
type run struct {
	seed    int64
	budget  time.Duration
	traced  bool
	workdir string
	procs   int // sweep / pool / connection width

	tr   *tracer // nil outside the traced phases of a traced run
	prof bytes.Buffer
	// A traced run times the same unit of work in three phases: untraced,
	// with spans, and with spans and the CPU profiler. untracedReps and
	// spanReps give the tracing overhead; tracedReps holds every traced
	// repetition (spanReps, then the profiled ones).
	untracedReps, spanReps, tracedReps []float64

	mu                sync.Mutex // guards the check counters for parallel verifiers
	attempted, failed int
	failures          []string

	metrics map[string]metric
	notes   map[string]any // printed on the context line, not gated
}

// check counts one correctness check; a false ok is a failure.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd names the metrics an untraced run reports (BENCHMARK.json's
// end_to_end list) and perLayer those a traced run reports (its per_layer
// list). Every workload reports every one of them; whatever else a
// workload measures goes on the context line.
var endToEnd = []string{"setup_s", "cpu_s", "sim_instr_per_cpu_s", "peak_rss_mb"}

var perLayer = []string{
	"fail_frac", "trace.overhead_frac",
	"workload.gen_s", "core.reset_ms_per_cell", "core.loop_s",
	"sim.events", "sim.ns_per_event",
	"chunk.useful_frac", "bdm.squashes_true", "sig.squashes_aliased", "proc.read_bounces",
	"arbiter.grant_frac", "arbiter.avg_pending_w", "arbiter.garb_txn", "arbiter.garb_queued", "arbiter.garb_queue_cycles",
	"directory.lookups_per_commit", "directory.useful_lookup_frac", "sharerset.nodes_per_wsig",
	"cache.l1_hit_frac", "cache.l2_hit_frac", "cache.writebacks",
	"network.msgs_per_kinstr", "network.bytes_per_instr",
	"runtime.alloc_mb", "runtime.allocs", "runtime.gc_cycles", "runtime.gc_pause_ms",
	"host.sim_frac", "host.cache_frac", "host.directory_frac", "host.arbiter_frac", "host.bulk_frac",
	"host.check_frac", "host.service_frac", "host.gc_frac", "host.other_frac", "host.samples",
}

type workload struct {
	run func(*run) error
	// tabled workloads simulate from the seed alone, so their simulated
	// outcomes are checked against expected_table.go; see tableSeed.
	tabled bool
}

var workloads = map[string]workload{
	"fig9":     {runFig9, true},
	"scale256": {runScale256, true},
	"svc-mix":  {runSvcMix, false},
	"audit":    {runAudit, true},
}

// tableSeeds is how many workload seeds expected_table.go records.
const tableSeeds = 64

// tableSeed folds a workload seed into 1..tableSeeds, leaving those seeds
// as they are. A tabled workload simulates from the folded seed, so every
// run, whatever its seed, has recorded values to reproduce.
func tableSeed(seed int64) int64 {
	return 1 + ((seed-1)%tableSeeds+tableSeeds)%tableSeeds
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: fig9, scale256, svc-mix or audit")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "measurement time per run")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		workdir = flag.String("workdir", ".bench_build/work", "scratch directory for histories, spans and profiles")
		table   = flag.String("expected-table", "", "`first-last`: print expected_table.go for those seeds and exit")
	)
	flag.Parse()
	if *table != "" {
		var first, last int64
		if _, err := fmt.Sscanf(*table, "%d-%d", &first, &last); err != nil || first > last {
			fmt.Fprintln(os.Stderr, "perfbench: -expected-table wants first-last, e.g. 1-20")
			os.Exit(2)
		}
		runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
		if err := writeExpectedTable(os.Stdout, first, last, min(runtime.NumCPU(), maxProcs)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds ≥ 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	die := func(err error) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		die(err)
	}
	procs := min(runtime.NumCPU(), maxProcs)
	runtime.GOMAXPROCS(procs)
	time.AfterFunc(runDeadline, func() {
		die(fmt.Errorf("still running after %v: a cell or request does not finish", runDeadline))
	})

	r := &run{
		seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		workdir: *workdir, procs: procs,
		metrics: make(map[string]metric), notes: make(map[string]any),
	}
	if w.tabled {
		r.seed = tableSeed(*seed)
		r.notes["sim_seed"] = r.seed
	}
	steal0, total0 := cpuSteal()
	err := w.run(r)
	if steal1, total1 := cpuSteal(); total1 > total0 {
		// Time the hypervisor ran something else on this machine's CPUs:
		// the main source of run-to-run noise on a shared virtual machine.
		r.notes["host_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	if err == nil && r.traced {
		err = r.finishTrace(fmt.Sprintf("%s-seed%d", *wl, *seed))
	}
	if err != nil {
		die(err)
	}
	if r.traced {
		r.set("fail_frac", frac(float64(r.failed), float64(r.attempted)), "frac")
	}
	// The result line carries exactly the mode's list; every other
	// measurement goes on the context line.
	listed := endToEnd
	if r.traced {
		listed = perLayer
	}
	reported := make(map[string]metric, len(listed))
	for _, name := range listed {
		m, ok := r.metrics[name]
		if !ok {
			die(fmt.Errorf("did not measure %s", name))
		}
		reported[name] = m
		delete(r.metrics, name)
	}
	if len(r.metrics) > 0 {
		r.notes["metrics"] = r.metrics
	}
	r.metrics = reported
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}

	r.notes["workload"] = *wl
	r.notes["seed"] = *seed
	r.notes["seconds"] = *seconds
	r.notes["trace"] = *trace
	r.notes["num_cpu"] = runtime.NumCPU()
	r.notes["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.notes["go_version"] = runtime.Version()
	ctx, err := json.Marshal(map[string]any{"context": r.notes})
	if err != nil {
		die(err)
	}
	fmt.Println(string(ctx))

	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			die(fmt.Errorf("metric %s is %v", name, m.Value))
		}
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %16s %s\n", n, strconv.FormatFloat(r.metrics[n].Value, 'g', -1, 64), r.metrics[n].Unit)
	}
	out, err := json.Marshal(result{
		Correct: r.failed == 0 && r.attempted > 0, Attempted: max(r.attempted, 1), Failed: r.failed,
		Metrics: r.metrics,
	})
	if err != nil {
		die(err)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// stopwatch reads the wall clock and the process's CPU time (user plus
// system, every thread) together. The end-to-end timings are CPU seconds:
// CPU time leaves out the time the hypervisor ran other guests on this
// machine's CPUs (steal) and time spent waiting for a CPU, so it moves
// less than wall time with the load other guests put on a shared machine.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

// lap is a stopwatch reading: seconds since it started.
type lap struct{ wall, cpu float64 }

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

func (w stopwatch) lap() lap {
	return lap{time.Since(w.wall).Seconds(), (cpuTime() - w.cpu).Seconds()}
}

// cpuTime returns the CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure repeats one unit of work until the run's budget is spent (and
// at least minReps times), returning each repetition's CPU seconds. A traced
// run splits the budget in three: untraced, with spans, and with spans
// and the CPU profiler. The first two give the tracing overhead without
// the profiler's cost; it returns the traced repetitions and reports the
// Go runtime's work per traced repetition.
func (r *run) measure(minReps int, rep func(tr *tracer) (lap, error)) ([]float64, error) {
	var walls []float64
	loop := func(budget time.Duration, tr *tracer) ([]float64, error) {
		var ts []float64
		t0 := time.Now()
		for len(ts) < minReps || time.Since(t0) < budget {
			// Collect the previous repetition's garbage (a whole machine,
			// for some workloads) outside the timed part, so the peak RSS
			// is one repetition's and not the collector's timing.
			runtime.GC()
			l, err := rep(tr)
			if err != nil {
				return nil, err
			}
			ts, walls = append(ts, l.cpu), append(walls, l.wall)
		}
		return ts, nil
	}
	if !r.traced {
		ts, err := loop(r.budget, nil)
		r.notes["reps_cpu_s"], r.notes["reps_wall_s"] = ts, walls
		r.notes["wall_s"] = median(walls)
		return ts, err
	}
	var err error
	if r.untracedReps, err = loop(r.budget/3, nil); err != nil {
		return nil, err
	}
	r.tr = newTracer()
	mem0 := readMem()
	if r.spanReps, err = loop(r.budget/3, r.tr); err != nil {
		return nil, err
	}
	if err := r.startProfile(); err != nil {
		return nil, err
	}
	profiled, err := loop(r.budget/3, r.tr)
	r.stopProfile()
	r.tracedReps = append(append([]float64(nil), r.spanReps...), profiled...)
	r.setRuntime(mem0, readMem(), len(r.tracedReps))
	return r.tracedReps, err
}

// startProfile starts the CPU profiler; stopProfile stops it.
func (r *run) startProfile() error {
	if err := pprof.StartCPUProfile(&r.prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

func (r *run) stopProfile() { pprof.StopCPUProfile() }

// finishTrace writes the spans and the profile, and adds the tracing
// overhead, the layer self times and the host-time buckets to the metrics.
func (r *run) finishTrace(tag string) error {
	if r.tr == nil {
		return fmt.Errorf("traced run recorded no spans")
	}
	profile := r.prof.Bytes()
	if len(r.untracedReps) > 0 && len(r.spanReps) > 0 {
		r.set("trace.overhead_frac", median(r.spanReps)/median(r.untracedReps)-1, "frac")
	}
	if err := r.tr.write(filepath.Join(r.workdir, "spans-"+tag+".json")); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(filepath.Join(r.workdir, "cpu-"+tag+".pprof"), profile, 0o644); err != nil {
		return fmt.Errorf("write profile: %w", err)
	}
	for layer, s := range r.tr.selfTimes() {
		r.set("self."+layer+"_s", s, "s")
	}
	samples, err := decodeProfile(profile)
	if err != nil {
		return err
	}
	byBucket, total := bucketSamples(samples, 0)
	for _, b := range layerBuckets {
		r.set("host."+b+"_frac", frac(float64(byBucket[b]), float64(total)), "frac")
	}
	r.set("host.samples", float64(total), "count")
	return nil
}

// cpuSteal returns the steal and total CPU time counters from /proc/stat
// (zeros where the file is unavailable).
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// setPeakRSS records peak_rss_mb; call it when the measured phase ends,
// before any verification pass that could raise the peak.
func (r *run) setPeakRSS() error {
	mb, err := peakRSSMB()
	if err != nil {
		return fmt.Errorf("peak rss: %w", err)
	}
	r.set("peak_rss_mb", mb, "MB")
	return nil
}

// setupTimes runs setup k times, each after a garbage collection and
// followed by teardown (when not nil) outside the timed part, and returns
// the median CPU seconds. The callers keep the last setup's state.
func setupTimes(k int, setup func() error, teardown func() error) (float64, error) {
	var ts []float64
	for i := 0; i < k; i++ {
		runtime.GC()
		w := startWatch()
		if err := setup(); err != nil {
			return 0, err
		}
		ts = append(ts, w.lap().cpu)
		if teardown != nil && i < k-1 {
			if err := teardown(); err != nil {
				return 0, err
			}
		}
	}
	return median(ts), nil
}

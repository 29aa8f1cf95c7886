package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sync"
	"time"

	"bulksc"
	"bulksc/experiments"
	"bulksc/internal/sweepsrv"
)

// The svc-mix traffic: an open loop of small sweep requests against an
// in-process sweepd with its default pool and queue. README.md gives the
// measurements behind the rate, the repeat window and the latency limit.
const (
	// svcRate keeps the two-worker pool about 18% busy
	// (sweepsrv.busy_frac): loaded enough that repeats meet their
	// original in flight, light enough that latency is service time
	// rather than queueing, which host noise would amplify.
	svcRate   = 60.0
	svcRepeat = 0.3 // share of requests that repeat one of the last few keys
	// svcRecent is how many recent distinct keys a repeat picks from:
	// about 0.1 s of fresh arrivals, a few execution times, so some
	// repeats arrive while the original is queued or running.
	svcRecent = 4
	// svcLimit is the latency limit behind svc.goodput_rps: a request
	// counts when its result is in hand within this time of being due.
	// It is the measured p95 execution time of a job (about 25 ms), so a
	// request is on time when it waited for nothing much.
	svcLimit = 30 * time.Millisecond
	// svcInflight bounds the client goroutines waiting on requests; the
	// server's queue (16) plus its workers fit well inside it.
	svcInflight = 64
	// svcTimeout bounds one request from submission to result. A request
	// that misses it fails (a job that hangs must not hang the run).
	svcTimeout = 10 * time.Second
	// svcSeedSpace is the range fresh requests draw simulation seeds
	// from; svcWarmSeed seeds the set-up jobs, beyond every request seed.
	svcSeedSpace = 1 << 20
	svcWarmSeed  = 1 << 21
)

// svcExps are the experiments the mix draws from: the ones the service's
// own load test (sweepsrv.RunLoadTest) sends, each small enough that many
// fit in one run.
var svcExps = []string{"fig9", "fig10", "table4", "fig11", "scaling"}

// svcWorks are the per-thread works a request asks for.
var svcWorks = []int{1000, 2000}

// svcApps is every application except fft, lu and radix. Their
// generators have a minimum problem size, so at any small work one of
// their requests costs up to 85 ms against a few ms for the rest; fig9 and
// scale256 cover them.
func svcApps() []string {
	var apps []string
	for _, a := range bulksc.Apps() {
		if a != "fft" && a != "lu" && a != "radix" {
			apps = append(apps, a)
		}
	}
	return apps
}

// svcRequests generates n requests from seed. Fresh requests walk a
// seeded permutation of the request shapes (experiment × application ×
// work), each with a fresh simulation seed, so seeds differ in order,
// timing and programs but not in how much work the run carries. A fixed
// share instead repeats one of the last few distinct keys, so repeats
// arrive both while the original is still queued or running and after it
// has been cached.
func svcRequests(seed int64, n int) []sweepsrv.Request {
	rng := rand.New(rand.NewSource(seed))
	var shapes []sweepsrv.Request
	for _, exp := range svcExps {
		for _, app := range svcApps() {
			for _, work := range svcWorks {
				req := sweepsrv.Request{Exp: exp, Apps: []string{app}, Work: work}
				if exp == "scaling" {
					req.Procs = []int{8, 16}
				}
				shapes = append(shapes, req)
			}
		}
	}
	rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	var out, recent []sweepsrv.Request
	used := make(map[int64]bool)
	for next := 0; len(out) < n; {
		if len(recent) > 0 && rng.Float64() < svcRepeat {
			out = append(out, recent[rng.Intn(len(recent))])
			continue
		}
		req := shapes[next%len(shapes)]
		req.Seed = 1 + rng.Int63n(svcSeedSpace)
		if used[req.Seed] { // keep every fresh key distinct
			continue
		}
		used[req.Seed] = true
		next++
		out = append(out, req)
		recent = append(recent, req)
		if len(recent) > svcRecent {
			recent = recent[1:]
		}
	}
	return out
}

// svcCall is one request's life as the client saw it.
type svcCall struct {
	req      sweepsrv.Request
	key      string
	hit      bool
	due      time.Time
	sent     time.Time // connection acquired: the request left the generator
	accepted time.Time // POST response read
	running  time.Time // "running" status event seen (zero for cache hits)
	finished time.Time // terminal event seen
	complete time.Time // result bytes in hand
	result   []byte    // compacted JobOutput JSON
	err      error
}

// svcRun is one open-loop run against a fresh server.
type svcRun struct {
	calls   []*svcCall
	span    time.Duration
	cpu     float64 // CPU seconds of the process, client side included
	metrics sweepsrv.Metrics
	mem0    memSample
	mem1    memSample
}

// svcServer is the service under test behind a real HTTP listener, and
// the client that talks to it over at most run.procs connections.
type svcServer struct {
	srv    *sweepsrv.Server
	hs     *http.Server
	base   string
	client *http.Client
	// warmCells counts the cells the warm-up jobs executed, so the
	// open loop's own cell count can be told apart.
	warmCells uint64
}

// startServer builds the service and its HTTP front end, then runs one
// small job per pool worker: the first job on a worker builds its machine
// arena, which belongs to set-up rather than to the first requests timed.
func startServer(tr *tracer, parent int, r *run) (*svcServer, error) {
	sp := tr.begin("sweepsrv.NewServer", parent)
	srv := sweepsrv.NewServer(sweepsrv.Config{Workers: r.procs})
	tr.end(sp)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background()) //nolint:errcheck // nothing queued yet
		return nil, err
	}
	s := &svcServer{
		srv: srv, base: "http://" + ln.Addr().String(),
		hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: r.procs, MaxIdleConnsPerHost: r.procs,
		}},
	}
	go s.hs.Serve(ln) //nolint:errcheck // returns http.ErrServerClosed at stop

	// Warm-up seeds lie outside the range svcRequests draws from, so the
	// warm-up never fills the cache for a timed request.
	var wg sync.WaitGroup
	errs := make([]error, r.procs)
	for i := 0; i < r.procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &svcCall{req: sweepsrv.Request{Exp: "table4", Apps: []string{"radix"}, Work: 1000, Seed: svcWarmSeed + int64(i)}}
			errs[i] = svcDo(tr, parent, s, c)
		}(i)
	}
	wg.Wait()
	s.warmCells = srv.MetricsSnapshot().CellsExecuted
	if err := errors.Join(errs...); err != nil {
		s.stop(tr, parent) //nolint:errcheck // already failing
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// stop shuts the service down. Running jobs drain; a job that has not
// finished within svcTimeout (one that hangs) makes it return an error.
func (s *svcServer) stop(tr *tracer, parent int) error {
	ctx, cancel := context.WithTimeout(context.Background(), svcTimeout)
	defer cancel()
	sp := tr.begin("Server.Shutdown", parent)
	err := s.srv.Shutdown(ctx)
	tr.end(sp)
	s.client.CloseIdleConnections()
	return errors.Join(err, s.hs.Shutdown(ctx))
}

// openLoop sends reqs at their due times against s, waits for every
// result and stops the server.
func openLoop(tr *tracer, r *run, s *svcServer, reqs []sweepsrv.Request, span time.Duration) (*svcRun, error) {
	root := tr.begin("bench.svc", 0)
	defer tr.end(root)
	out := &svcRun{span: span}

	offsets := arrivals(rand.New(rand.NewSource(r.seed)), len(reqs), span)
	sem := make(chan struct{}, svcInflight)
	var wg sync.WaitGroup
	out.mem0 = readMem()
	w := startWatch()
	start := w.wall
	for i, req := range reqs {
		c := &svcCall{req: req, due: start.Add(offsets[i])}
		out.calls = append(out.calls, c)
		time.Sleep(time.Until(c.due))
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			c.err = svcDo(tr, root, s, c)
		}()
	}
	wg.Wait()
	out.cpu = w.lap().cpu
	out.mem1 = readMem()

	resp, err := s.client.Get(s.base + "/metrics")
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&out.metrics)
		resp.Body.Close()
	}
	if err != nil {
		s.stop(tr, root) //nolint:errcheck // already failing
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	out.metrics.CellsExecuted -= s.warmCells
	sp := tr.begin("Server.MetricsSnapshot", root)
	snap := s.srv.MetricsSnapshot()
	tr.end(sp)
	r.check(snap.CellsExecuted == out.metrics.CellsExecuted+s.warmCells,
		"svc: /metrics cells_executed %d, MetricsSnapshot %d", out.metrics.CellsExecuted+s.warmCells, snap.CellsExecuted)
	err = s.stop(tr, root)
	r.check(err == nil, "svc: shutdown: %v", err)
	return out, nil
}

// svcDo submits one request, follows its job to a terminal state and
// fetches the result, all within svcTimeout.
func svcDo(tr *tracer, parent int, s *svcServer, c *svcCall) error {
	body, err := json.Marshal(c.req)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), svcTimeout)
	defer cancel()
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) {
			if c.sent.IsZero() {
				c.sent = time.Now()
			}
		},
	})
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/sweep", bytes.NewReader(body))
	if err != nil {
		return err
	}
	sp := tr.begin("Server.Handler", parent)
	resp, err := s.client.Do(hreq)
	if err != nil {
		tr.end(sp)
		return fmt.Errorf("POST /sweep: %w", err)
	}
	var sub sweepsrv.SubmitResponse
	derr := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	tr.end(sp)
	c.accepted = time.Now()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /sweep: status %d", resp.StatusCode)
	}
	if derr != nil {
		return fmt.Errorf("POST /sweep: %w", derr)
	}
	c.key, c.hit = sub.Key, sub.Cache == "hit"
	if !c.hit {
		// Follow the job's event stream in process: the stream's own
		// connection would otherwise count against the client's two.
		sp := tr.begin("Server.Handler", parent)
		w := &eventWriter{call: c, header: http.Header{}}
		s.srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stream/"+sub.ID+"?format=ndjson", nil).WithContext(ctx))
		tr.end(sp)
		if w.err != nil {
			return w.err
		}
		if c.finished.IsZero() {
			return fmt.Errorf("job %s: no terminal event within %v", sub.ID, svcTimeout)
		}
	} else {
		c.finished = c.accepted
	}
	sp = tr.begin("Server.Handler", parent)
	hreq, err = http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/result/"+sub.ID, nil)
	if err == nil {
		resp, err = s.client.Do(hreq)
	}
	if err != nil {
		tr.end(sp)
		return fmt.Errorf("GET /result: %w", err)
	}
	var env sweepsrv.ResultEnvelope
	derr = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	tr.end(sp)
	c.complete = time.Now()
	if derr != nil {
		return fmt.Errorf("GET /result: %w", derr)
	}
	if env.Status != sweepsrv.StatusDone {
		return fmt.Errorf("job %s ended %s: %s", sub.ID, env.Status, env.Error)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.Result); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	c.result = compact.Bytes()
	return nil
}

// eventWriter is the ResponseWriter behind an in-process /stream call. It
// timestamps the job's lifecycle events as the handler writes them; the
// handler writes one NDJSON event per Write.
type eventWriter struct {
	call   *svcCall
	header http.Header
	err    error
}

func (w *eventWriter) Header() http.Header { return w.header }
func (w *eventWriter) WriteHeader(int)     {}
func (w *eventWriter) Flush()              {}

func (w *eventWriter) Write(b []byte) (int, error) {
	now := time.Now()
	var ev sweepsrv.Event
	if err := json.Unmarshal(b, &ev); err != nil {
		w.err = fmt.Errorf("stream event %q: %w", b, err)
		return len(b), nil
	}
	switch {
	case ev.Event == "status" && ev.Status == sweepsrv.StatusRunning:
		w.call.running = now
	case ev.Event == "done":
		w.call.finished = now
	}
	return len(b), nil
}

// runSvcMix measures request latency through the sweep service under an
// open loop whose arrival schedule and request mix come from the seed.
func runSvcMix(r *run) error {
	// At least 200 requests, so that p95 has 10 samples beyond it even in
	// a short run.
	n := max(int(svcRate*r.budget.Seconds()), 200)
	reqs := svcRequests(r.seed, n)

	// Set-up is a server start with its warm-up jobs; the last server
	// serves the run.
	var srv *svcServer
	setup, err := setupTimes(setupReps, func() error {
		var err error
		srv, err = startServer(nil, 0, r)
		return err
	}, func() error { return srv.stop(nil, 0) })
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	r.set("setup_s", setup, "s")

	if r.traced {
		// The same schedule three times, a third of the budget each:
		// untraced, with spans, and with spans and the CPU profiler, each
		// on a fresh server. The first two give the tracing overhead, the
		// last the service's layer metrics.
		third := reqs[:n/3]
		var runs [3]*svcRun
		for phase := range runs {
			if phase > 0 {
				if phase == 1 {
					r.tr = newTracer()
				} else if err := r.startProfile(); err != nil {
					return err
				}
				if srv, err = startServer(r.tr, 0, r); err != nil {
					return err
				}
			}
			runs[phase], err = openLoop(r.tr, r, srv, third, r.budget/3)
			if err != nil {
				return err
			}
		}
		r.stopProfile()
		r.untracedReps = []float64{median(latencies(runs[0].calls))}
		r.spanReps = []float64{median(latencies(runs[1].calls))}
		for phase, run := range runs {
			if err := r.verifySvc(run, phase == len(runs)-1); err != nil {
				return err
			}
		}
		return nil
	}

	run, err := openLoop(nil, r, srv, reqs, r.budget)
	if err != nil {
		return err
	}
	if err := r.setPeakRSS(); err != nil {
		return err
	}
	lat := latencies(run.calls)
	// A request is the unit of work here.
	r.set("cpu_s", run.cpu/float64(len(run.calls)), "s")
	p50, _ := percentile(lat, 50)
	r.set("svc.p50_ms", p50*1e3, "ms")
	p95, beyond, ok := tailPercentile(lat, 95, 10)
	r.check(ok, "svc: %d samples cannot support a p95 (%d beyond it)", len(lat), beyond)
	r.set("svc.p95_ms", p95*1e3, "ms")
	good := 0
	for _, c := range run.calls {
		if c.err == nil && c.complete.Sub(c.due) <= svcLimit {
			good++
		}
	}
	r.set("svc.goodput_rps", float64(good)/run.span.Seconds(), "1/s")
	r.notes["svc.samples"] = len(lat)
	r.notes["svc.p95_beyond"] = beyond
	r.notes["svc.latency_limit_ms"] = svcLimit.Milliseconds()
	return r.verifySvc(run, false)
}

// latencies returns each successful request's time from due to result in
// hand, in seconds. A failed request has no latency; it is counted by the
// correctness checks and misses the goodput limit.
func latencies(calls []*svcCall) []float64 {
	var out []float64
	for _, c := range calls {
		if c.err == nil {
			out = append(out, c.complete.Sub(c.due).Seconds())
		}
	}
	return out
}

// verifySvc checks every request's outcome: each executed job's result
// must equal a direct experiments run of the same canonical request, and
// every cache hit must repeat the executed bytes exactly. With layers set,
// it also derives the service's per-layer metrics.
func (r *run) verifySvc(run *svcRun, layers bool) error {
	executed := make(map[string][][]byte) // key → bytes of each execution
	reqOf := make(map[string]sweepsrv.Request)
	var order []string
	for _, c := range run.calls {
		r.check(c.err == nil, "svc %s %v: %v", c.req.Exp, c.req.Apps, c.err)
		if c.err != nil || c.hit {
			continue
		}
		if _, ok := executed[c.key]; !ok {
			reqOf[c.key] = c.req
			order = append(order, c.key)
		}
		executed[c.key] = append(executed[c.key], c.result)
	}
	// Direct runs, one per executed key, on r.procs warm workers.
	runs := make([]directRun, len(order))
	errs := make([]error, len(order))
	workers := make(chan *experiments.Worker, r.procs)
	for i := 0; i < r.procs; i++ {
		workers <- experiments.NewWorker()
	}
	var (
		mu  sync.Mutex
		tot simTotals
	)
	forEachParallel(r.procs, len(order), func(i int) {
		w := <-workers
		defer func() { workers <- w }()
		runs[i], errs[i] = directOutput(reqOf[order[i]], w, func(res *bulksc.Result) {
			mu.Lock()
			defer mu.Unlock()
			tot.add(res)
		})
	})
	ref := make(map[string]directRun, len(order))
	for i, key := range order {
		if errs[i] != nil {
			return fmt.Errorf("direct run of %s: %w", reqOf[key].Exp, errs[i])
		}
		ref[key] = runs[i]
	}
	for _, c := range run.calls {
		if c.err != nil {
			continue
		}
		if c.hit {
			// A hit replays the bytes of one execution of its key exactly
			// (the latest, when a key executed more than once).
			same := false
			for _, b := range executed[c.key] {
				same = same || bytes.Equal(c.result, b)
			}
			r.check(same, "svc: cache hit for %s %v is not byte-identical to an execution", c.req.Exp, c.req.Apps)
			continue
		}
		r.check(sameOutput(c.req.Exp, c.result, ref[c.key].out), "svc: %s %v result differs from a direct experiments run", c.req.Exp, c.req.Apps)
	}
	r.check(run.metrics.RejectedBusy == 0, "svc: %d requests refused with 429", run.metrics.RejectedBusy)

	var queue, exec []float64
	busy := 0.0   // seconds the pool spent running jobs
	instrs := 0.0 // simulated instructions of the jobs it ran
	var lag lagLog
	hits := 0
	for _, c := range run.calls {
		if !c.sent.IsZero() {
			lag.record(c.due, c.sent)
		}
		if c.err != nil {
			continue
		}
		if c.hit {
			hits++
			continue
		}
		if !c.running.IsZero() {
			queue = append(queue, max(c.running.Sub(c.accepted).Seconds(), 0))
			exec = append(exec, c.finished.Sub(c.running).Seconds())
			busy += c.finished.Sub(c.running).Seconds()
			instrs += ref[c.key].instrs
		}
	}
	// Simulated instructions per CPU second of the whole service.
	r.set("sim_instr_per_cpu_s", frac(instrs, run.cpu), "instr/s")
	if !layers {
		return nil
	}
	expected := 0
	for _, key := range order {
		expected += ref[key].cells
	}
	ms := func(xs []float64, p float64) float64 { v, _ := percentile(xs, p); return v * 1e3 }
	r.set("sweepsrv.queue_wait_p50_ms", ms(queue, 50), "ms")
	r.set("sweepsrv.queue_wait_p95_ms", ms(queue, 95), "ms")
	r.set("sweepsrv.exec_p50_ms", ms(exec, 50), "ms")
	r.set("sweepsrv.exec_p95_ms", ms(exec, 95), "ms")
	r.set("sweepsrv.cache_hit_frac", frac(float64(hits), float64(len(run.calls))), "frac")
	r.set("sweepsrv.dup_exec", float64(int(run.metrics.CellsExecuted)-expected), "count")
	r.set("sweepsrv.rejected_429", float64(run.metrics.RejectedBusy), "count")
	r.set("sweepsrv.gen_lag_p95_ms", ms(lag.lags, 95), "ms")
	r.set("sweepsrv.busy_frac", busy/(float64(r.procs)*run.span.Seconds()), "frac")
	r.setRuntime(run.mem0, run.mem1, 1)

	// Program generation for every program the executed requests need,
	// and per-cell reset cost from the direct runs' serial workers.
	gen := 0.0
	seen := make(map[string]bool)
	for _, key := range order {
		req, _ := reqOf[key].Canonicalize()
		procs := []int{8}
		if req.Exp == "scaling" {
			procs = req.Procs
		}
		for _, app := range req.Apps {
			for _, p := range procs {
				id := fmt.Sprintf("%s/%d/%d/%d", app, p, req.Work, req.Seed)
				if seen[id] {
					continue
				}
				seen[id] = true
				t0 := time.Now()
				sp := r.tr.begin("bulksc.GenerateProgram", 0)
				_, err := bulksc.GenerateProgram(app, p, req.Work, req.Seed)
				r.tr.end(sp)
				gen += time.Since(t0).Seconds()
				if err != nil {
					return err
				}
			}
		}
	}
	var spanNs, loopNs []int64
	for _, d := range runs {
		spanNs, loopNs = append(spanNs, d.spanNs...), append(loopNs, d.loopNs...)
	}
	r.set("workload.gen_s", gen, "s")
	r.setCore(spanNs, loopNs, 1)
	r.setSim(&tot)
	return nil
}

// directRun is a request's experiment run directly: the JSON the service
// would store for it, its cells and simulated instructions, and per cell
// the time since the previous cell finished (reset, program lookup and
// simulation) and the simulation loop's share of it.
type directRun struct {
	out            []byte
	cells          int
	instrs         float64
	spanNs, loopNs []int64
}

// directOutput runs a request's experiment directly on w, the way the
// service's pool worker does, passing each cell's result to onResult.
func directOutput(raw sweepsrv.Request, w *experiments.Worker, onResult func(*bulksc.Result)) (directRun, error) {
	var d directRun
	req, err := raw.Canonicalize()
	if err != nil {
		return d, err
	}
	out := sweepsrv.JobOutput{Exp: req.Exp}
	var (
		fold uint64
		prev = time.Now()
	)
	p := experiments.Params{
		Apps: req.Apps, Work: req.Work, Seed: req.Seed, Witness: req.Witness,
		FaultCampaign: req.Faults, FaultSeed: req.FaultSeed, Worker: w,
		OnCell: func(c experiments.Cell) {
			now := time.Now()
			d.spanNs = append(d.spanNs, now.Sub(prev).Nanoseconds())
			d.loopNs = append(d.loopNs, c.Result.WallNs)
			d.instrs += float64(c.Result.Config.Procs * c.Result.Config.Work)
			prev = now
			out.Cells++
			fold ^= cellHash(c)
			onResult(c.Result)
		},
	}
	switch req.Exp {
	case "fig9":
		var rows []experiments.Fig9Row
		if rows, err = experiments.Fig9(p); err == nil {
			out.Rows, out.Table = rows, experiments.FormatFig9(rows)
		}
	case "fig10":
		var rows []experiments.Fig10Row
		if rows, err = experiments.Fig10(p); err == nil {
			out.Rows, out.Table = rows, experiments.FormatFig10(rows)
		}
	case "table4":
		var rows []experiments.Table4Row
		if rows, err = experiments.Table4(p); err == nil {
			out.Rows, out.Table = rows, experiments.FormatTable4(rows)
		}
	case "fig11":
		var rows []experiments.Fig11Row
		if rows, err = experiments.Fig11(p); err == nil {
			out.Rows, out.Table = rows, experiments.FormatFig11(rows)
		}
	case "scaling":
		var points []experiments.ScalingPoint
		if points, err = experiments.Scaling(p, req.Procs); err == nil {
			out.Rows, out.Table = points, experiments.FormatScaling(points)
		}
	default:
		err = fmt.Errorf("experiment %q is not in the mix", req.Exp)
	}
	if err != nil {
		return d, err
	}
	out.Hash = fmt.Sprintf("%016x", fold)
	d.cells = out.Cells
	d.out, err = json.Marshal(out)
	return d, err
}

// cellHash mixes one cell's identity and determinism hash into a word the
// way the service folds a job's hash; job hashes XOR these together.
func cellHash(c experiments.Cell) uint64 {
	return mixCell(c.App, c.Key, c.Result.DeterminismHash())
}

// mixCell is FNV-1a over app, '/', key and the little-endian hash d.
func mixCell(app, key string, d uint64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(b byte) { h ^= uint64(b); h *= prime }
	for i := 0; i < len(app); i++ {
		mix(app[i])
	}
	mix('/')
	for i := 0; i < len(key); i++ {
		mix(key[i])
	}
	for i := 0; i < 8; i++ {
		mix(byte(d >> (8 * i)))
	}
	return h
}

// sameOutput compares a served result with a direct run. Scaling rows
// carry the host's wall time and event rate for each cell (and the table
// prints them), so for scaling those fields and the table are left out;
// the job hash still covers every cell's simulated outcome.
func sameOutput(exp string, got, want []byte) bool {
	if exp != "scaling" {
		return bytes.Equal(got, want)
	}
	strip := func(b []byte) ([]byte, error) {
		var v map[string]any
		if err := json.Unmarshal(b, &v); err != nil {
			return nil, err
		}
		delete(v, "table")
		rows, _ := v["rows"].([]any)
		for _, row := range rows {
			if m, ok := row.(map[string]any); ok {
				delete(m, "WallMs")
				delete(m, "EventsPerSec")
			}
		}
		return json.Marshal(v)
	}
	g, err1 := strip(got)
	w, err2 := strip(want)
	return err1 == nil && err2 == nil && bytes.Equal(g, w)
}

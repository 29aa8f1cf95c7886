// Command sweepd is the simulation sweep service: a long-lived HTTP/JSON
// daemon that serves the experiments layer (internal/sweepsrv) instead of
// running it as a one-shot CLI. It holds a pool of persistent warm
// machines (one per worker, reset bit-identically between jobs), a bounded
// job queue with explicit 429/Retry-After backpressure, and a
// content-addressed result cache: submitting a config that already ran
// returns the byte-identical result with "cache": "hit" and zero
// additional simulation work.
//
// Usage:
//
//	sweepd -addr :8356 -workers 4 -queue 32
//	sweepd -loadtest -requests 64 -concurrency 8   # seeded load harness
//
// API (see DESIGN.md §15 and EXPERIMENTS.md for curl recipes):
//
//	POST   /sweep        {"exp":"fig9","apps":["radix"],"work":4000} (≤ 64 KiB, else 413)
//	GET    /result/{id}  status, then the terminal result envelope
//	GET    /stream/{id}  SSE progress (?format=ndjson for NDJSON lines)
//	DELETE /job/{id}     cancel a queued or running job
//	GET    /healthz      liveness and drain state
//	GET    /metrics      queue/pool/cache/job counters as JSON
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: submissions are
// refused with 503, running jobs drain to completion, queued jobs fail
// with the distinct "aborted" status, every progress stream receives its
// terminal event and closes, and the process exits 0. -drain-timeout
// bounds the drain; past it, running jobs are canceled at their next cell
// boundary.
//
// The -loadtest mode boots the same server in-process on a loopback
// listener, fires a fixed-seed request mix at it (-requests total, at
// -concurrency) and reports p50/p95/p99 latency, throughput and the
// cache-hit rate as JSON on stdout; cmd/bench2json records the same
// harness's numbers as a baseline row in BENCH_core.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bulksc/internal/sweepsrv"
)

// Connection timeouts. ReadHeaderTimeout drops a client that opens a
// connection and never finishes its request headers; IdleTimeout closes
// keep-alive connections left unused. Neither bounds a response, so
// progress streams may stay open for as long as their job runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable entry point: parse flags, then either serve until a
// termination signal (returning 0 after a clean drain) or run the load
// harness.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "127.0.0.1:8356", "listen address")
		workers = fs.Int("workers", 2, "pool size: persistent warm machines serving jobs")
		queue   = fs.Int("queue", 16, "job queue depth; a full queue answers 429 + Retry-After")
		cache   = fs.Int("cache", 128, "content-addressed result cache entries (LRU)")
		maxWork = fs.Int("max-work", 500_000, "per-thread instruction cap per request (0 = uncapped)")
		retain  = fs.Int("retain", 1024, "finished jobs kept addressable via /result and /stream")
		drain   = fs.Int("drain-timeout", 60, "seconds to drain running jobs on shutdown before canceling them")

		loadtest    = fs.Bool("loadtest", false, "run the seeded load harness against an in-process server and print a JSON report")
		requests    = fs.Int("requests", 32, "loadtest: total requests")
		concurrency = fs.Int("concurrency", 4, "loadtest: client goroutines")
		seed        = fs.Int64("seed", 1, "loadtest: request-mix seed")
		work        = fs.Int("work", 2000, "loadtest: per-thread instructions per generated job")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := sweepsrv.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		MaxWork:      *maxWork,
		RetainJobs:   *retain,
	}

	if *loadtest {
		rep, err := sweepsrv.RunLoadTest(sweepsrv.LoadOptions{
			Requests:    *requests,
			Concurrency: *concurrency,
			Seed:        *seed,
			Work:        *work,
			Server:      cfg,
		})
		if rep != nil {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			enc.Encode(rep)
		}
		if err != nil {
			fmt.Fprintln(stderr, "sweepd:", err)
			return 1
		}
		return 0
	}

	// Route termination signals BEFORE announcing the address: the listen
	// line below invites clients (and the graceful-shutdown test) to start
	// signaling, so the default kill-the-process action must already be
	// disarmed by then.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := sweepsrv.NewServer(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	// The resolved address line is a contract: tests (and scripts) listen
	// on :0 and scrape the port from here.
	fmt.Fprintf(stdout, "sweepd: listening on %s (%d workers, queue %d, cache %d)\n",
		ln.Addr(), cfg.Workers, cfg.QueueDepth, cfg.CacheEntries)

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintf(stdout, "sweepd: shutting down (draining up to %ds)\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Duration(*drain)*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		// Jobs past the deadline were canceled at their next cell
		// boundary; the pool still wound down cleanly, so this is a
		// degraded-but-clean exit, reported as such.
		fmt.Fprintln(stderr, "sweepd: drain deadline passed; running jobs were canceled:", err)
	}
	// Streams have their terminal events; now close the HTTP side.
	httpCtx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	hs.Shutdown(httpCtx)
	fmt.Fprintln(stdout, "sweepd: drained, exiting")
	return 0
}

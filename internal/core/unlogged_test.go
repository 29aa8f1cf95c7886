package core

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"bulksc/internal/workload"
)

// Chunk access logs are recorded only when an observer reads them
// (CheckSC, Witness or a TraceWriter). The goldens all run with CheckSC and
// the witness on, so these tests pin the unlogged path separately: a run
// with every observer off must simulate exactly what an observed run does.

// unobserved strips every access-log consumer from cfg.
func unobserved(cfg Config) Config {
	cfg.CheckSC = false
	cfg.Witness = false
	cfg.TraceWriter = nil
	return cfg
}

// observed keeps the logs on through the witness and a discarded trace,
// with the replay checker off so Result.Commits stays out of the hash.
func observed(cfg Config) Config {
	cfg.CheckSC = false
	cfg.Witness = true
	cfg.TraceWriter = io.Discard
	return cfg
}

// requireSameRun fails unless a and b simulated the same execution.
func requireSameRun(t *testing.T, what string, a, b *Result) {
	t.Helper()
	if ha, hb := a.DeterminismHash(), b.DeterminismHash(); ha != hb {
		t.Fatalf("%s: determinism hash %#x vs %#x", what, ha, hb)
	}
	if !reflect.DeepEqual(*a.Stats, *b.Stats) {
		t.Fatalf("%s: stats differ:\n%+v\n%+v", what, *a.Stats, *b.Stats)
	}
}

func runOrFatal(t *testing.T, run func(Config) (*Result, error), cfg Config) *Result {
	t.Helper()
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s/%s: %v", cfg.Model, cfg.App, err)
	}
	return res
}

// TestUnloggedRunsMatchObserved runs every golden (app, model) cell, the
// 256-proc radix smoke cell and a fault-campaign cell with and without
// observers and requires identical hashes and stats.
func TestUnloggedRunsMatchObserved(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep skipped in -short")
	}
	for _, app := range workload.All() {
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			for _, m := range goldenModels() {
				cfg := goldenConfig(app)
				m.Mut(&cfg)
				off := runOrFatal(t, Run, unobserved(cfg))
				on := runOrFatal(t, Run, observed(cfg))
				requireSameRun(t, goldenKey(app, m.Label), off, on)
			}
		})
	}
	t.Run("radix-256", func(t *testing.T) {
		t.Parallel()
		cfg := DefaultConfig("radix")
		cfg.Procs = 256
		cfg.Work = 800
		cfg.NumArbiters = DefaultArbitersFor(cfg.Procs)
		cfg.GArbShards = DefaultGArbShardsFor(cfg.NumArbiters)
		cfg.WarmupFrac = 0
		requireSameRun(t, "radix-256",
			runOrFatal(t, Run, unobserved(cfg)), runOrFatal(t, Run, observed(cfg)))
	})
	t.Run("fault-campaign", func(t *testing.T) {
		t.Parallel()
		cfg := faultedConfig("radix", "squash-storm", 7)
		off := runOrFatal(t, Run, unobserved(cfg))
		cfg = faultedConfig("radix", "squash-storm", 7) // a fresh plan: counters are per plan
		on := runOrFatal(t, Run, observed(cfg))
		requireSameRun(t, "radix/squash-storm", off, on)
	})
}

// TestUnloggedWarmRunnerRelogs runs observed, unobserved, observed on one
// warm Runner. Committed chunks of the unobserved run return to the chunk
// pools; the last run must log them again, so every result (trace bytes
// and witness audit included) equals its cold counterpart.
func TestUnloggedWarmRunnerRelogs(t *testing.T) {
	base := goldenConfig("radix")
	base.Dypvt = true
	base.CheckSC = false

	cold := func(cfg Config) (*Result, []byte) {
		var trace bytes.Buffer
		if cfg.Witness {
			cfg.TraceWriter = &trace
		}
		return runOrFatal(t, Run, cfg), trace.Bytes()
	}
	coldOn, coldTrace := cold(base)
	coldOff, _ := cold(unobserved(base))
	if coldOn.WitnessChunks == 0 || coldOn.WitnessAccesses == 0 {
		t.Fatal("cold observed run audited nothing")
	}

	r := NewRunner()
	for i, on := range []bool{true, false, true} {
		cfg := unobserved(base)
		var trace bytes.Buffer
		if on {
			cfg.Witness = true
			cfg.TraceWriter = &trace
		}
		res := runOrFatal(t, r.Run, cfg)
		if !on {
			requireSameRun(t, "warm unobserved", res, coldOff)
			continue
		}
		requireSameRun(t, "warm observed", res, coldOn)
		if res.WitnessHash() != coldOn.WitnessHash() {
			t.Fatalf("run %d: witness audited %d chunks / %d accesses, cold %d / %d",
				i, res.WitnessChunks, res.WitnessAccesses, coldOn.WitnessChunks, coldOn.WitnessAccesses)
		}
		if !bytes.Equal(trace.Bytes(), coldTrace) {
			t.Fatalf("run %d: warm trace (%d bytes) differs from cold (%d bytes)", i, trace.Len(), len(coldTrace))
		}
	}
}

package core

import (
	"errors"
	"strings"
	"testing"

	"bulksc/internal/fault"
	"bulksc/internal/sig"
)

// faultedConfig is a small BSC_dypvt config for fault-injection tests.
func faultedConfig(app string, campaign string, faultSeed int64) Config {
	cfg := DefaultConfig(app)
	cfg.Procs = 4
	cfg.Work = 3000
	cfg.Seed = 3
	cfg.WarmupFrac = 0
	cfg.Faults = fault.NewPlan(fault.MustGet(campaign), faultSeed)
	return cfg
}

// TestWatchdogCatchesLivelock is the satellite contract: a synthetic
// livelock campaign that permanently starves two processors must be
// caught by the watchdog within the configured window, and the failure
// diagnostic must name both processors.
func TestWatchdogCatchesLivelock(t *testing.T) {
	cfg := faultedConfig("radix", "livelock", 1)
	cfg.CheckSC = false
	cfg.Witness = false
	cfg.Watchdog = true
	cfg.WatchdogWindow = 40_000
	cfg.MaxCycles = 100_000_000 // the watchdog, not the cycle limit, must end this

	_, err := Run(cfg)
	if err == nil {
		t.Fatal("livelocked run completed without a watchdog error")
	}
	var werr *WatchdogError
	if !errors.As(err, &werr) {
		t.Fatalf("error is not a WatchdogError: %v", err)
	}
	if werr.Cycle > 10*cfg.WatchdogWindow {
		t.Errorf("watchdog took %d cycles to fire (window %d)", werr.Cycle, cfg.WatchdogWindow)
	}
	// The diagnostic must name both starved processors, whether the
	// starvation detector listed them or the global-stall diagnostic
	// implicates them.
	if werr.Kind == "starvation" {
		found := map[int]bool{}
		for _, p := range werr.Procs {
			found[p] = true
		}
		if !found[0] || !found[1] {
			t.Errorf("starvation verdict missing a livelocked processor: procs=%v", werr.Procs)
		}
		for _, want := range []string{"proc 0", "proc 1", "denied["} {
			if !strings.Contains(werr.Diag, want) {
				t.Errorf("diagnostic missing %q:\n%s", want, werr.Diag)
			}
		}
	}
	if !strings.Contains(err.Error(), "liveness watchdog") {
		t.Errorf("error does not identify the watchdog: %v", err)
	}
}

// TestWatchdogCatchesBlockedProc is a fault-free livelock the default
// watchdog used to miss: proc 6 waits forever on a line fill that never
// arrives, while the other seven spin at a barrier and keep committing
// spin chunks. That trickle resets the global detector, and the blocked
// processor collects no denials or squashes for the starvation detector.
// The blocked detector must name it well before the cycle-limit backstop.
func TestWatchdogCatchesBlockedProc(t *testing.T) {
	cfg := DefaultConfig("radix")
	cfg.Work = 400
	cfg.Seed = 781746
	cfg.ChunkSize = 4000
	cfg.SigKind = sig.KindExact
	cfg.CheckSC = false
	cfg.Witness = false
	cfg.MaxCycles = 4 * DefaultWatchdogWindow // backstop: the engine panics past it
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("the cycle limit, not the watchdog, ended the run: %v", r)
		}
	}()

	_, err := Run(cfg)
	var werr *WatchdogError
	if !errors.As(err, &werr) {
		t.Fatalf("error is not a WatchdogError: %v", err)
	}
	if werr.Kind != "blocked" || len(werr.Procs) != 1 || werr.Procs[0] != 6 {
		t.Fatalf("verdict %s of procs %v, want blocked of [6]: %v", werr.Kind, werr.Procs, err)
	}
	if !strings.Contains(werr.Diag, "proc 6: blocked") {
		t.Errorf("diagnostic does not name the blocked processor:\n%s", werr.Diag)
	}
}

// TestWatchdogSilentOnHealthyRuns: with no faults, the watchdog must
// never fire — even with an aggressive window — and its read-only polls
// must not perturb the simulated execution (the determinism hash matches
// a watchdog-free run exactly).
func TestWatchdogSilentOnHealthyRuns(t *testing.T) {
	base := DefaultConfig("radix")
	base.Procs = 4
	base.Work = 3000
	base.Seed = 3
	base.WarmupFrac = 0

	off := base
	off.Watchdog = false
	resOff, err := Run(off)
	if err != nil {
		t.Fatalf("watchdog-off run failed: %v", err)
	}

	on := base
	on.Watchdog = true
	on.WatchdogWindow = 50_000
	resOn, err := Run(on)
	if err != nil {
		t.Fatalf("watchdog fired on a healthy run: %v", err)
	}
	if hOn, hOff := resOn.DeterminismHash(), resOff.DeterminismHash(); hOn != hOff {
		t.Errorf("watchdog polls perturbed the execution: hash %#x vs %#x", hOn, hOff)
	}
}

// TestFaultCampaignDeterminism is the reproducibility contract: the same
// (config, campaign, fault seed) triple produces the identical injected
// schedule — equal fault counters AND an equal determinism hash — while a
// different fault seed diverges.
func TestFaultCampaignDeterminism(t *testing.T) {
	for _, campaign := range []string{"denial-storm", "alias-amplify", "delay-jitter", "squash-storm"} {
		campaign := campaign
		t.Run(campaign, func(t *testing.T) {
			run := func(seed int64) *Result {
				cfg := faultedConfig("fft", campaign, seed)
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				return res
			}
			a, b := run(11), run(11)
			if a.FaultCounters != b.FaultCounters {
				t.Errorf("same fault seed diverged: %+v vs %+v", a.FaultCounters, b.FaultCounters)
			}
			if ha, hb := a.DeterminismHash(), b.DeterminismHash(); ha != hb {
				t.Errorf("same fault seed diverged in determinism hash: %#x vs %#x", ha, hb)
			}
			if a.FaultCounters.Total() == 0 {
				t.Errorf("campaign injected nothing: %+v", a.FaultCounters)
			}
			c := run(12)
			if a.FaultCounters == c.FaultCounters && a.DeterminismHash() == c.DeterminismHash() {
				t.Errorf("different fault seeds produced an identical run")
			}
		})
	}
}

// TestFaultSoundness: every terminating campaign must leave correctness
// intact — the replay checker and the SC-witness checker stay clean, only
// cycles and recovery counters may move. This is the oracle-validity
// argument of internal/fault's package comment, executed.
func TestFaultSoundness(t *testing.T) {
	for _, c := range fault.Catalog() {
		if !c.Terminating || c.Name == "none" {
			continue
		}
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			cfg := faultedConfig("ocean", c.Name, 5)
			// Enough work that even the rarest fault type (spurious
			// squashes need an incoming W to coincide with a live chunk)
			// fires at least once.
			cfg.Work = 12_000
			cfg.CheckSC = true
			cfg.Witness = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if len(res.SCViolations) > 0 {
				t.Errorf("SC violated under %s: %s", c.Name, res.SCViolations[0])
			}
			if len(res.WitnessViolations) > 0 {
				t.Errorf("witness violated under %s: %s", c.Name, res.WitnessViolations[0])
			}
			if res.FaultCounters.Total() == 0 {
				t.Errorf("campaign %s injected nothing", c.Name)
			}
		})
	}
}

// TestZeroFaultBitIdentity: a config with a nil fault plan must be
// bit-identical to one that never heard of the fault subsystem. (The 104
// golden hashes in golden_hashes_test.go pin the same property across the
// full app × model matrix; this is the fast, targeted version.)
func TestZeroFaultBitIdentity(t *testing.T) {
	cfg := DefaultConfig("lu")
	cfg.Procs = 4
	cfg.Work = 3000
	cfg.Seed = 3
	cfg.WarmupFrac = 0
	cfg.Faults = nil

	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fault.NewPlan(fault.MustGet("none"), 99) // nil plan
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ha, hb := a.DeterminismHash(), b.DeterminismHash(); ha != hb {
		t.Errorf("nil fault plan changed the execution: %#x vs %#x", ha, hb)
	}
	if b.FaultCounters != (fault.Counters{}) {
		t.Errorf("nil plan reported injections: %+v", b.FaultCounters)
	}
}

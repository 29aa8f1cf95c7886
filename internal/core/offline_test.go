package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"bulksc/internal/history"
	"bulksc/internal/history/gk"
	"bulksc/internal/workload"
)

// traceGolden runs one golden (app, model) cell with history export on and
// returns the Result plus the parsed history.
func traceGolden(t *testing.T, app string, mut func(c *Config)) (*Result, *history.History) {
	t.Helper()
	cfg := goldenConfig(app)
	mut(&cfg)
	var buf bytes.Buffer
	cfg.TraceWriter = &buf
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", app, err)
	}
	h, err := history.Read(&buf)
	if err != nil {
		t.Fatalf("%s: exported history does not parse: %v", app, err)
	}
	return res, h
}

// TestOfflineDifferential drives every golden (app, model) cell through
// BOTH checkers: the online witness (riding inside the machine) and the
// offline gk checker (over the exported NDJSON history). The verdicts
// must agree exactly — same ok/violating decision, same examined chunk
// and access counts, and the same violation kind for every retained
// record (the caps are equal, so retention windows line up).
func TestOfflineDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("offline differential sweep skipped in -short")
	}
	if gk.DefaultMaxViolations != 20 {
		t.Fatalf("gk cap %d; this test assumes online/offline caps match", gk.DefaultMaxViolations)
	}
	for _, app := range workload.All() {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			for _, m := range goldenModels() {
				key := goldenKey(app, m.Label)
				res, h := traceGolden(t, app, m.Mut)
				r := gk.Check(h, gk.Options{})

				onlineOk := len(res.WitnessViolations) == 0
				if r.Ok() != onlineOk {
					t.Errorf("%s: offline ok=%v, online ok=%v (offline: %v, online: %v)",
						key, r.Ok(), onlineOk, r.Strings(), res.WitnessViolations)
					continue
				}
				if r.Chunks() != res.WitnessChunks || r.Accesses() != res.WitnessAccesses {
					t.Errorf("%s: offline examined %d chunks / %d accesses, online %d / %d",
						key, r.Chunks(), r.Accesses(), res.WitnessChunks, res.WitnessAccesses)
				}
				// Retained records must describe the same obligations in the
				// same order (online strings embed the kind as "[kind]").
				vs := r.Violations()
				online := res.WitnessViolations
				if len(online) > 0 && strings.Contains(online[len(online)-1], "cap reached") {
					online = online[:len(online)-1]
				}
				if len(vs) != len(online) {
					t.Errorf("%s: offline retained %d violations, online %d", key, len(vs), len(online))
					continue
				}
				for i, v := range vs {
					if !strings.Contains(online[i], "["+v.Kind.String()+"]") {
						t.Errorf("%s: violation %d: offline kind %s, online record %q",
							key, i, v.Kind, online[i])
					}
				}
			}
		})
	}
}

// TestTraceHashNeutral proves export is pure observation: the same config
// run with and without a TraceWriter produces bit-identical determinism
// and witness hashes, and the trace itself is non-trivial.
func TestTraceHashNeutral(t *testing.T) {
	for _, label := range []string{"bulk-dypvt", "sc", "rc"} {
		for _, m := range goldenModels() {
			if m.Label != label {
				continue
			}
			cfg := goldenConfig("radix")
			m.Mut(&cfg)
			plain, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var buf bytes.Buffer
			cfg.TraceWriter = &buf
			traced, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s traced: %v", label, err)
			}
			if plain.DeterminismHash() != traced.DeterminismHash() {
				t.Errorf("%s: tracing changed the determinism hash: %#x vs %#x",
					label, plain.DeterminismHash(), traced.DeterminismHash())
			}
			if plain.WitnessHash() != traced.WitnessHash() {
				t.Errorf("%s: tracing changed the witness hash", label)
			}
			h, err := history.Read(&buf)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if h.Ops() == 0 {
				t.Errorf("%s: empty exported history", label)
			}
		}
	}
}

// TestTraceMatchesEncodingJSON exports full radix traces of both record
// shapes and requires every line to be byte-identical to an encoding/json
// re-encode of the record it decodes to: the writer's hand-written
// records keep encoding/json's field order, omitempty and number text.
func TestTraceMatchesEncodingJSON(t *testing.T) {
	for _, label := range []string{"bulk-dypvt", "sc"} {
		for _, m := range goldenModels() {
			if m.Label != label {
				continue
			}
			cfg := goldenConfig("radix")
			m.Mut(&cfg)
			var buf bytes.Buffer
			cfg.TraceWriter = &buf
			if _, err := Run(cfg); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
			if len(lines) < 3 {
				t.Fatalf("%s: trace has %d lines", label, len(lines))
			}
			for i, line := range lines[:len(lines)-1] {
				var probe struct{ Kind string }
				if err := json.Unmarshal(line, &probe); err != nil {
					t.Fatalf("%s line %d: %v", label, i+1, err)
				}
				var rec any
				switch probe.Kind {
				case history.KindHeader:
					rec = new(history.Header)
				case history.KindChunk:
					rec = new(history.ChunkRec)
				case history.KindAccess:
					rec = new(history.AccessRec)
				}
				if err := json.Unmarshal(line, rec); err != nil {
					t.Fatalf("%s line %d: %v", label, i+1, err)
				}
				want, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				if want = append(want, '\n'); !bytes.Equal(line, want) {
					t.Fatalf("%s line %d:\n got %s\nwant %s", label, i+1, line, want)
				}
			}
		}
	}
}

// TestMutatedTraceCaught corrupts an exported golden trace three ways —
// value corruption, swapped commit orders, broken atomicity — and
// asserts the offline checker catches each class. This is the end-to-end
// (simulator → NDJSON → checker) version of the gk unit mutation tests.
func TestMutatedTraceCaught(t *testing.T) {
	_, h := traceGolden(t, "radix", func(c *Config) { c.Model = ModelBulk; c.Dypvt = true })
	if r := gk.Check(h, gk.Options{}); !r.Ok() {
		t.Fatalf("pristine trace flagged: %v", r.Strings())
	}
	if len(h.Chunks) < 3 {
		t.Fatalf("trace too small to mutate: %d chunks", len(h.Chunks))
	}

	reparse := func(mut func(*history.History)) *gk.Report {
		// Round-trip the mutation through the serialized form so the test
		// covers reader and checker together. The Writer API takes live
		// chunks, so the mutated records are hand-encoded as NDJSON.
		_, fresh := traceGolden(t, "radix", func(c *Config) { c.Model = ModelBulk; c.Dypvt = true })
		mut(fresh)
		var buf bytes.Buffer
		enc := func(v any) {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
			buf.WriteByte('\n')
		}
		enc(fresh.Header)
		for i := range fresh.Chunks {
			enc(&fresh.Chunks[i])
		}
		h2, err := history.Read(&buf)
		if err != nil {
			t.Fatalf("mutated history does not parse: %v", err)
		}
		return gk.Check(h2, gk.Options{})
	}

	hasKind := func(r *gk.Report, k gk.Kind) bool {
		for _, v := range r.Violations() {
			if v.Kind == k {
				return true
			}
		}
		return false
	}

	// Value corruption → coherence (or atomicity, if the load re-read).
	r := reparse(func(h *history.History) {
		for ci := range h.Chunks {
			for oi, op := range h.Chunks[ci].Ops {
				if !op.Store {
					h.Chunks[ci].Ops[oi].Val = op.Val + 0xdead
					return
				}
			}
		}
		t.Fatal("no load to corrupt")
	})
	if r.Ok() || !(hasKind(r, gk.KindCoherence) || hasKind(r, gk.KindAtomicity) || hasKind(r, gk.KindForwarding)) {
		t.Fatalf("corrupted value not caught: %v", r.Strings())
	}

	// Swapped commit orders → total-order.
	r = reparse(func(h *history.History) {
		h.Chunks[0].Order, h.Chunks[1].Order = h.Chunks[1].Order, h.Chunks[0].Order
	})
	if r.Ok() || !hasKind(r, gk.KindTotalOrder) {
		t.Fatalf("swapped commit order not caught: %v", r.Strings())
	}

	// Broken atomicity: make a chunk observe two values for one word with
	// no intervening store, as if another commit interleaved mid-chunk.
	r = reparse(func(h *history.History) {
		for ci := range h.Chunks {
			ops := h.Chunks[ci].Ops
			for oi := range ops {
				if !ops[oi].Store {
					// Duplicate the load with a diverging value right after.
					dup := ops[oi]
					dup.Val++
					h.Chunks[ci].Ops = append(ops[:oi+1], append([]history.Op{dup}, ops[oi+1:]...)...)
					return
				}
			}
		}
		t.Fatal("no load to duplicate")
	})
	if r.Ok() || !hasKind(r, gk.KindAtomicity) {
		t.Fatalf("broken atomicity not caught: %v", r.Strings())
	}
}

// TestWarmResultViolationsNotScrubbed pins the aliased-Result satellite
// fix at the machine level: a warm Runner's next job must not mutate the
// witness findings (or anything else) of a Result the caller still holds
// from the previous job.
func TestWarmResultViolationsNotScrubbed(t *testing.T) {
	r := NewRunner()

	// Job 1: RC exhibits its store→load relaxation, so the witness
	// records genuine findings for the Result to retain.
	cfg1 := goldenConfig("radix")
	cfg1.Model = ModelRC
	res1, err := r.Run(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.WitnessViolations) == 0 {
		t.Skip("RC run produced no witness findings at this config; nothing to pin")
	}
	heldViolations := append([]string(nil), res1.WitnessViolations...)
	heldCycles := res1.Cycles
	heldInstrs := res1.Stats.CommittedInstrs
	heldTraffic := res1.Stats.TotalTraffic()

	// Job 2: a different model on the same warm machine, which resets the
	// checker (clearing its retention slice) and scrubs the stats arena.
	cfg2 := goldenConfig("fft")
	cfg2.Model = ModelBulk
	cfg2.Dypvt = true
	if _, err := r.Run(cfg2); err != nil {
		t.Fatal(err)
	}

	if res1.Cycles != heldCycles {
		t.Errorf("warm job 2 changed job 1's Cycles: %d vs %d", res1.Cycles, heldCycles)
	}
	if len(res1.WitnessViolations) != len(heldViolations) {
		t.Fatalf("warm job 2 changed job 1's violation count: %d vs %d",
			len(res1.WitnessViolations), len(heldViolations))
	}
	for i := range heldViolations {
		if res1.WitnessViolations[i] != heldViolations[i] {
			t.Errorf("warm job 2 scrubbed job 1's violation %d: %q vs %q",
				i, res1.WitnessViolations[i], heldViolations[i])
		}
	}
	if res1.Stats.CommittedInstrs != heldInstrs || res1.Stats.TotalTraffic() != heldTraffic {
		t.Error("warm job 2 mutated job 1's Stats")
	}
}

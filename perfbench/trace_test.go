package main

import (
	"math"
	"testing"
)

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	tr := newTracer()
	ms := int64(1e6)
	tr.spans = []span{
		{ID: 1, Name: "experiments.Fig9", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 60) once, not twice.
		{ID: 2, Parent: 1, Name: "Runner.RunProgram", Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Name: "Runner.RunProgram", Start: 20 * ms, End: 60 * ms},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "bulksc.GenerateProgram", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 2, Name: "bulksc.NewRunner", Start: 10 * ms, End: 15 * ms},
	}
	self := tr.selfTimes()
	want := map[string]float64{
		"experiments": 0.100 - 0.050 - 0.010,
		"core":        (0.040 - 0.005) + 0.040 + 0.005,
		"workload":    0.030,
	}
	for layer, w := range want {
		if math.Abs(self[layer]-w) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0)
	tr.end(id)
	if id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}

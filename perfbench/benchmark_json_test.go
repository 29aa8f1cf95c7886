package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONListsMetrics keeps BENCHMARK.json's end_to_end and
// per_layer lists and the metrics the untraced and traced runs report in
// step.
func TestBenchmarkJSONListsMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory:", err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(list string, entries []struct{ Name string }, reported []string) {
		var listed []string
		for _, m := range entries {
			listed = append(listed, m.Name)
		}
		want := append([]string(nil), reported...)
		sort.Strings(listed)
		sort.Strings(want)
		if len(listed) != len(want) {
			t.Fatalf("BENCHMARK.json %s lists %v, the benchmark reports %v", list, listed, want)
		}
		for i := range want {
			if listed[i] != want[i] {
				t.Fatalf("BENCHMARK.json %s lists %v, the benchmark reports %v", list, listed, want)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	e2e := make(map[string]bool)
	for _, n := range endToEnd {
		e2e[n] = true
	}
	for _, n := range perLayer {
		if e2e[n] {
			t.Errorf("%s is listed both end to end and per layer", n)
		}
	}
}

func TestTableSeed(t *testing.T) {
	for _, c := range []struct{ in, want int64 }{
		{1, 1}, {64, 64}, {65, 1}, {128, 64}, {0, 64}, {-1, 63}, {755809715, 51},
	} {
		if got := tableSeed(c.in); got != c.want {
			t.Errorf("tableSeed(%d) = %d, want %d", c.in, got, c.want)
		}
		if _, ok := expectedTable[tableSeed(c.in)]; !ok {
			t.Errorf("no recorded values for tableSeed(%d)", c.in)
		}
	}
}

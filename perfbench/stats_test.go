package main

import (
	"fmt"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted input
	}
	for _, tc := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 100, 100},
		{95, 190, 10},
		{99, 198, 2},
		{100, 200, 0},
		{0.1, 1, 199},
	} {
		v, beyond := percentile(xs, tc.p)
		if v != tc.want || beyond != tc.beyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", tc.p, v, beyond, tc.want, tc.beyond)
		}
	}
	if v, _ := percentile([]float64{5}, 95); v != 5 {
		t.Errorf("single-sample p95 = %v, want 5", v)
	}
}

func TestTailPercentileNeedsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, beyond, ok := tailPercentile(xs, 95, 10); ok {
		t.Errorf("199 samples support p95 with %d beyond; want refusal below 10", beyond)
	}
	xs = append(xs, 199)
	if _, beyond, ok := tailPercentile(xs, 95, 10); !ok || beyond != 10 {
		t.Errorf("200 samples: ok=%v beyond=%d, want ok with 10 beyond", ok, beyond)
	}
	if _, _, ok := tailPercentile(nil, 50, 0); ok {
		t.Error("empty sample supports a percentile")
	}
}

func TestSetupTimesTearsDownBetweenSetups(t *testing.T) {
	var log []string
	_, err := setupTimes(3, func() error {
		log = append(log, "setup")
		return nil
	}, func() error {
		log = append(log, "teardown")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The last setup's state is kept, so it is not torn down.
	want := []string{"setup", "teardown", "setup", "teardown", "setup"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("calls %v, want %v", log, want)
	}
}

func TestHashFoldIgnoresOrderButNotKeys(t *testing.T) {
	a := map[cellID]uint64{{"radix", "rc"}: 1, {"fft", "dypvt"}: 2}
	b := map[cellID]uint64{{"fft", "dypvt"}: 2, {"radix", "rc"}: 1}
	if hashFold(a) != hashFold(b) {
		t.Error("fold depends on map order")
	}
	// The same hashes under swapped cells must fold differently.
	c := map[cellID]uint64{{"radix", "rc"}: 2, {"fft", "dypvt"}: 1}
	if hashFold(a) == hashFold(c) {
		t.Error("fold does not depend on which cell has which hash")
	}
}

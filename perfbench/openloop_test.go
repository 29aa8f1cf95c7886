package main

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func TestArrivalsCountSpanAndOrder(t *testing.T) {
	const n, span = 500, 10 * time.Second
	a := arrivals(rand.New(rand.NewSource(7)), n, span)
	if len(a) != n {
		t.Fatalf("%d arrivals, want %d", len(a), n)
	}
	slot := span / n
	minGap, maxGap := span, time.Duration(0)
	for i, d := range a {
		if d < time.Duration(i)*slot || d >= time.Duration(i+1)*slot {
			t.Fatalf("arrival %d at %v outside its slot [%v, %v)", i, d, time.Duration(i)*slot, time.Duration(i+1)*slot)
		}
		if i > 0 {
			minGap, maxGap = min(minGap, d-a[i-1]), max(maxGap, d-a[i-1])
		}
	}
	// Gaps vary across (0, 2·slot): requests sometimes nearly collide.
	if minGap > slot/10 || maxGap < slot*19/10 {
		t.Errorf("gaps span [%v, %v]; want nearly (0, %v)", minGap, maxGap, 2*slot)
	}
}

func TestArrivalsFollowSeed(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(1)), 50, time.Second)
	b := arrivals(rand.New(rand.NewSource(1)), 50, time.Second)
	c := arrivals(rand.New(rand.NewSource(2)), 50, time.Second)
	same, differ := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
	}
	if !same || !differ {
		t.Errorf("same seed equal: %v, different seeds differ: %v; want both", same, differ)
	}
	if arrivals(rand.New(rand.NewSource(1)), 0, time.Second) != nil {
		t.Error("zero arrivals should be nil")
	}
}

func TestLagLog(t *testing.T) {
	var l lagLog
	due := time.Unix(100, 0)
	l.record(due, due.Add(30*time.Millisecond))
	l.record(due, due.Add(-5*time.Millisecond)) // issued early: no lag
	l.record(due, due.Add(2*time.Millisecond))
	if want := []float64{0.03, 0, 0.002}; len(l.lags) != 3 || l.lags[0] != want[0] || l.lags[1] != want[1] || l.lags[2] != want[2] {
		t.Fatalf("lags %v, want %v (the early one clamped to 0)", l.lags, want)
	}
}

func TestSvcRequestsRepeatShare(t *testing.T) {
	reqs := svcRequests(3, 500)
	seen := make(map[string]bool)
	repeats := 0
	for _, r := range reqs {
		k, err := r.Key()
		if err != nil {
			t.Fatal(err)
		}
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	// 30% repeat a recent key; every other request has a fresh
	// simulation seed, so none of them is a repeat.
	if share := float64(repeats) / float64(len(reqs)); share < 0.25 || share > 0.35 {
		t.Errorf("repeat share %.2f, want about 0.3", share)
	}
	shapes := make(map[string]int)
	for _, r := range reqs {
		shapes[fmt.Sprintf("%s/%s/%d", r.Exp, r.Apps[0], r.Work)]++
	}
	if len(shapes) != len(svcExps)*len(svcApps())*len(svcWorks) {
		t.Errorf("%d request shapes in 500 requests, want all %d", len(shapes), len(svcExps)*len(svcApps())*len(svcWorks))
	}
	again := svcRequests(3, 500)
	for i := range reqs {
		a, _ := reqs[i].Key()
		b, _ := again[i].Key()
		if a != b {
			t.Fatalf("request %d differs between two generations from one seed", i)
		}
	}
}

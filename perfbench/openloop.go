package main

import (
	"math/rand"
	"time"
)

// arrivals returns n open-loop due times, as offsets from the start of the
// run, spread evenly over span with each arrival placed at a seeded random
// point of its own slot (slot i is [i, i+1)·span/n). The count is exact
// and the gaps vary between 0 and twice the mean, so a seed changes when
// requests collide, not how many requests the run carries or how bursty
// it is on average.
func arrivals(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	if n <= 0 {
		return nil
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + rng.Float64()) * float64(span) / float64(n))
	}
	return out
}

// lagLog records how late an open-loop generator issued each request
// relative to its due time. A generator that falls behind hides queueing
// from the latencies it measures unless latency is taken from the due time
// (as the svc-mix workload does); the lag shows how far behind it ran.
type lagLog struct {
	lags []float64 // seconds; never negative
}

// record notes that the request due at due was issued at issued.
func (l *lagLog) record(due, issued time.Time) {
	lag := issued.Sub(due).Seconds()
	if lag < 0 {
		lag = 0
	}
	l.lags = append(l.lags, lag)
}

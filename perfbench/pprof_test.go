package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
)

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"bulksc/internal/sim.(*Engine).Run"}, "sim"},
		{[]string{"bulksc/internal/cache.(*L2).Lookup"}, "cache"},
		{[]string{"bulksc/internal/sharerset.(*Set).Add"}, "directory"},
		{[]string{"bulksc/internal/arbiter.(*GArbiter).grant"}, "arbiter"},
		{[]string{"bulksc/internal/sig.Signature.Intersects"}, "bulk"},
		{[]string{"bulksc/internal/lineset.(*Map).Get"}, "bulk"},
		{[]string{"bulksc/internal/history/gk.checkChunks"}, "check"},
		{[]string{"runtime.mallocgc", "bulksc/internal/proc.(*BulkProc).step"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain"}, "gc"},
		// Library code counts for the layer that called it.
		{[]string{"encoding/json.(*decodeState).object", "bulksc/internal/history.Read"}, "check"},
		{[]string{"runtime.memmove", "bulksc/internal/cache.(*L1).fill"}, "cache"},
		{[]string{"net/http.(*conn).serve"}, "service"},
		{[]string{"syscall.Syscall", "net.(*conn).Write", "bulksc/internal/sweepsrv.writeJSON"}, "service"},
		{[]string{"bulksc/internal/core.(*machine).run", "main.main"}, "other"},
		{[]string{"runtime.futex"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"bulksc/internal/sim.(*Engine).Run":          "bulksc/internal/sim",
		"bulksc/internal/history/gk.Check":           "bulksc/internal/history/gk",
		"runtime.mallocgc":                           "runtime",
		"net/http.(*conn).serve":                     "net/http",
		"main.main":                                  "main",
		"bulksc/experiments.runMatrix.func1.gowrap1": "bulksc/experiments",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

var allocSinkKeep [][]byte

//go:noinline
func allocSink() {
	for i := 0; i < 64; i++ {
		allocSinkKeep = append(allocSinkKeep, make([]byte, 4096))
	}
}

// TestDecodeProfile decodes a profile the Go runtime wrote: a heap
// profile, whose stacks are as deterministic as a test can get.
func TestDecodeProfile(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	allocSink()
	runtime.GC()
	var buf bytes.Buffer
	err := pprof.Lookup("allocs").WriteTo(&buf, 0)
	runtime.MemProfileRate = old
	if err != nil {
		t.Fatal(err)
	}
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, f := range s.stack {
			found = found || strings.HasSuffix(f, ".allocSink")
		}
	}
	if !found {
		t.Fatalf("no stack of %d samples contains allocSink", len(samples))
	}
	// Value 1 of an allocs profile is bytes allocated; the buckets
	// partition the total.
	byBucket, total := bucketSamples(samples, 1)
	if total <= 0 {
		t.Fatalf("total %d bytes", total)
	}
	sum := int64(0)
	for _, b := range layerBuckets {
		sum += byBucket[b]
	}
	if sum != total {
		t.Errorf("buckets sum to %d, total %d", sum, total)
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

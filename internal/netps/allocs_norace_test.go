// Exact allocation counts are meaningless under the race detector (its
// instrumentation and sync.Pool behavior add allocations), so this file is
// excluded from race builds — the same split the determinism suite uses.

//go:build !race

package netps

import (
	"io"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestWriteMessageVecSteadyStateAllocs pins the writev response path at
// zero steady-state allocations. Pre-fix, writeMessageVec called WriteTo
// on the pooled net.Buffers directly; WriteTo consumes its receiver down
// to zero length AND zero capacity, so the pool recycled a useless cap-0
// slice and every payload-bearing frame reallocated the two-element
// array. The first write may populate pools, so one warm-up write
// precedes the measurement.
func TestWriteMessageVecSteadyStateAllocs(t *testing.T) {
	m := message{
		Op:      OpPull,
		Codec:   2,
		Iter:    7,
		Seq:     1<<32 | 42,
		Orig:    256 << 10,
		Key:     "layer12/weight:3",
		Payload: make([]byte, 4+64<<10),
	}
	if err := writeMessageVec(io.Discard, m); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := writeMessageVec(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("writeMessageVec allocates %.1f/op in steady state, want 0 (pooled Buffers consumed)", n)
	}
}

// TestPushPullSteadyStateAllocs pins the fp32 push/pull data path near
// allocation-free: once the frame, sum and connection pools are warm, a
// two-worker round of 64 Ki floats per worker (two pushes, one aggregate,
// two pulls) may allocate, all clients and the server together, the one
// encoded aggregate the server keeps per (key, iter) — the completed log
// holds it by reference for replayed pulls, so it is not pooled — plus
// less than 1% of the vector's bytes: entries, keys and goroutines, never
// a pushed payload, a frame read, a sum or a pulled vector. Each of those
// would cost the whole vector again.
func TestPushPullSteadyStateAllocs(t *testing.T) {
	const n, warm, rounds = 64 << 10, 32, 128
	// Hold the collector off for the whole test: a GC cycle empties every
	// sync.Pool, and refilling them would be charged to the data path.
	// The garbage is one aggregate per round, 40 MB in all.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := newPushPullPair(t, n)
	for i := 0; i < warm; i++ {
		p.round(t)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		p.round(t)
	}
	runtime.ReadMemStats(&after)
	perRound := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	if limit := 4*n + 0.01*4*n; perRound >= limit {
		t.Fatalf("push+pull round allocates %.0f B in steady state, want < %.0f (the %d B aggregate plus 1%% of it)",
			perRound, limit, 4*n)
	}
	t.Logf("%.0f B/round beyond the %d B aggregate", perRound-4*n, 4*n)
}

// Exact allocation budgets are meaningless under the race detector (its
// instrumentation and sync.Pool behavior add allocations), so this file is
// excluded from race builds.

//go:build !race

package netar

import (
	"runtime"
	"testing"
)

// TestAllReduceFP16SteadyStateAllocs pins the ring's data path near
// allocation-free: once the payload and scratch pools are warm, a 2-peer
// fp16 collective of 64 Ki floats may allocate (both peers together) less
// than 1% of the vector's bytes per op — slots, timers and keys, never a
// payload, a decoded segment or a result vector.
func TestAllReduceFP16SteadyStateAllocs(t *testing.T) {
	const n, warm, ops = 64 << 10, 64, 256
	peers, in, out := newFP16Ring(t, n)
	for i := 0; i < warm; i++ {
		fp16RingOp(t, peers, uint32(i), in, out)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		fp16RingOp(t, peers, uint32(warm+i), in, out)
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / ops
	if limit := 0.01 * 4 * n; perOp >= limit {
		t.Fatalf("fp16 collective allocates %.0f B/op in steady state, want < %.0f (1%% of the %d B vector)",
			perOp, limit, 4*n)
	}
	t.Logf("%.0f B/op", perOp)
}

package netps

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestPooledFramesCarryExactBytes drives every pooled path at once — the
// Batcher's pooled envelopes, singleton pushes, PullBatch and singleton
// pulls into caller buffers, the server's pooled frame reads and sums —
// from several concurrent clients over many keys and iterations, and
// checks every element of every pull against its closed-form sum. Each
// gradient element is a distinct integer per (client, key, iteration,
// element), small enough that every sum is exact in fp32, so a pooled
// buffer recycled while still in use (a push payload released before the
// server summed it, a pull read into a buffer another frame overwrites)
// shows up as a wrong element, not just a wrong total.
func TestPooledFramesCarryExactBytes(t *testing.T) {
	const (
		clients = 3
		groups  = 6 // goroutines per client, each owning keysPer keys
		keysPer = 4
		iters   = 6
		keys    = groups * keysPer
	)
	// Sizes span several pool classes and are not multiples of four, so
	// the fp32 kernels' tails are exercised too.
	size := func(k int) int { return 1 + (k*379)%1500 }
	// value(c, k, it, e) < 2^21 and distinct per (c, k, it, e); the sum of
	// three stays below 2^24, so fp32 sums are exact.
	value := func(c, k, it, e int) float32 {
		return float32(1 + e + 4096*(c+clients*(k+keys*it)))
	}
	want := func(k, it, e int) float32 {
		var s float32
		for c := 0; c < clients; c++ {
			s += value(c, k, it, e)
		}
		return s
	}
	srv, addr := startServer(t, clients)
	// The first failure closes the server, so the other goroutines' pulls
	// fail at once instead of waiting on pushes that will never come; only
	// that first failure is reported.
	var once sync.Once
	var first error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cl := NewClient(addr, WithClientID(uint32(c+1)), WithPullTimeout(30*time.Second))
		batcher := NewBatcher(cl)
		defer cl.Close()
		defer batcher.Close()
		for g := 0; g < groups; g++ {
			wg.Add(1)
			go func(c, g int) {
				defer wg.Done()
				if err := pushPullGroup(cl, batcher, c, g*keysPer, keysPer, iters, size, value, want); err != nil {
					once.Do(func() { first = err; srv.Close() })
				}
			}(c, g)
		}
	}
	wg.Wait()
	if first != nil {
		t.Fatal(first)
	}
}

// pushPullGroup runs one goroutine's share of TestPooledFramesCarryExactBytes:
// per iteration it pushes keys [k0, k0+n) — even keys through the Batcher,
// odd ones as singleton pushes — then pulls the first half through one
// PullBatch and the rest one by one, checking every element.
func pushPullGroup(cl *Client, b *Batcher, c, k0, n, iters int, size func(int) int,
	value func(c, k, it, e int) float32, want func(k, it, e int) float32) error {
	key := func(k int) string { return fmt.Sprintf("L%02d[0/1]", k) }
	for it := 0; it < iters; it++ {
		pushed := make(chan error, n)
		for k := k0; k < k0+n; k++ {
			grad := make([]float32, size(k))
			for e := range grad {
				grad[e] = value(c, k, it, e)
			}
			if k%2 == 0 {
				b.Push(key(k), uint32(it), grad, func(err error) { pushed <- err })
			} else {
				pushed <- cl.Push(key(k), uint32(it), grad)
			}
		}
		b.Flush()
		for i := 0; i < n; i++ {
			if err := <-pushed; err != nil {
				return fmt.Errorf("client %d iter %d push: %w", c, it, err)
			}
		}
		outs := make([][]float32, n)
		items := make([]BatchPull, 0, n/2)
		for i := range outs {
			outs[i] = make([]float32, size(k0+i))
			if i < n/2 {
				items = append(items, BatchPull{Key: key(k0 + i), Iter: uint32(it), Out: outs[i]})
			}
		}
		subErrs, err := cl.PullBatch(items)
		if err != nil {
			return fmt.Errorf("client %d iter %d batch pull: %w", c, it, err)
		}
		for i, err := range subErrs {
			if err != nil {
				return fmt.Errorf("client %d iter %d batch pull of key %d: %w", c, it, k0+i, err)
			}
		}
		for i := n / 2; i < n; i++ {
			if err := cl.Pull(key(k0+i), uint32(it), outs[i]); err != nil {
				return fmt.Errorf("client %d iter %d pull of key %d: %w", c, it, k0+i, err)
			}
		}
		for i, out := range outs {
			for e, v := range out {
				if w := want(k0+i, it, e); v != w {
					return fmt.Errorf("client %d iter %d key %d element %d = %v, want %v", c, it, k0+i, e, v, w)
				}
			}
		}
	}
	return nil
}

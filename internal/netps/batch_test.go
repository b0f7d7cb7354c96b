package netps

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"bytescheduler/internal/metrics"
)

// TestPushBatchPullBatch round-trips a coalesced push from two workers and a
// coalesced pull, checking aggregation works exactly as for plain messages.
func TestPushBatchPullBatch(t *testing.T) {
	_, addr := startServer(t, 2)
	c0, c1 := NewClient(addr), NewClient(addr)
	defer c0.Close()
	defer c1.Close()

	items := func(scale float32) []BatchPush {
		return []BatchPush{
			{Key: "a", Iter: 0, Grad: []float32{1 * scale, 2 * scale}},
			{Key: "b", Iter: 0, Grad: []float32{3 * scale}},
		}
	}
	for _, c := range []*Client{c0} {
		errs, err := c.PushBatch(items(1))
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range errs {
			if e != nil {
				t.Fatalf("sub-push %d: %v", i, e)
			}
		}
	}
	errs, err := c1.PushBatch(items(10))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("sub-push %d: %v", i, e)
		}
	}

	vals := [][]float32{make([]float32, 2), make([]float32, 1)}
	errs, err = c0.PullBatch([]BatchPull{{Key: "a", Iter: 0, Out: vals[0]}, {Key: "b", Iter: 0, Out: vals[1]}})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("sub-pull %d: %v", i, e)
		}
	}
	wantA, wantB := []float32{11, 22}, []float32{33}
	if vals[0][0] != wantA[0] || vals[0][1] != wantA[1] || vals[1][0] != wantB[0] {
		t.Fatalf("batch pull = %v, want [%v %v]", vals, wantA, wantB)
	}
	// The other worker must pull too so the server reclaims the entries.
	if _, err := c1.PullBatch([]BatchPull{{Key: "a", Iter: 0, Out: make([]float32, 2)}, {Key: "b", Iter: 0, Out: make([]float32, 1)}}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchAmortizesMessages pins the θ-amortization claim in metric form:
// pushing N partitions through PushBatch produces one wire frame
// (netps_msgs_total) but N logical messages (netps_batched_msgs_total) —
// the live counterpart of the simulator's per-message overhead model.
func TestBatchAmortizesMessages(t *testing.T) {
	_, addr := startServer(t, 1)
	reg := metrics.NewRegistry()
	c := NewClient(addr, WithMetrics(reg))
	defer c.Close()

	const n = 16
	items := make([]BatchPush, n)
	for i := range items {
		items[i] = BatchPush{Key: fmt.Sprintf("k%d", i), Iter: 0, Grad: []float32{float32(i)}}
	}
	if _, err := c.PushBatch(items); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["netps_msgs_total"]; got != 1 {
		t.Fatalf("netps_msgs_total = %d, want 1 wire frame for the whole batch", got)
	}
	if got := snap.Counters["netps_batched_msgs_total"]; got != n {
		t.Fatalf("netps_batched_msgs_total = %d, want %d", got, n)
	}
	if got := snap.Counters["netps_batches_total"]; got != 1 {
		t.Fatalf("netps_batches_total = %d, want 1", got)
	}
}

// TestBatchReplayDeduplicated replays an identical OpBatch frame (same
// per-sub Seqs, as after a lost ack) and checks the server acknowledges the
// duplicates without double-summing — sub-message Seq stability is what
// makes batch retries safe.
func TestBatchReplayDeduplicated(t *testing.T) {
	_, addr := startServer(t, 1)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	subs := []message{
		{Op: OpPush, Key: "a", Iter: 0, Seq: 1<<32 | 1, Payload: encodeF32([]float32{5})},
		{Op: OpPush, Key: "b", Iter: 0, Seq: 1<<32 | 2, Payload: encodeF32([]float32{7})},
	}
	payload, err := appendBatch(nil, subs)
	if err != nil {
		t.Fatal(err)
	}
	for replay := 0; replay < 3; replay++ {
		if err := writeMessageVec(conn, message{Op: OpBatch, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		resp, err := readMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Op != OpBatch {
			t.Fatalf("replay %d answered %v", replay, resp.Op)
		}
	}

	c := NewClient(addr)
	defer c.Close()
	got, err := pull(c, "a", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Fatalf("a = %v after replays, want 5 (dedup failed)", got)
	}
	if got, err := pull(c, "b", 0, 1); err != nil || got[0] != 7 {
		t.Fatalf("b = %v, %v after replays, want 7", got, err)
	}
}

// TestBatchRejectsUnbatchableOps crafts a batch containing a nested batch
// and checks the server rejects the sub-message individually while
// answering the rest.
func TestBatchRejectsUnbatchableOps(t *testing.T) {
	_, addr := startServer(t, 1)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	subs := []message{
		{Op: OpPush, Key: "ok", Iter: 0, Seq: 2<<32 | 1, Payload: encodeF32([]float32{1})},
		{Op: OpBatch, Key: "nested", Seq: 2<<32 | 2},
	}
	payload, err := appendBatch(nil, subs)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeMessageVec(conn, message{Op: OpBatch, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	resp, err := readMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeBatch(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("batch answered %d subs, want 2", len(out))
	}
	if out[0].Op != OpPush {
		t.Fatalf("valid sub-push answered %v", out[0].Op)
	}
	if out[1].Op != OpErr {
		t.Fatalf("nested batch answered %v, want OpErr", out[1].Op)
	}
}

// TestBatcherSizeFlush fills the queue past BatchBytes and checks the flush
// happens synchronously, without waiting out the deadline.
func TestBatcherSizeFlush(t *testing.T) {
	_, addr := startServer(t, 1)
	c := NewClient(addr, WithConfig(Config{BatchBytes: 64, BatchDelay: time.Hour}))
	defer c.Close()
	b := NewBatcher(c)
	defer b.Close()

	var mu sync.Mutex
	var outcomes []error
	done := func(err error) {
		mu.Lock()
		outcomes = append(outcomes, err)
		mu.Unlock()
	}
	// 2 x 40 bytes crosses the 64-byte threshold on the second push.
	b.Push("a", 0, make([]float32, 10), done)
	b.Push("b", 0, make([]float32, 10), done)

	mu.Lock()
	defer mu.Unlock()
	if len(outcomes) != 2 {
		t.Fatalf("%d outcomes after size flush, want 2 (deadline was 1h)", len(outcomes))
	}
	for i, err := range outcomes {
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
}

// TestBatcherDeadlineFlush queues one small push and waits for the deadline
// timer to write it.
func TestBatcherDeadlineFlush(t *testing.T) {
	_, addr := startServer(t, 1)
	c := NewClient(addr, WithConfig(Config{BatchDelay: 5 * time.Millisecond}))
	defer c.Close()
	b := NewBatcher(c)
	defer b.Close()

	ch := make(chan error, 1)
	b.Push("a", 0, []float32{1}, func(err error) { ch <- err })
	select {
	case err := <-ch:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline flush never fired")
	}
}

// TestBatcherFlushAsync checks the scheduler-hook flush path: FlushAsync
// must return without blocking on I/O and the batch must still complete.
func TestBatcherFlushAsync(t *testing.T) {
	_, addr := startServer(t, 1)
	c := NewClient(addr, WithConfig(Config{BatchDelay: time.Hour}))
	defer c.Close()
	b := NewBatcher(c)

	const n = 4
	ch := make(chan error, n)
	for i := 0; i < n; i++ {
		b.Push(fmt.Sprintf("k%d", i), 0, []float32{1}, func(err error) { ch <- err })
	}
	b.FlushAsync()
	for i := 0; i < n; i++ {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("async flush never completed")
		}
	}
	b.Close()
}

// TestBatcherCloseFlushesAndRejects checks Close writes the remainder and
// subsequent pushes fail through their done callback.
func TestBatcherCloseFlushesAndRejects(t *testing.T) {
	_, addr := startServer(t, 1)
	c := NewClient(addr, WithConfig(Config{BatchDelay: time.Hour}))
	defer c.Close()
	b := NewBatcher(c)

	ch := make(chan error, 1)
	b.Push("a", 0, []float32{1}, func(err error) { ch <- err })
	b.Close()
	if err := <-ch; err != nil {
		t.Fatalf("close flush: %v", err)
	}
	b.Push("late", 0, []float32{1}, func(err error) { ch <- err })
	if err := <-ch; err == nil {
		t.Fatal("push after Close succeeded")
	}
}

// TestBatchEncodingBounds checks decodeBatch survives truncated and ragged
// payloads without panicking.
func TestBatchEncodingBounds(t *testing.T) {
	subs := []message{
		{Op: OpPush, Key: "k", Iter: 1, Seq: 9, Payload: []byte{1, 2, 3, 4}},
		{Op: OpPull, Key: "k2", Iter: 1, Seq: 10},
	}
	payload, err := appendBatch(nil, subs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Key != "k" || out[1].Seq != 10 {
		t.Fatalf("decodeBatch = %+v", out)
	}
	// A prefix ending exactly on a sub-message boundary is a valid shorter
	// batch; every other cut must be rejected as truncation.
	first, err := appendBatch(nil, subs[:1])
	if err != nil {
		t.Fatal(err)
	}
	boundary := map[int]bool{len(first): true}
	for cut := 1; cut < len(payload); cut++ {
		if boundary[cut] {
			continue
		}
		if _, err := decodeBatch(payload[:cut]); err == nil {
			t.Fatalf("truncated batch at %d accepted", cut)
		}
	}
}

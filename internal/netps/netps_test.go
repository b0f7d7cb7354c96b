package netps

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"bytescheduler/internal/compress"
	"bytescheduler/internal/core"
	"bytescheduler/internal/tensor"
)

func TestProtocolRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := message{Op: OpPull, Iter: 7, Key: "L03/weight[2/4]", Payload: []byte{1, 2, 3, 4}}
	if err := writeMessageVec(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Op != in.Op || out.Iter != in.Iter || out.Key != in.Key || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestProtocolEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeMessageVec(&buf, message{Op: OpPush, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	out, err := readMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Payload) != 0 || out.Key != "k" {
		t.Fatalf("empty payload mishandled: %+v", out)
	}
}

// TestEncodeDecode round-trips a vector through the client's push
// encoding and the pull decode, and checks the decode refuses payloads
// whose size disagrees with the destination.
func TestEncodeDecode(t *testing.T) {
	v := []float32{1.5, -2.25, 0, 3e7, 7}
	c := NewClient("unused")
	m := c.pushMessage("k", 0, v)
	defer m.release()
	got := make([]float32, len(v))
	if err := decodeInto(message{Payload: m.Payload}, got); err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("decode mismatch at %d: %v vs %v", i, got[i], v[i])
		}
	}
	if err := decodeInto(message{Payload: []byte{1, 2, 3}}, make([]float32, 1)); err == nil {
		t.Fatal("ragged payload accepted")
	}
	if err := decodeInto(message{Payload: m.Payload}, make([]float32, len(v)+1)); err == nil {
		t.Fatal("payload shorter than the destination accepted")
	}
}

// encodeF32 is the identity (raw fp32) wire encoding of v.
func encodeF32(v []float32) []byte { return compress.Identity().AppendEncode(nil, v) }

// decodeF32 parses an identity-coded payload.
func decodeF32(p []byte) ([]float32, error) {
	return compress.Identity().AppendDecode(nil, p, len(p)/4)
}

// pull pulls key's n-element aggregate into a fresh vector.
func pull(c *Client, key string, iter uint32, n int) ([]float32, error) {
	out := make([]float32, n)
	return out, c.Pull(key, iter, out)
}

// drained waits until the server has reclaimed every entry, or a second
// has passed, and returns how many are left. The server counts a pull as
// served only after its response write returns, so a client can hold the
// aggregate a moment before the entry is reclaimed; an entry that is
// really leaked stays.
func drained(srv *Server) int {
	deadline := time.Now().Add(time.Second)
	for srv.Outstanding() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return srv.Outstanding()
}

func startServer(t *testing.T, workers int) (*Server, string) {
	t.Helper()
	srv, err := NewServer(workers)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func TestPushPullAggregates(t *testing.T) {
	srv, addr := startServer(t, 2)
	c0, c1 := NewClient(addr), NewClient(addr)
	defer c0.Close()
	defer c1.Close()

	if err := c0.Push("w", 0, []float32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Push("w", 0, []float32{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Client{c0, c1} {
		got, err := pull(c, "w", 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		want := []float32{11, 22, 33}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("aggregated = %v, want %v", got, want)
			}
		}
	}
	if n := drained(srv); n != 0 {
		t.Fatalf("server leaked %d entries", n)
	}
}

func TestPullBlocksUntilAllPush(t *testing.T) {
	_, addr := startServer(t, 2)
	c0, c1 := NewClient(addr), NewClient(addr)
	defer c0.Close()
	defer c1.Close()

	if err := c0.Push("w", 0, []float32{5}); err != nil {
		t.Fatal(err)
	}
	done := make(chan []float32, 1)
	go func() {
		v, err := pull(c0, "w", 0, 1)
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	select {
	case <-done:
		t.Fatal("pull returned before all workers pushed")
	case <-time.After(50 * time.Millisecond):
	}
	if err := c1.Push("w", 0, []float32{7}); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-done:
		if v[0] != 12 {
			t.Fatalf("sum = %v, want 12", v[0])
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pull never unblocked")
	}
	// Drain worker 1's pull so the entry is reclaimed.
	if _, err := pull(c1, "w", 0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestIterationsIsolated(t *testing.T) {
	_, addr := startServer(t, 1)
	c := NewClient(addr)
	defer c.Close()
	for iter := uint32(0); iter < 3; iter++ {
		if err := c.Push("w", iter, []float32{float32(iter)}); err != nil {
			t.Fatal(err)
		}
		got, err := pull(c, "w", iter, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != float32(iter) {
			t.Fatalf("iter %d value %v", iter, got[0])
		}
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(0); err == nil {
		t.Fatal("zero workers accepted")
	}
}

// TestLiveSchedulerOverTCP drives the public live scheduler against the
// real server: two workers, three layers, priority scheduling with real
// sockets, verifying both the aggregation results and completion.
func TestLiveSchedulerOverTCP(t *testing.T) {
	const workers = 2
	srv, addr := startServer(t, workers)

	layerSizes := []int{1024, 4096, 2048} // float32 counts per layer
	results := make([][][]float32, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		results[w] = make([][]float32, len(layerSizes))
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := NewClient(addr)
			defer client.Close()
			sched := core.NewAsync(core.ByteScheduler(4096, 8192))

			var layerWG sync.WaitGroup
			tasks := make([]*core.Task, len(layerSizes))
			for layer, n := range layerSizes {
				layer, n := layer, n
				grad := make([]float32, n)
				for i := range grad {
					grad[i] = float32(w + 1)
				}
				// Allocate up front: partitions of one tensor may run
				// concurrently, so a lazy nil-check inside Start would race.
				results[w][layer] = make([]float32, n)
				layerWG.Add(1)
				tasks[layer] = &core.Task{
					Tensor: tensor.Tensor{Layer: layer, Name: "w", Bytes: int64(4 * n)},
					Start: func(sub tensor.Sub, done func()) {
						key := fmt.Sprintf("L%d[%d/%d]", layer, sub.Index, sub.Count)
						lo := sub.Offset / 4
						hi := lo + sub.Bytes/4
						if err := client.Push(key, 0, grad[lo:hi]); err != nil {
							t.Error(err)
							done()
							return
						}
						if err := client.Pull(key, 0, results[w][layer][lo:hi]); err != nil {
							t.Error(err)
							done()
							return
						}
						done()
					},
					OnFinished: func() { layerWG.Done() },
				}
				if err := sched.Enqueue(tasks[layer]); err != nil {
					t.Error(err)
					layerWG.Done()
				}
			}
			// Backward order, like BP.
			for layer := len(tasks) - 1; layer >= 0; layer-- {
				if err := sched.NotifyReady(tasks[layer]); err != nil {
					t.Error(err)
				}
			}
			layerWG.Wait()
			sched.Shutdown()
		}()
	}
	wg.Wait()

	// Every worker must have received the cross-worker sum 1+2=3.
	for w := 0; w < workers; w++ {
		for layer, n := range layerSizes {
			if len(results[w][layer]) != n {
				t.Fatalf("worker %d layer %d incomplete", w, layer)
			}
			for i, v := range results[w][layer] {
				if v != 3 {
					t.Fatalf("worker %d layer %d[%d] = %v, want 3", w, layer, i, v)
				}
			}
		}
	}
	if n := drained(srv); n != 0 {
		t.Fatalf("server leaked %d entries", n)
	}
}

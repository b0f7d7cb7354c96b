// Micro-benchmarks of the netps hot paths: message framing (the pooled
// header staging buffer and the single writev), batch envelope framing
// into a pooled buffer, the server's pull fast path (the aggregate's
// float32 marshal, computed once per entry instead of once per pull), and
// a whole loopback push+pull round.
//
// Run with:
//
//	go test -bench 'ProtocolEncode|ServerPull|PushPull' -benchmem ./internal/netps/
package netps

import (
	"fmt"
	"io"
	"sync"
	"testing"
)

// BenchmarkProtocolEncode frames one push message (256 KB payload) per
// iteration — the client-side cost of putting a scheduled partition on the
// wire. With the pooled header buffer this is 0 allocs/op.
func BenchmarkProtocolEncode(b *testing.B) {
	m := message{
		Op:      OpPush,
		Iter:    7,
		Seq:     1<<32 | 42,
		Key:     "layer12/weight:3",
		Payload: make([]byte, 256<<10),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeMessageVec(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolEncodeBatch frames a 32-sub-message OpBatch envelope per
// iteration into a pooled buffer: 0 allocs/op regardless of the
// sub-message count.
func BenchmarkProtocolEncodeBatch(b *testing.B) {
	subs := make([]message, 32)
	for i := range subs {
		subs[i] = message{
			Op:      OpPush,
			Iter:    3,
			Seq:     uint64(i + 1),
			Key:     fmt.Sprintf("layer%d/weight:0", i),
			Payload: make([]byte, 8<<10),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := pooledBatch(subs)
		if err != nil {
			b.Fatal(err)
		}
		payloadPool.put(env)
	}
}

// BenchmarkServerPull measures the server's ready-pull fast path: one
// aggregated 64 K-element entry served repeatedly, as happens when many
// workers pull the same completed aggregate. With the per-entry encoded
// cache this is 0 allocs/op; previously every pull re-marshaled the whole
// float32 sum (len(v)*4 bytes per pull).
func BenchmarkServerPull(b *testing.B) {
	srv, err := NewServer(1)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	grad := make([]float32, 64<<10)
	for i := range grad {
		grad[i] = float32(i) * 0.5
	}
	push := message{Op: OpPush, Iter: 1, Seq: 1<<32 | 1, Key: "w", Payload: encodeF32(grad)}
	if resp, _, _ := srv.processPush(push); resp.Op != OpPush {
		b.Fatalf("push rejected: %s", resp.Payload)
	}
	req := message{Op: OpPull, Iter: 1, Key: "w"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		result, wait, errResp := srv.preparePull(req)
		if errResp != nil || wait != nil || len(result.payload) != len(grad)*4 {
			b.Fatal("pull not served from the ready fast path")
		}
	}
}

// BenchmarkProtocolEncodeCodec frames a codec-bearing push (fp16, 128 KB
// compressed from 256 KB) per iteration — the envelope's new codec id and
// original-length fields must not reintroduce allocations.
func BenchmarkProtocolEncodeCodec(b *testing.B) {
	m := message{
		Op:      OpPush,
		Codec:   1, // compress.CodecFP16
		Iter:    7,
		Seq:     1<<32 | 42,
		Orig:    256 << 10,
		Key:     "layer12/weight:3",
		Payload: make([]byte, 128<<10),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeMessageVec(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

// pushPullPair is a two-worker loopback deployment: two clients of one
// server, each pushing and pulling its own n-float vector once per round.
type pushPullPair struct {
	clients [2]*Client
	grads   [2][]float32
	outs    [2][]float32
	iter    uint32
}

func newPushPullPair(tb testing.TB, n int) *pushPullPair {
	tb.Helper()
	srv, err := NewServer(2)
	if err != nil {
		tb.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	p := &pushPullPair{}
	for w := range p.clients {
		p.clients[w] = NewClient(addr, WithClientID(uint32(w+1)))
		p.grads[w], p.outs[w] = make([]float32, n), make([]float32, n)
		for i := range p.grads[w] {
			p.grads[w][i] = float32(w + 1)
		}
	}
	tb.Cleanup(func() {
		for _, c := range p.clients {
			c.Close()
		}
		srv.Close()
	})
	return p
}

// round pushes both vectors and pulls the sum into both outputs.
func (p *pushPullPair) round(tb testing.TB) {
	var wg sync.WaitGroup
	var errs [2]error
	for w := range p.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if errs[w] = p.clients[w].Push("pp", p.iter, p.grads[w]); errs[w] == nil {
				errs[w] = p.clients[w].Pull("pp", p.iter, p.outs[w])
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			tb.Fatal(err)
		}
	}
	if p.outs[0][0] != 3 || p.outs[1][len(p.outs[1])-1] != 3 {
		tb.Fatalf("round %d: pulled %v / %v, want 3", p.iter, p.outs[0][0], p.outs[1][len(p.outs[1])-1])
	}
	p.iter++
}

// BenchmarkPushPull runs one loopback push+pull round of 64 Ki floats per
// worker on a two-worker server per op: both clients' encode, the server's
// read, sum and aggregate encode, and both pulls' decode.
func BenchmarkPushPull(b *testing.B) {
	p := newPushPullPair(b, 64<<10)
	p.round(b) // warm the connection pools and buffer pools
	b.SetBytes(2 * 4 * 64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.round(b)
	}
}

// Micro-benchmarks of the netar hot paths. Every ring hop frames one
// segment, so writeMessage must stay allocation-free (pooled header
// staging) even with the codec envelope fields set; a whole fp16
// collective over loopback must stay near allocation-free too (pooled
// payloads, in-place decode into the caller's output).
//
// Run with:
//
//	go test -bench 'FrameEncode|AllReduceFP16' -benchmem ./internal/netar/
package netar

import (
	"io"
	"sync"
	"testing"

	"bytescheduler/internal/compress"
)

func BenchmarkFrameEncode(b *testing.B) {
	m := message{
		Op:      OpData,
		Codec:   1, // compress.CodecFP16
		Iter:    7,
		Seq:     42,
		Step:    3,
		Chunk:   1,
		Orig:    256 << 10,
		Key:     "layer12/weight:3",
		Payload: make([]byte, 128<<10),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeMessage(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

// fp16RingOp runs one 2-peer fp16 collective of len(in[r]) floats per peer
// and fails tb on any error.
func fp16RingOp(tb testing.TB, peers []*Peer, iter uint32, in, out [][]float32) {
	var wg sync.WaitGroup
	errs := make([]error, len(peers))
	for r := range peers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = peers[r].AllReduce("g", iter, in[r], out[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			tb.Fatalf("rank %d: %v", r, err)
		}
	}
}

// newFP16Ring builds a 2-peer fp16 ring and per-peer input and output
// vectors of n floats.
func newFP16Ring(tb testing.TB, n int) (peers []*Peer, in, out [][]float32) {
	peers = buildRing(tb, 2, WithCodec(compress.FP16Codec()))
	in, out = make([][]float32, 2), make([][]float32, 2)
	for r := range in {
		in[r], out[r] = make([]float32, n), make([]float32, n)
		for i := range in[r] {
			in[r][i] = float32(i%512 - 256)
		}
	}
	return peers, in, out
}

// BenchmarkAllReduceFP16 measures one 2-peer loopback collective of 64 Ki
// floats under the fp16 codec; MB/s counts one peer's fp32 vector.
func BenchmarkAllReduceFP16(b *testing.B) {
	const n = 64 << 10
	peers, in, out := newFP16Ring(b, n)
	fp16RingOp(b, peers, 0, in, out) // warm the pools
	b.SetBytes(4 * n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp16RingOp(b, peers, uint32(i+1), in, out)
	}
}

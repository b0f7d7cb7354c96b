// Fuzz targets for the netps wire protocol. The decoder contract under
// fuzz: arbitrary bytes may produce an error but never a panic, and a
// successfully decoded message must survive a re-encode/re-decode round
// trip bit-for-bit. A second property pins the over-allocation fix: the
// decoder must not allocate anywhere near an adversarial length prefix
// that the stream cannot back with real bytes.
//
// Run continuously with:
//
//	go test ./internal/netps/ -fuzz FuzzDecodeMessage -fuzztime 30s
//	go test ./internal/netps/ -fuzz FuzzDecodeBatch -fuzztime 30s
//
// CI runs a short smoke of each (make fuzz); the committed corpus under
// testdata/fuzz keeps the interesting seeds regression-tested by plain
// `go test`.
package netps

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// frame encodes m exactly as writeMessageVec would, for seeding.
func frame(t testing.TB, m message) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeMessageVec(&b, m); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func FuzzDecodeMessage(f *testing.F) {
	f.Add([]byte{})
	f.Add(frame(f, message{Op: OpPush, Iter: 3, Seq: 9, Key: "w0/L07[0/4]", Payload: []byte{1, 2, 3, 4}}))
	f.Add(frame(f, message{Op: OpPull, Key: "k"}))
	f.Add(frame(f, message{Op: OpErr, Payload: []byte("bad request")}))
	// Codec-bearing frames: fp16 (2 elements), int8 (scale + 3 quanta), and
	// top-k (count 1, index 0) payloads under their envelope codec ids.
	f.Add(frame(f, message{Op: OpPush, Codec: 1, Iter: 5, Seq: 11, Orig: 8,
		Key: "w0/L07[0/4]", Payload: []byte{0x3c, 0x00, 0xbc, 0x00}}))
	f.Add(frame(f, message{Op: OpPush, Codec: 2, Iter: 5, Seq: 12, Orig: 12,
		Key: "w0/L07[1/4]", Payload: []byte{0x3c, 0x81, 0x02, 0x04, 0x7f, 0x81, 0x00}}))
	f.Add(frame(f, message{Op: OpPull, Codec: 3, Iter: 5, Orig: 16,
		Key: "w0/L07[2/4]", Payload: []byte{0, 0, 0, 1, 0, 0, 0, 0, 0x3f, 0x80, 0, 0}}))
	// Cross-iteration frames: with pipelining, iteration i and i+1 frames
	// for the same tensor key interleave on one connection; the iter field
	// is the only discriminator the server's dedup and aggregation see.
	f.Add(frame(f, message{Op: OpPush, Iter: 6, Seq: 20, Key: "w0/L00[0/2]", Payload: []byte{1, 2, 3, 4}}))
	f.Add(frame(f, message{Op: OpPush, Iter: 7, Seq: 21, Key: "w0/L00[0/2]", Payload: []byte{5, 6, 7, 8}}))
	f.Add(frame(f, message{Op: OpPull, Iter: 7, Key: "w0/L00[1/2]"}))
	// Adversarial length prefix: header advertises a near-maxMessage
	// payload backed by nothing.
	huge := frame(f, message{Op: OpPush, Key: "x"})
	binary.BigEndian.PutUint32(huge[len(huge)-4:], maxMessage-1)
	f.Add(huge)
	// Over-limit length prefix.
	over := frame(f, message{Op: OpPush, Key: "x"})
	binary.BigEndian.PutUint32(over[len(over)-4:], maxMessage+1)
	f.Add(over)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readMessage(bytes.NewReader(data))
		if err != nil {
			return // rejected input: fine, as long as it did not panic
		}
		// Round trip: decoded messages must re-encode and re-decode
		// identically.
		var b bytes.Buffer
		if err := writeMessageVec(&b, m); err != nil {
			t.Fatalf("re-encode of decoded message failed: %v", err)
		}
		m2, err := readMessage(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m.Op != m2.Op || m.Codec != m2.Codec || m.Iter != m2.Iter || m.Seq != m2.Seq ||
			m.Orig != m2.Orig || m.Key != m2.Key || !bytes.Equal(m.Payload, m2.Payload) {
			t.Fatalf("round trip diverged: %+v vs %+v", m, m2)
		}
		// The payload can never exceed what the input actually carried.
		if len(m.Payload) > len(data) {
			t.Fatalf("decoded payload %d bytes from %d input bytes", len(m.Payload), len(data))
		}
		// The codec-aware pull decoder must reject adversarial codec ids,
		// original lengths, and payload framing without panicking, for
		// every destination size an fp32, fp16 or int8 payload implies.
		for _, n := range []int{len(m.Payload) / 4, len(m.Payload) / 2, len(m.Payload)} {
			_ = decodeInto(m, make([]float32, n))
		}
	})
}

func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte{})
	one, err := appendBatch(nil, []message{{Op: OpPush, Iter: 1, Seq: 2, Key: "a", Payload: []byte{0, 0, 128, 63}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(one)
	two, err := appendBatch(nil, []message{
		{Op: OpPush, Seq: 3, Key: "w1/L00[0/2]", Payload: []byte{1, 2, 3, 4}},
		{Op: OpPull, Seq: 4, Key: "w1/L00[1/2]"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(two)
	// A pipelined batch: iteration i and i+1 subs for the same key in one
	// envelope, the wire shape two in-flight iterations produce.
	xiter, err := appendBatch(nil, []message{
		{Op: OpPush, Iter: 6, Seq: 5, Key: "w1/L02[0/2]", Payload: []byte{1, 2, 3, 4}},
		{Op: OpPush, Iter: 7, Seq: 6, Key: "w1/L02[0/2]", Payload: []byte{5, 6, 7, 8}},
		{Op: OpPull, Iter: 6, Key: "w1/L02[1/2]"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(xiter)
	// Truncations at every interesting boundary of a valid envelope.
	for _, cut := range []int{1, fixedHeader - 1, fixedHeader, fixedHeader + 1, len(two) - 1} {
		f.Add(two[:cut])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		subs, err := decodeBatch(data)
		if err != nil {
			return
		}
		// Round trip through the envelope encoder.
		re, err := appendBatch(nil, subs)
		if err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("batch round trip diverged:\n in  %x\n out %x", data, re)
		}
		// Sub-payloads alias the envelope; their total length is bounded
		// by the input.
		total := 0
		for _, m := range subs {
			total += len(m.Payload)
		}
		if total > len(data) {
			t.Fatalf("decoded %d payload bytes from %d input bytes", total, len(data))
		}
	})
}

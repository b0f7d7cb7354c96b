// Fuzz target for the netar ring framing. Contract: arbitrary bytes may
// error but never panic, a decoded frame survives an encode/decode round
// trip bit-for-bit, and the decoder never allocates a payload the input
// did not actually carry (the capped-preallocation property).
//
// Run continuously with:
//
//	go test ./internal/netar/ -fuzz FuzzDecodeFrame -fuzztime 30s
//
// CI runs a short smoke (make fuzz); the committed corpus under
// testdata/fuzz keeps interesting seeds regression-tested by plain
// `go test`.
package netar

import (
	"bytes"
	"encoding/binary"
	"testing"

	"bytescheduler/internal/compress"
)

func FuzzDecodeFrame(f *testing.F) {
	frame := func(m message) []byte {
		var b bytes.Buffer
		if err := writeMessage(&b, m); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	f.Add([]byte{})
	f.Add(frame(message{Op: OpData, Iter: 2, Seq: 7, Step: 3, Chunk: 1, Key: "L05[1/4]", Payload: fp32Payload(1, -2, 3.5)}))
	f.Add(frame(message{Op: OpErr, Payload: []byte("pending table full")}))
	f.Add(frame(message{Op: OpData, Key: ""}))
	// Codec-bearing segments: fp16, int8, and top-k payloads under their
	// envelope codec ids and original-length fields.
	f.Add(frame(message{Op: OpData, Codec: 1, Iter: 2, Seq: 8, Step: 3, Chunk: 1, Orig: 8,
		Key: "L05[1/4]", Payload: []byte{0x3c, 0x00, 0xbc, 0x00}}))
	f.Add(frame(message{Op: OpData, Codec: 2, Iter: 2, Seq: 9, Step: 4, Chunk: 2, Orig: 12,
		Key: "L05[2/4]", Payload: []byte{0x3c, 0x81, 0x02, 0x04, 0x7f, 0x81, 0x00}}))
	f.Add(frame(message{Op: OpData, Codec: 3, Iter: 2, Seq: 10, Step: 5, Chunk: 3, Orig: 16,
		Key: "L05[3/4]", Payload: []byte{0, 0, 0, 1, 0, 0, 0, 0, 0x3f, 0x80, 0, 0}}))
	// Cross-iteration segments: with the streaming coordinated release,
	// iteration i and i+1 segments for the same key are in flight at once;
	// the iter field is the only discriminator the pending table sees.
	f.Add(frame(message{Op: OpData, Iter: 3, Seq: 11, Step: 1, Chunk: 0, Key: "L05[1/4]", Payload: fp32Payload(1, 2)}))
	f.Add(frame(message{Op: OpData, Iter: 4, Seq: 12, Step: 1, Chunk: 0, Key: "L05[1/4]", Payload: fp32Payload(3, 4)}))
	// Adversarial length prefix: near-maxMessage advertised, zero carried.
	huge := frame(message{Op: OpData, Key: "x"})
	binary.BigEndian.PutUint32(huge[len(huge)-4:], maxMessage-1)
	f.Add(huge)
	// Over-limit prefix must be rejected outright.
	over := frame(message{Op: OpData, Key: "x"})
	binary.BigEndian.PutUint32(over[len(over)-4:], maxMessage+1)
	f.Add(over)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readMessage(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		if len(m.Payload) > len(data) {
			t.Fatalf("decoded payload %d bytes from %d input bytes", len(m.Payload), len(data))
		}
		var b bytes.Buffer
		if err := writeMessage(&b, m); err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		m2, err := readMessage(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m.Op != m2.Op || m.Codec != m2.Codec || m.Iter != m2.Iter || m.Seq != m2.Seq ||
			m.Step != m2.Step || m.Chunk != m2.Chunk || m.Orig != m2.Orig || m.Key != m2.Key ||
			!bytes.Equal(m.Payload, m2.Payload) {
			t.Fatalf("round trip diverged: %+v vs %+v", m, m2)
		}
		// The codec-aware segment decoder must reject adversarial codec ids,
		// original lengths, and payload framing without panicking. A
		// receiver decodes only after matching the element count to its
		// schedule, so the count is bounded here by the input size.
		if cd, n, err := segmentCodec(m); err == nil && n <= len(data) {
			_, _ = cd.AppendDecode(make([]float32, 0, n), m.Payload, n)
		}
		// Float payloads must decode iff their length is a multiple of 4,
		// and re-encode losslessly (bit patterns, including NaNs).
		id := compress.Identity()
		if fs, err := id.AppendDecode(nil, m.Payload, len(m.Payload)/4); err == nil {
			if re := id.AppendEncode(nil, fs); !bytes.Equal(re, m.Payload) && len(m.Payload) > 0 {
				t.Fatalf("float round trip diverged:\n in  %x\n out %x", m.Payload, re)
			}
		} else if len(m.Payload)%4 == 0 {
			t.Fatalf("aligned payload rejected by the identity codec: %v", err)
		}
	})
}

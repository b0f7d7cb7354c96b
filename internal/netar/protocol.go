// Package netar is a real, wire-level segmented ring all-reduce over TCP
// for the live scheduler: N peers arranged in a ring, each dialing its
// successor and accepting from its predecessor, reducing fp32 tensor
// partitions with the bandwidth-optimal reduce-scatter + all-gather
// schedule — the same collective the simulator's internal/allreduce models
// analytically, but over actual sockets.
//
// It exists so the library's live half (bytescheduler.Scheduler /
// core.AsyncScheduler) has an all-reduce transport to drive end to end,
// closing the gap the paper's generality claim rests on (§3, Table 1):
// the scheduler is architecture-agnostic, but all-reduce pays a
// per-operation synchronization cost — 2(M-1) sequential ring hops plus
// launch overhead — so it wants much larger partitions than PS. With this
// package that trade-off is measurable on a real transport (EXT-RING), not
// just in simulation.
//
// One collective on M peers and n values proceeds in 2(M-1) steps. The
// vector is cut into M near-equal chunks; during reduce-scatter step s,
// peer r sends chunk (r-s) mod M to its successor and accumulates chunk
// (r-s-1) mod M from its predecessor, so after M-1 steps peer r holds the
// fully reduced chunk (r+1) mod M. All-gather then circulates the reduced
// chunks the same way. Each peer moves 2(M-1)/M of the data — the
// bandwidth-optimal schedule the simulator's cost model charges.
//
// Operations are keyed by (key, iteration): peers may issue any number of
// collectives concurrently and in any local order, because ring segments
// are dispatched to per-(key, iter, step) slots rather than assumed to
// arrive in lockstep. Every inbound connection is drained by a dedicated
// reader goroutine, so a step's send can never deadlock against the ring's
// cyclic dependency: the predecessor's reader always consumes.
//
// The transport reuses the netps hardening patterns: per-frame write
// deadlines, bounded dial retry with exponential backoff and deterministic
// jitter, a step-receive timeout so a dead peer surfaces as an error
// instead of a hang, duplicate-segment drops (the Seq-dedup analogue for a
// persistent-connection transport), a bounded pending-slot table so a
// misbehaving peer cannot balloon memory, and graceful Close that fails
// blocked waiters. All knobs live in Config.
package netar

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"bytescheduler/internal/compress"
)

// Op is the wire operation code.
type Op uint8

const (
	// OpData carries one ring segment: the payload of (key, iter) at one
	// schedule step, either a partial sum (reduce-scatter phase) or a fully
	// reduced chunk (all-gather phase).
	OpData Op = 1
	// OpErr is a peer -> peer protocol-error notification; the payload is a
	// UTF-8 message. It lets a peer report "your segment was rejected"
	// before dropping a connection whose framing may be out of sync.
	OpErr Op = 2
)

// maxMessage bounds a single framed message (payload plus header).
const maxMessage = 512 << 20

// maxPrealloc caps the up-front payload allocation while reading a frame:
// a malicious length prefix can make the decoder *work* at most this hard
// before the stream runs dry, never allocate the full advertised size.
// Payloads up to this size read into pooled buffers.
const maxPrealloc = 1 << maxPreallocShift

// maxPreallocShift is log2(maxPrealloc) (4 MB).
const maxPreallocShift = 22

// message is one framed ring segment.
//
//	op(1) codec(1) iter(4) seq(8) step(2) chunk(2) orig(4) keyLen(2) key payloadLen(4) payload
type message struct {
	Op Op
	// Codec is the wire codec id the payload is encoded with
	// (compress.CodecID); 0 is raw fp32, so pre-codec frames parse
	// unchanged.
	Codec uint8
	Iter  uint32
	// Seq is a per-peer monotonic frame counter, for tracing and duplicate
	// diagnostics (a persistent connection does not replay frames the way
	// netps retries do, so Seq is observability, not correctness).
	Seq uint64
	// Step is the position in the 2(M-1)-step collective schedule.
	Step uint16
	// Chunk is the vector chunk index the payload covers; the receiver
	// verifies it against the schedule, catching ring misconfiguration.
	Chunk uint16
	// Orig is the original (uncompressed) fp32 byte length of the segment;
	// 0 when Codec is 0, where the payload length is the original length.
	Orig    uint32
	Key     string
	Payload []byte
	// pooled is Payload's backing buffer when it came from the payload
	// pool; release hands it back.
	pooled *[]byte
}

// release returns the payload buffer to its pool. The message must not be
// used afterwards; messages that were not read from the wire are a no-op.
func (m *message) release() {
	if m.pooled != nil {
		putPayload(m.pooled)
		m.pooled, m.Payload = nil, nil
	}
}

// payloadPools recycle frame payload buffers by power-of-two capacity, 1 B
// up to maxPrealloc: the ring reads every segment into one, and the
// receiver releases it once the segment is decoded, so steady-state frames
// do not allocate.
var payloadPools [maxPreallocShift + 1]sync.Pool

// getPayload returns a pooled buffer of length n (1 <= n <= maxPrealloc).
func getPayload(n int) *[]byte {
	class := bits.Len(uint(n - 1))
	if bp, ok := payloadPools[class].Get().(*[]byte); ok {
		*bp = (*bp)[:n]
		return bp
	}
	b := make([]byte, n, 1<<class)
	return &b
}

// putPayload returns a buffer from getPayload to its pool.
func putPayload(bp *[]byte) { payloadPools[bits.Len(uint(cap(*bp)-1))].Put(bp) }

// fixedHeader is the length of the constant-size header prefix.
const fixedHeader = 1 + 1 + 4 + 8 + 2 + 2 + 4 + 2

// headerPool recycles the frame-header staging buffer so steady-state
// writes do not allocate (writeMessage is on every ring hop's hot path).
var headerPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// writeMessage frames and writes one message. With the pooled header
// staging buffer this is 0 allocs/op in steady state.
func writeMessage(w io.Writer, m message) error {
	if len(m.Key) > 1<<16-1 {
		return fmt.Errorf("netar: key too long (%d bytes)", len(m.Key))
	}
	if len(m.Payload) > maxMessage {
		return fmt.Errorf("netar: payload too large (%d bytes)", len(m.Payload))
	}
	bp := headerPool.Get().(*[]byte)
	need := fixedHeader + len(m.Key) + 4
	if cap(*bp) < need {
		*bp = make([]byte, 0, need)
	}
	hdr := (*bp)[:need]
	hdr[0] = byte(m.Op)
	hdr[1] = m.Codec
	binary.BigEndian.PutUint32(hdr[2:6], m.Iter)
	binary.BigEndian.PutUint64(hdr[6:14], m.Seq)
	binary.BigEndian.PutUint16(hdr[14:16], m.Step)
	binary.BigEndian.PutUint16(hdr[16:18], m.Chunk)
	binary.BigEndian.PutUint32(hdr[18:22], m.Orig)
	binary.BigEndian.PutUint16(hdr[22:24], uint16(len(m.Key)))
	copy(hdr[fixedHeader:], m.Key)
	binary.BigEndian.PutUint32(hdr[fixedHeader+len(m.Key):], uint32(len(m.Payload)))
	_, err := w.Write(hdr)
	*bp = hdr[:0]
	headerPool.Put(bp)
	if err != nil {
		return err
	}
	if len(m.Payload) > 0 {
		if _, err := w.Write(m.Payload); err != nil {
			return err
		}
	}
	return nil
}

// readPayload reads exactly n payload bytes with the up-front allocation
// capped at maxPrealloc: payloads up to the cap read into a pooled buffer
// (returned as pooled), larger ones grow with the bytes that actually
// arrive, so an adversarial length prefix cannot force a giant allocation
// before the stream runs dry.
func readPayload(r io.Reader, n int) (payload []byte, pooled *[]byte, err error) {
	if n <= 0 {
		return nil, nil, nil
	}
	if n <= maxPrealloc {
		bp := getPayload(n)
		if _, err := io.ReadFull(r, *bp); err != nil {
			putPayload(bp)
			return nil, nil, err
		}
		return *bp, bp, nil
	}
	var b bytes.Buffer
	b.Grow(maxPrealloc)
	if _, err := io.CopyN(&b, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, nil, err
	}
	return b.Bytes(), nil, nil
}

// readMessage reads one framed message. It returns an error — never
// panics, never allocates beyond the bytes actually received — on
// truncated or adversarial input (FuzzDecodeMessage enforces this).
func readMessage(r io.Reader) (message, error) {
	var fixed [fixedHeader]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return message{}, err
	}
	m := message{
		Op:    Op(fixed[0]),
		Codec: fixed[1],
		Iter:  binary.BigEndian.Uint32(fixed[2:6]),
		Seq:   binary.BigEndian.Uint64(fixed[6:14]),
		Step:  binary.BigEndian.Uint16(fixed[14:16]),
		Chunk: binary.BigEndian.Uint16(fixed[16:18]),
		Orig:  binary.BigEndian.Uint32(fixed[18:22]),
	}
	keyLen := int(binary.BigEndian.Uint16(fixed[22:24]))
	buf := make([]byte, keyLen+4)
	if _, err := io.ReadFull(r, buf); err != nil {
		return message{}, err
	}
	m.Key = string(buf[:keyLen])
	payloadLen := binary.BigEndian.Uint32(buf[keyLen:])
	if payloadLen > maxMessage {
		return message{}, fmt.Errorf("netar: payload length %d exceeds limit", payloadLen)
	}
	var err error
	m.Payload, m.pooled, err = readPayload(r, int(payloadLen))
	if err != nil {
		return message{}, err
	}
	return m, nil
}

// segmentCodec resolves a segment's codec and element count from its
// envelope: codec 0 is raw fp32 (the payload length fixes the count),
// anything else decodes Orig/4 elements through the identified codec.
func segmentCodec(m message) (compress.Codec, int, error) {
	if m.Codec == 0 {
		if len(m.Payload)%4 != 0 {
			return compress.Codec{}, 0, fmt.Errorf("netar: payload not a float32 vector (%d bytes)", len(m.Payload))
		}
		return compress.Identity(), len(m.Payload) / 4, nil
	}
	cd, err := compress.CodecByID(compress.CodecID(m.Codec))
	if err != nil {
		return compress.Codec{}, 0, fmt.Errorf("netar: segment: %v", err)
	}
	// Orig 0 is an empty chunk: a vector shorter than the ring.
	if m.Orig%4 != 0 {
		return compress.Codec{}, 0, fmt.Errorf("netar: segment original length %d not a multiple of 4", m.Orig)
	}
	return cd, int(m.Orig / 4), nil
}

// chunkBounds cuts a vector of n values into m near-equal chunks and
// returns the m+1 boundary indices: chunk c covers [bounds[c], bounds[c+1]).
// The first n%m chunks get one extra value, so sizes differ by at most one
// and every peer computes identical boundaries independently.
func chunkBounds(n, m int) []int {
	bounds := make([]int, m+1)
	q, rem := n/m, n%m
	off := 0
	for c := 0; c < m; c++ {
		bounds[c] = off
		off += q
		if c < rem {
			off++
		}
	}
	bounds[m] = off
	return bounds
}

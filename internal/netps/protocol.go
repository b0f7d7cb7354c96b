// Package netps is a real, wire-level parameter server over TCP for the
// live scheduler: a sharded key-value store that aggregates pushed fp32
// gradient partitions across workers and serves pulls once aggregation
// completes — the same push/update/pull contract as the simulated
// substrate, but over actual sockets.
//
// It exists so the library's live half (bytescheduler.Scheduler /
// core.AsyncScheduler) has a concrete transport to drive end to end: a
// worker wraps each tensor partition as a CommTask whose Start pushes to
// and pulls from this server. The framing is deliberately minimal
// (length-prefixed binary, one request per round trip per connection) —
// the scheduler above it, not the RPC layer, is the point.
//
// The transport is failure-hardened for the live path: clients carry
// per-request read/write deadlines, bounded retry with exponential backoff
// and deterministic jitter, and redial pooled connections the server closed
// while they sat idle; servers deduplicate replayed pushes by request
// sequence number, answer application errors with OpErr instead of dropping
// the connection, and fail blocked pull waiters on Close instead of leaking
// them. All client-side knobs — deadlines, retry budget, backoff shape,
// batching thresholds — live in Config. See DESIGN.md, "Fault model &
// degradation".
//
// Because §2.2's cost model charges a per-message overhead θ on every
// transfer, small scheduled partitions are wire-inefficient one request at
// a time. The OpBatch envelope coalesces many push/pull sub-messages into
// one frame (Client.PushBatch / Client.PullBatch); Batcher queues pushes
// and flushes on size, deadline, or the scheduler's flush hook
// (FlushAsync), so one wire round trip carries a whole releasing pass.
// Per-sub-message sequence numbers stay stable across envelope retries,
// keeping server-side dedup exact for batches too.
package netps

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
)

// Op is the wire operation code.
type Op uint8

const (
	// OpPush carries a gradient partition worker -> server.
	OpPush Op = 1
	// OpPull requests the aggregated partition server -> worker; the
	// response is delayed until aggregation completes.
	OpPull Op = 2
	// OpErr is a server -> worker error response: the payload is a UTF-8
	// message. It replaces silently dropping the connection on application
	// errors, so clients can tell "request rejected" from "peer died".
	OpErr Op = 3
	// OpBatch coalesces several push/pull sub-requests to the same server
	// under one framed write, amortizing the per-message overhead θ the
	// paper's §2.2 cost model charges every transfer. The payload is a
	// concatenation of framed sub-messages (same wire format, recursively);
	// the response is one OpBatch frame whose payload concatenates the
	// framed sub-responses in request order. Each sub-request keeps its own
	// Seq, stable across batch retries, so server-side push deduplication
	// works per sub-message exactly as it does for singletons.
	OpBatch Op = 4
)

// maxMessage bounds a single framed message (payload plus header).
const maxMessage = 512 << 20

// maxPrealloc caps the up-front payload allocation while reading a frame:
// a malicious length prefix can make the decoder *work* at most this hard
// before the stream runs dry, never allocate the full advertised size.
const maxPrealloc = 1 << maxPreallocShift

// maxPreallocShift is log2(maxPrealloc) (4 MB).
const maxPreallocShift = 22

// header is the fixed-size request/response prefix.
//
//	op(1) codec(1) iter(4) seq(8) orig(4) keyLen(2) key payloadLen(4) payload
type message struct {
	Op Op
	// Codec is the wire-codec id (compress.CodecID) the payload is encoded
	// with; 0 is raw fp32, so every pre-codec frame parses unchanged.
	Codec uint8
	Iter  uint32
	// Seq identifies the logical request. A client keeps the same Seq when
	// it retries a request on a new connection, so the server can
	// deduplicate pushes whose first attempt was processed but whose
	// acknowledgement was lost (gradient sums are not idempotent).
	// Responses echo the request's Seq.
	Seq uint64
	// Orig is the original (uncompressed) payload byte length when Codec is
	// non-zero — the receiver needs the element count to decode (fp16/int8
	// sizes derive from it; top-k zero-fills to it). Zero when Codec is 0.
	Orig    uint32
	Key     string
	Payload []byte
	// blocking marks a request whose response may legitimately wait on
	// cross-worker aggregation (a pull, or a batch containing one), so the
	// client applies the pull read deadline instead of the push deadline.
	// Not serialized.
	blocking bool
	// pooled is Payload's backing buffer when it came from payloadPool
	// (a frame read off the wire, or a client push encoded into one);
	// release hands it back. Not serialized.
	pooled *[]byte
}

// release returns the payload buffer to its pool. Neither the message nor
// any view into its payload (batch sub-messages included) may be used
// afterwards; messages whose payload is not pooled are a no-op.
func (m *message) release() {
	if m.pooled != nil {
		payloadPool.put(m.pooled)
		m.pooled, m.Payload = nil, nil
	}
}

// classPool recycles slices by power-of-two capacity class, one element up
// to maxPrealloc elements; larger requests are allocated exactly and never
// pooled. Entries are *[]T so Put does not box a slice header.
type classPool[T any] struct {
	classes [maxPreallocShift + 1]sync.Pool
}

// get returns a buffer of length n whose contents are unspecified.
func (p *classPool[T]) get(n int) *[]T {
	if n > maxPrealloc {
		b := make([]T, n)
		return &b
	}
	class := bits.Len(uint(max(n, 1) - 1))
	if bp, ok := p.classes[class].Get().(*[]T); ok {
		*bp = (*bp)[:n]
		return bp
	}
	b := make([]T, n, 1<<class)
	return &b
}

// put returns a buffer from get to its class.
func (p *classPool[T]) put(bp *[]T) {
	if c := cap(*bp); c > 0 && c <= maxPrealloc && c&(c-1) == 0 {
		p.classes[bits.Len(uint(c-1))].Put(bp)
	}
}

// payloadPool holds frame payloads: pushes the client encodes, batch
// envelopes either side frames, and every payload read off the wire. The
// owner releases each once the round trip or the request is done (see
// message.release), so steady-state frames do not allocate.
var payloadPool classPool[byte]

// fixedHeader is the length of the constant-size header prefix.
const fixedHeader = 1 + 1 + 4 + 8 + 4 + 2

// putFixed serializes the constant-size header prefix of m into
// hdr[:fixedHeader] followed by the key and the payload length — the one
// header layout every frame uses. hdr must be fixedHeader+len(key)+4 bytes.
func putFixed(hdr []byte, m message, payloadLen int) {
	hdr[0] = byte(m.Op)
	hdr[1] = m.Codec
	binary.BigEndian.PutUint32(hdr[2:6], m.Iter)
	binary.BigEndian.PutUint64(hdr[6:14], m.Seq)
	binary.BigEndian.PutUint32(hdr[14:18], m.Orig)
	binary.BigEndian.PutUint16(hdr[18:20], uint16(len(m.Key)))
	copy(hdr[fixedHeader:], m.Key)
	binary.BigEndian.PutUint32(hdr[fixedHeader+len(m.Key):], uint32(payloadLen))
}

// parseFixed deserializes the constant-size prefix (the inverse of
// putFixed's first fixedHeader bytes) and returns the key length.
func parseFixed(fixed []byte) (message, int) {
	m := message{
		Op:    Op(fixed[0]),
		Codec: fixed[1],
		Iter:  binary.BigEndian.Uint32(fixed[2:6]),
		Seq:   binary.BigEndian.Uint64(fixed[6:14]),
		Orig:  binary.BigEndian.Uint32(fixed[14:18]),
	}
	return m, int(binary.BigEndian.Uint16(fixed[18:20]))
}

// frameLen returns the framed size of m carrying a payloadLen-byte
// payload, rejecting keys and payloads the header cannot represent.
func frameLen(m message, payloadLen int) (int, error) {
	if len(m.Key) > 1<<16-1 {
		return 0, fmt.Errorf("netps: key too long (%d bytes)", len(m.Key))
	}
	if payloadLen > maxMessage {
		return 0, fmt.Errorf("netps: payload too large (%d bytes)", payloadLen)
	}
	return fixedHeader + len(m.Key) + 4 + payloadLen, nil
}

// appendHeader appends m's header, announcing a payloadLen-byte payload
// the caller appends next — how a batch is framed in place, each payload
// encoded straight into the envelope behind its header.
func appendHeader(buf []byte, m message, payloadLen int) []byte {
	n := len(buf)
	buf = append(buf, make([]byte, fixedHeader+len(m.Key)+4)...)
	putFixed(buf[n:], m, payloadLen)
	return buf
}

// batchLen returns the size of the OpBatch payload framing subs.
func batchLen(subs []message) (int, error) {
	total := 0
	for _, m := range subs {
		n, err := frameLen(m, len(m.Payload))
		if err != nil {
			return 0, err
		}
		total += n
	}
	if total > maxMessage {
		return 0, fmt.Errorf("netps: batch payload too large (%d bytes)", total)
	}
	return total, nil
}

// appendBatch frames sub-messages into one OpBatch payload appended to
// dst; with batchLen(subs) spare capacity it does not allocate.
func appendBatch(dst []byte, subs []message) ([]byte, error) {
	if _, err := batchLen(subs); err != nil {
		return nil, err
	}
	for _, m := range subs {
		dst = appendHeader(dst, m, len(m.Payload))
		dst = append(dst, m.Payload...)
	}
	return dst, nil
}

// pooledBatch frames subs into a pooled envelope buffer; the caller
// releases it with payloadPool.put once the envelope is written.
func pooledBatch(subs []message) (*[]byte, error) {
	n, err := batchLen(subs)
	if err != nil {
		return nil, err
	}
	env := payloadPool.get(n)
	*env, _ = appendBatch((*env)[:0], subs) // batchLen already validated subs
	return env, nil
}

// decodeBatch parses an OpBatch payload back into its framed sub-messages.
func decodeBatch(payload []byte) ([]message, error) {
	var subs []message
	off := 0
	for off < len(payload) {
		if len(payload)-off < fixedHeader {
			return nil, fmt.Errorf("netps: truncated batch sub-header at offset %d", off)
		}
		m, keyLen := parseFixed(payload[off : off+fixedHeader])
		off += fixedHeader
		if len(payload)-off < keyLen+4 {
			return nil, fmt.Errorf("netps: truncated batch sub-key at offset %d", off)
		}
		m.Key = string(payload[off : off+keyLen])
		off += keyLen
		payloadLen := int(binary.BigEndian.Uint32(payload[off : off+4]))
		off += 4
		if payloadLen > maxMessage || len(payload)-off < payloadLen {
			return nil, fmt.Errorf("netps: truncated batch sub-payload at offset %d", off)
		}
		if payloadLen > 0 {
			m.Payload = payload[off : off+payloadLen : off+payloadLen]
		}
		off += payloadLen
		subs = append(subs, m)
	}
	return subs, nil
}

// headerPool recycles the header staging buffers of writeMessageVec and
// readMessage. Headers are fixedHeader + key + 4 bytes — small and
// extremely hot (two per RPC on the live path) — so pooling removes one
// allocation per framed write and read. The pool stores *[]byte, not
// []byte, so Put does not itself allocate an interface box for the slice
// header.
var headerPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// stage returns a pooled scratch buffer of length n.
func stage(n int) *[]byte {
	bp := headerPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// vecPool recycles the two-element net.Buffers used by writeMessageVec.
// Stored as a pointer for the same no-box reason as headerPool.
var vecPool = sync.Pool{
	New: func() any {
		v := make(net.Buffers, 0, 2)
		return &v
	},
}

// writeMessageVec frames and writes one message with a scatter-gather
// write: header and payload go out in a single writev, without copying the
// payload into the header buffer. Every frame either side sends takes this
// path. The pooled header is retained until the write completes
// (net.Buffers may consume it incrementally), then recycled — steady-state
// framing does not allocate.
func writeMessageVec(w io.Writer, m message) error {
	n, err := frameLen(m, len(m.Payload))
	if err != nil {
		return err
	}
	bp := stage(n - len(m.Payload))
	hdr := *bp
	putFixed(hdr, m, len(m.Payload))
	if len(m.Payload) == 0 {
		_, err := w.Write(hdr)
		headerPool.Put(bp)
		return err
	}
	vp := vecPool.Get().(*net.Buffers)
	bufs := append((*vp)[:0], hdr, m.Payload)
	*vp = bufs
	_, err = vp.WriteTo(w)
	// WriteTo consumes the Buffers it is called on — it advances *vp to
	// zero length AND zero capacity. Restore the pooled slice from the
	// pre-consume header so the pool keeps the backing array; pooling the
	// consumed cap-0 slice would make every subsequent frame reallocate
	// the two-element array (the pool would recycle nothing).
	bufs[0], bufs[1] = nil, nil // drop payload references before pooling
	*vp = bufs[:0]
	vecPool.Put(vp)
	headerPool.Put(bp)
	return err
}

// readPayload reads exactly n payload bytes with the up-front allocation
// capped at maxPrealloc: payloads up to the cap read into a payloadPool
// buffer (returned as pooled), larger ones grow with the bytes that
// actually arrive, so an adversarial length prefix cannot force a giant
// allocation before the stream runs dry.
func readPayload(r io.Reader, n int) (payload []byte, pooled *[]byte, err error) {
	if n <= 0 {
		return nil, nil, nil
	}
	if n <= maxPrealloc {
		bp := payloadPool.get(n)
		if _, err := io.ReadFull(r, *bp); err != nil {
			payloadPool.put(bp)
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
// truncated or adversarial input (FuzzDecodeMessage enforces this). The
// payload is pooled: the caller owns it and releases the message when
// done with it.
func readMessage(r io.Reader) (message, error) {
	// The header is staged in a pooled buffer: a local array would escape
	// to the heap through the io.Reader call.
	bp := stage(fixedHeader)
	defer headerPool.Put(bp)
	if _, err := io.ReadFull(r, *bp); err != nil {
		return message{}, err
	}
	m, keyLen := parseFixed(*bp)
	if cap(*bp) < keyLen+4 {
		*bp = make([]byte, keyLen+4)
	}
	buf := (*bp)[:keyLen+4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return message{}, err
	}
	m.Key = string(buf[:keyLen])
	payloadLen := binary.BigEndian.Uint32(buf[keyLen:])
	if payloadLen > maxMessage {
		return message{}, fmt.Errorf("netps: payload length %d exceeds limit", payloadLen)
	}
	var err error
	if m.Payload, m.pooled, err = readPayload(r, int(payloadLen)); err != nil {
		return message{}, err
	}
	return m, nil
}

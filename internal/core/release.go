package core

import (
	"fmt"
	"slices"
)

// StreamReleaser turns a deterministic emission stream of tasks into a
// deterministic release stream, re-ordered by a priority function inside a
// bounded lookahead window. It exists for cross-iteration pipelining on
// coordinated transports (the segmented ring all-reduce): ring collectives
// block until every peer has issued them, so under a credit window all
// peers must admit partitions in one gap-free total order or they deadlock.
// The pre-existing safe protocol holds every task until the backward pass
// ends and releases the pass atomically — deadlock-free, but it forbids
// overlapping iteration i's backward compute with its communication, and
// iteration i+1's forward-blocking transfers with iteration i's tail.
//
// The releaser restores that overlap without giving up agreement. Each peer
// feeds it the same emission sequence (backward passes emit back-to-front,
// passes in iteration order — identical on every worker by construction),
// holds at most Window tasks, and whenever the buffer overflows (or Flush
// drains a pass boundary) releases the buffered task the priority function
// likes best, stamping it with the next value of a strictly increasing
// release counter. Because the emission sequence, the window and the
// priority function are identical across peers, every peer computes the
// identical release sequence, and the stamped counter is a total order all
// peers agree on — across iterations too, since the counter never resets.
// Using the stamp as the scheduler priority (LayerPriority over the stamped
// Tensor.Layer) makes each peer admit in that agreed order, which keeps the
// gap-free-prefix deadlock-freedom argument of the atomic release while
// tasks now reach the scheduler mid-backward-pass.
//
// Window trades overlap against reordering quality: Window >= layers
// degenerates to the pass-end sort (full reordering, no overlap before
// Flush), Window = 1 is FIFO streaming one emission behind, and Window = 0
// releases every task at its Emit with no buffering at all — the plain
// streaming path, where the releaser only numbers the stream.
// The releaser is not goroutine-safe; each worker owns one and calls it
// from its compute loop, like the scheduler it feeds.
type StreamReleaser struct {
	window  int
	prio    func(t *Task) int64
	release func(t *Task, rank int64) error
	buf     []streamEntry
	next    int64
	emitted int64
}

type streamEntry struct {
	task *Task
	prio int64
	seq  int64 // emission order, the deterministic tie-break
}

// NewStreamReleaser builds a releaser with the given lookahead window.
// prio orders buffered tasks (lower first, ties broken by emission order);
// release receives each task with its agreed rank, in rank order.
func NewStreamReleaser(window int, prio func(t *Task) int64, release func(t *Task, rank int64) error) (*StreamReleaser, error) {
	if window < 0 {
		return nil, fmt.Errorf("core: stream window %d, want >= 0", window)
	}
	if prio == nil || release == nil {
		return nil, fmt.Errorf("core: stream releaser needs prio and release functions")
	}
	return &StreamReleaser{
		window:  window,
		prio:    prio,
		release: release,
		buf:     make([]streamEntry, 0, window),
	}, nil
}

// Emit hands a task to the lookahead buffer. If the buffer is already
// full, the best buffered task is released first with the next agreed
// rank, so the buffer never holds more than Window tasks. Any release
// error is returned; the task that failed to release is dropped from the
// buffer either way so a failed transport cannot wedge the window.
func (r *StreamReleaser) Emit(t *Task) error {
	if r.window == 0 {
		return r.releaseNext(t)
	}
	var err error
	if len(r.buf) >= r.window {
		err = r.releaseBest()
	}
	r.buf = append(r.buf, streamEntry{task: t, prio: r.prio(t), seq: r.emitted})
	r.emitted++
	return err
}

// Flush drains the buffer in priority order. Workers call it at the end of
// every backward pass so the lookahead window never straddles the pass
// boundary — the flush point is part of the deterministic sequence all
// peers share. The first release error is returned; draining continues
// regardless.
func (r *StreamReleaser) Flush() error {
	var first error
	for len(r.buf) > 0 {
		if err := r.releaseBest(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Released reports how many tasks have been released so far — also the
// next agreed rank to be assigned.
func (r *StreamReleaser) Released() int64 { return r.next }

// Buffered reports how many emitted tasks are still held in the window.
func (r *StreamReleaser) Buffered() int { return len(r.buf) }

func (r *StreamReleaser) releaseBest() error {
	best := 0
	for i := 1; i < len(r.buf); i++ {
		if r.buf[i].prio < r.buf[best].prio ||
			(r.buf[i].prio == r.buf[best].prio && r.buf[i].seq < r.buf[best].seq) {
			best = i
		}
	}
	t := r.buf[best].task
	r.buf = slices.Delete(r.buf, best, best+1)
	return r.releaseNext(t)
}

// releaseNext releases t with the next agreed rank.
func (r *StreamReleaser) releaseNext(t *Task) error {
	rank := r.next
	r.next++
	return r.release(t, rank)
}

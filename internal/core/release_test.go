package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"bytescheduler/internal/tensor"
)

func layerTask(l int) *Task {
	return &Task{Tensor: tensor.Tensor{Layer: l, Name: "g", Bytes: 1}}
}

// emitPass feeds one backward pass (layers back-to-front) through the
// releaser and flushes at the pass boundary, mirroring the live worker.
func emitPass(t *testing.T, r *StreamReleaser, layers int) {
	t.Helper()
	for l := layers - 1; l >= 0; l-- {
		if err := r.Emit(layerTask(l)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
}

func recordingReleaser(t *testing.T, window int, ranks []int64) (*StreamReleaser, *[]int) {
	t.Helper()
	var order []int
	r, err := NewStreamReleaser(window,
		func(tk *Task) int64 { return ranks[tk.Tensor.Layer] },
		func(tk *Task, rank int64) error {
			if rank != int64(len(order)) {
				t.Fatalf("rank %d out of order at release %d", rank, len(order))
			}
			order = append(order, tk.Tensor.Layer)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return r, &order
}

func TestStreamReleaserValidation(t *testing.T) {
	if _, err := NewStreamReleaser(-1, func(*Task) int64 { return 0 }, func(*Task, int64) error { return nil }); err == nil {
		t.Fatal("negative window accepted")
	}
	if _, err := NewStreamReleaser(1, nil, func(*Task, int64) error { return nil }); err == nil {
		t.Fatal("nil prio accepted")
	}
	if _, err := NewStreamReleaser(1, func(*Task) int64 { return 0 }, nil); err == nil {
		t.Fatal("nil release accepted")
	}
}

// TestStreamReleaserWindowZero pins the unbuffered case the uncoordinated
// live path uses: every Emit releases its own task at once, in emission
// order, whatever the priorities, and Flush has nothing left to drain.
func TestStreamReleaserWindowZero(t *testing.T) {
	r, order := recordingReleaser(t, 0, []int64{4, 3, 2, 1, 0})
	for l := 0; l < 5; l++ {
		if err := r.Emit(layerTask(l)); err != nil {
			t.Fatal(err)
		}
		if got := r.Released(); got != int64(l+1) {
			t.Fatalf("after emit %d: released %d, want %d", l, got, l+1)
		}
		if r.Buffered() != 0 {
			t.Fatalf("window 0 buffered %d tasks", r.Buffered())
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(*order, want) {
		t.Fatalf("window-0 release order = %v, want emission order %v", *order, want)
	}
}

// TestStreamReleaserWindowOne pins the FIFO degenerate case: with a window
// of one, every emission releases the previously buffered task, so the
// release order is the emission order regardless of priorities.
func TestStreamReleaserWindowOne(t *testing.T) {
	r, order := recordingReleaser(t, 1, LayerRanks(5))
	emitPass(t, r, 5)
	if want := []int{4, 3, 2, 1, 0}; !reflect.DeepEqual(*order, want) {
		t.Fatalf("window-1 release order = %v, want emission order %v", *order, want)
	}
}

// TestStreamReleaserFullWindow pins the pass-end degenerate case: a window
// at least as large as the pass holds everything until Flush, which drains
// in priority order — identical to the atomic pass-end release.
func TestStreamReleaserFullWindow(t *testing.T) {
	r, order := recordingReleaser(t, 5, LayerRanks(5))
	for l := 4; l >= 0; l-- {
		if err := r.Emit(layerTask(l)); err != nil {
			t.Fatal(err)
		}
		if got := r.Released(); got != 0 {
			t.Fatalf("released %d tasks before flush", got)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(*order, want) {
		t.Fatalf("full-window release order = %v, want priority order %v", *order, want)
	}
}

// TestStreamReleaserBoundedLookahead checks the interesting middle: a
// window of 2 over a 4-layer backward pass (emitted 3,2,1,0 with layer
// ranks) can only look two tasks ahead, so it releases the best of each
// overflowing buffer rather than the global best.
func TestStreamReleaserBoundedLookahead(t *testing.T) {
	r, order := recordingReleaser(t, 2, LayerRanks(4))
	emitPass(t, r, 4)
	// Buffer evolution: [3 2] -> emit 1 overflows, release best of {3,2}
	// = 2 -> [3 1] -> emit 0 overflows, release 1 -> [3 0] -> flush
	// releases 0 then 3.
	if want := []int{2, 1, 0, 3}; !reflect.DeepEqual(*order, want) {
		t.Fatalf("bounded release order = %v, want %v", *order, want)
	}
}

// TestStreamReleaserAgreement is the coordinated-release property: peers
// that feed identical emission sequences through identically configured
// releasers compute identical (task, rank) sequences, even across multiple
// passes — the ranks keep increasing, so two in-flight iterations share
// one agreed total order.
func TestStreamReleaserAgreement(t *testing.T) {
	ranks := RandomRanks(3, 6)
	type release struct {
		layer int
		rank  int64
	}
	run := func() []release {
		var got []release
		r, err := NewStreamReleaser(3,
			func(tk *Task) int64 { return ranks[tk.Tensor.Layer] },
			func(tk *Task, rank int64) error {
				got = append(got, release{tk.Tensor.Layer, rank})
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 3; pass++ {
			emitPass(t, r, 6)
		}
		if r.Buffered() != 0 {
			t.Fatalf("%d tasks left buffered after flush", r.Buffered())
		}
		return got
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("peers disagree on release order:\n%v\n%v", a, b)
	}
	for i, rel := range a {
		if rel.rank != int64(i) {
			t.Fatalf("rank sequence has a gap at %d: %v", i, a[:i+1])
		}
	}
}

// TestStreamReleaserTieBreak pins determinism under equal priorities: ties
// release in emission order.
func TestStreamReleaserTieBreak(t *testing.T) {
	r, order := recordingReleaser(t, 4, []int64{0, 0, 0, 0})
	emitPass(t, r, 4)
	if want := []int{3, 2, 1, 0}; !reflect.DeepEqual(*order, want) {
		t.Fatalf("tied release order = %v, want emission order %v", *order, want)
	}
}

func TestStreamReleaserErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	r, err := NewStreamReleaser(1,
		func(*Task) int64 { return 0 },
		func(tk *Task, _ int64) error {
			calls++
			if tk.Tensor.Layer == 0 {
				return fmt.Errorf("layer 0: %w", boom)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// Window 1 with tied priorities releases in emission order, so layer 0
	// is still buffered when the pass ends and fails during Flush.
	for l := 3; l >= 0; l-- {
		if err := r.Emit(layerTask(l)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err == nil || !errors.Is(err, boom) {
		t.Fatalf("flush error = %v, want wrapped boom", err)
	}
	if r.Buffered() != 0 {
		t.Fatal("error left tasks buffered")
	}
	if calls != 4 {
		t.Fatalf("released %d tasks, want all 4 despite the error", calls)
	}
}

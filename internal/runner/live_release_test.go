package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bytescheduler/internal/core"
	"bytescheduler/internal/metrics"
)

// fusionLayers is a profile whose small tail forms several fusion buckets
// per pass at fusionTheta, interleaved with pass-through layers.
var fusionLayers = []int64{16 << 10, 512, 256, 512, 8 << 10, 512, 256, 512, 24 << 10, 256, 512, 128}

const fusionTheta = 1 << 10

// runLiveWithin runs cfg and fails the test if it has not returned within
// d: a cross-worker deadlock otherwise hangs until the test binary's
// timeout.
func runLiveWithin(t *testing.T, cfg LiveConfig, d time.Duration) LiveResult {
	t.Helper()
	type outcome struct {
		res LiveResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := RunLive(cfg)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.res
	case <-time.After(d):
		t.Fatalf("run did not finish within %v (deadlock)", d)
	}
	return LiveResult{}
}

// TestRunLiveFusionComposes runs tensor fusion under every release
// discipline: both backends, every pipeline mode, a rotating priority
// strategy and tight credit windows. Each worker checks its sums exactly,
// and the fused-task counter proves buckets formed.
func TestRunLiveFusionComposes(t *testing.T) {
	prios := []core.PriorityPolicy{core.PriorityLayer, core.PriorityCriticalPath, core.PriorityRandom}
	n := 0
	for _, backend := range []LiveBackend{LiveBackendPS, LiveBackendRing} {
		for _, mode := range []PipelineMode{PipelineAuto, PipelineOn, PipelineOff} {
			for _, credit := range []int64{1, 4 << 10} {
				cfg := liveBase(backend)
				cfg.LayerBytes = fusionLayers
				cfg.FuseTheta = fusionTheta
				// Partitions smaller than a bucket split fused transfers too.
				cfg.Policy = core.ByteScheduler(1<<10, credit)
				cfg.Priority = prios[n%len(prios)]
				cfg.Pipeline = mode
				cfg.Iterations, cfg.Warmup = 4, 1
				reg := metrics.NewRegistry()
				cfg.Metrics = reg
				n++
				t.Run(fmt.Sprintf("%v/%v/%v/credit=%d", backend, mode, cfg.Priority, credit), func(t *testing.T) {
					runLiveWithin(t, cfg, time.Minute)
					if reg.Counter("core_fused_tasks_total").Value() == 0 {
						t.Fatal("no fused buckets formed")
					}
				})
			}
		}
	}
}

// TestRunLivePSFusedTightCredit pins the fused credit contract on the PS
// backend: fused pushes return credit at the push-ack, like plain ones.
// Were a fused transfer to hold credit through its blocking pull, then
// with several buckets per pass, a one-byte window and priority
// scheduling, two workers that admitted different buckets would each wait
// for a push the other has no credit left to send.
func TestRunLivePSFusedTightCredit(t *testing.T) {
	cfg := liveBase(LiveBackendPS)
	cfg.LayerBytes = fusionLayers
	cfg.FuseTheta = fusionTheta
	cfg.Policy = core.ByteScheduler(8<<10, 1)
	cfg.Priority = core.PriorityLayer
	cfg.Iterations, cfg.Warmup = 4, 1
	for rep := 0; rep < 10; rep++ {
		runLiveWithin(t, cfg, time.Minute)
	}
}

// TestFusedBucketKeepsMostUrgentRank pins the Fuser's never-demote
// contract under a rank table: a bucket must carry its most urgent
// member's rank, not the rank of its lowest-index member. One worker with
// a one-byte credit window holds its first transfer until the rest of the
// pass is queued; the bucket {L2 (rank 0), L0 (rank 3)} must then
// dispatch before pass-through L1 (rank 1).
func TestFusedBucketKeepsMostUrgentRank(t *testing.T) {
	cfg := LiveConfig{
		Backend:    LiveBackendPS,
		Workers:    1,
		LayerBytes: []int64{256, 8 << 10, 256, 8 << 10},
		Policy:     core.Policy{Name: "serial", CreditBytes: 1},
		Iterations: 1,
		FuseTheta:  4 << 10,
	}
	ranks := []int64{3, 1, 0, 2}
	var (
		mu    sync.Mutex
		keys  []string
		sched *core.AsyncScheduler
	)
	tr := liveTransport{
		attach: func(s *core.AsyncScheduler) { sched = s },
		comm: func(key string, _ uint32, in, out []float32, _ func()) error {
			mu.Lock()
			keys = append(keys, key)
			first := len(keys) == 1
			mu.Unlock()
			// L1 and the bucket both waiting in the ready queue means the
			// pass is queued behind this first transfer.
			for deadline := time.Now().Add(10 * time.Second); first && sched.Stats().MaxQueueLen < 2; {
				if time.Now().After(deadline) {
					return errors.New("pass never queued")
				}
				time.Sleep(time.Millisecond)
			}
			copy(out, in)
			return nil
		},
	}
	if _, err := liveWorker(cfg, 0, ranks, tr, nil, make([]time.Time, cfg.Iterations)); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys[0] != "L03[0/1]" || !strings.HasPrefix(keys[1], "fused(") || keys[2] != "L01[0/1]" {
		t.Fatalf("dispatch order %q, want L03, the fused bucket, then L01", keys)
	}
}

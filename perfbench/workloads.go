package main

import (
	"time"

	"bytescheduler/internal/compress"
	"bytescheduler/internal/core"
	"bytescheduler/internal/model"
	"bytescheduler/internal/network"
	"bytescheduler/internal/plugin"
	"bytescheduler/internal/runner"
)

// workload is one named input set. Exactly one of sim and live is set;
// both build the program's whole input from the seed, so the program
// receives only the generated configuration.
type workload struct {
	name string
	sim  func(seed int64) runner.Config
	live func(seed int64) runner.LiveConfig
}

// simJitter is the relative compute-time noise the seed drives in the
// simulated workloads: small enough to keep the regime, large enough that
// every seed is a different event schedule.
const simJitter = 0.02

// Live sizing for a 2-core machine: one process, 2 workers, a PS handler
// pool of 2.
const (
	liveWorkers = 2
	livePSPool  = 2
	liveWarmup  = 5
)

var workloads = []workload{
	{
		// FIFO order with 80 KB partitions keeps the fabric's pending list
		// long, so the network layer dominates. BENCHMARK.json leaves it out
		// of the gated set: its timings swing too much on a shared host.
		name: "sim-ps-fifo-small",
		sim: func(seed int64) runner.Config {
			return runner.Config{
				Model:         model.VGG16(),
				Framework:     plugin.MXNet,
				Arch:          runner.PS,
				Transport:     network.TCP(),
				BandwidthGbps: 10,
				GPUs:          8,
				Policy:        core.Policy{Name: "fifo+partition", PartitionUnit: 80 << 10},
				Iterations:    8,
				Warmup:        2,
				Jitter:        simJitter,
				Seed:          seed,
			}
		},
	},
	{
		// The paper's headline setup: core enqueue, dispatch and credit over
		// short pending lists.
		name: "sim-ps-sched",
		sim: func(seed int64) runner.Config {
			return runner.Config{
				Model:         model.VGG16(),
				Framework:     plugin.MXNet,
				Arch:          runner.PS,
				Transport:     network.RDMA(),
				BandwidthGbps: 25,
				GPUs:          32,
				Policy:        core.ByteScheduler(2<<20, 16<<20),
				Scheduled:     true,
				Iterations:    200,
				Warmup:        2,
				Jitter:        simJitter,
				Seed:          seed,
			}
		},
	},
	{
		// Many small fused messages over loopback TCP stress netps framing,
		// aggregation, the Batcher and the Fuser.
		name: "live-ps",
		live: func(seed int64) runner.LiveConfig {
			return runner.LiveConfig{
				Backend:         runner.LiveBackendPS,
				Workers:         liveWorkers,
				LayerBytes:      scaledLayers(model.ResNet50(), 32),
				Policy:          core.ByteScheduler(64<<10, 256<<10),
				Priority:        core.PriorityLayer,
				FuseTheta:       64 << 10,
				ForwardCompute:  20 * time.Microsecond,
				BackwardCompute: 50 * time.Microsecond,
				Warmup:          liveWarmup,
				Seed:            seed,
				PSPool:          livePSPool,
			}
		},
	},
	{
		// Few large fp16 tensors on the netar ring with streaming release:
		// bandwidth-bound and codec-heavy; netps and the Fuser are bypassed.
		name: "live-ring",
		live: func(seed int64) runner.LiveConfig {
			return runner.LiveConfig{
				Backend:         runner.LiveBackendRing,
				Workers:         liveWorkers,
				LayerBytes:      scaledLayers(model.VGG16(), 128),
				Policy:          core.ByteScheduler(256<<10, 1<<20),
				Priority:        core.PriorityLayer,
				Pipeline:        runner.PipelineOn,
				Codec:           compress.FP16Codec(),
				ForwardCompute:  50 * time.Microsecond,
				BackwardCompute: 200 * time.Microsecond,
				Warmup:          liveWarmup,
				Seed:            seed,
			}
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaledLayers returns m's per-layer gradient sizes divided by div, rounded
// down to whole fp32 values (at least one).
func scaledLayers(m *model.Model, div int64) []int64 {
	out := make([]int64, len(m.Layers))
	for i, l := range m.Layers {
		out[i] = max(l.Bytes()/div/4*4, 4)
	}
	return out
}

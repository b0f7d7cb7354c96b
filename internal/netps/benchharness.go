package netps

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bytescheduler/internal/compress"
)

// LoadOptions parameterizes RunLoad, the server macro-benchmark behind
// `benchsuite -ps-bench` and the committed BENCH_PR6.json.
type LoadOptions struct {
	// Clients is the number of concurrent simulated clients.
	Clients int
	// Duration is how long the load runs.
	Duration time.Duration
	// PayloadFloats is each push's vector length (default 64 — a few
	// hundred bytes, the small-scheduled-partition regime §2.2's θ
	// analysis says dominates server-side cost).
	PayloadFloats int
	// Shards / Pool configure the server under test (0 = defaults).
	Shards, Pool int
	// SingleLockBaseline runs the server with one lock domain, the
	// pre-shard server's shape. The sharded-vs-baseline ratio measures
	// what lock-domain parallelism buys.
	SingleLockBaseline bool
	// TCP runs real clients over loopback sockets through the
	// multiplexer + handler pool instead of driving the aggregation core
	// in-process. In-process mode isolates lock-domain contention (the
	// tentpole's target); TCP mode additionally exercises the connection
	// economy and records the server goroutine count.
	TCP bool
}

// LoadResult is one RunLoad measurement, JSON-shaped for bench snapshots.
type LoadResult struct {
	Mode          string  `json:"mode"`
	Clients       int     `json:"clients"`
	Shards        int     `json:"shards"`
	Pool          int     `json:"pool"`
	Ops           int64   `json:"ops"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	P50Micros     float64 `json:"p50_us"`
	P99Micros     float64 `json:"p99_us"`
	ServerGoros   int64   `json:"server_goroutines,omitempty"`
	DurationSecs  float64 `json:"duration_s"`
	PayloadFloats int     `json:"payload_floats"`
}

// RunLoad drives one complete push+pull cycle per op — each client owns a
// distinct key and advances its iteration every cycle, so every op takes
// the full aggregate-complete-reclaim path — and reports throughput and
// latency quantiles.
func RunLoad(opts LoadOptions) (LoadResult, error) {
	if opts.Clients <= 0 {
		return LoadResult{}, fmt.Errorf("netps: load needs clients > 0")
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	if opts.PayloadFloats <= 0 {
		opts.PayloadFloats = 64
	}
	sopts := []ServerOption{
		// Both modes get a client table comfortably above the client
		// count, so neither pays constant whole-window LRU eviction and
		// the comparison isolates lock domains + the gauge rescan.
		WithDedupClients(2 * opts.Clients),
	}
	shards, pool := opts.Shards, opts.Pool
	if opts.SingleLockBaseline {
		shards = 1
	}
	if shards > 0 {
		sopts = append(sopts, WithShards(shards))
	}
	if pool > 0 {
		sopts = append(sopts, WithHandlerPool(pool))
	}
	srv, err := NewServer(1, sopts...)
	if err != nil {
		return LoadResult{}, err
	}
	defer srv.Close()

	mode := "sharded"
	if opts.SingleLockBaseline {
		mode = "single-lock"
	}
	res := LoadResult{
		Mode:          mode,
		Clients:       opts.Clients,
		Shards:        srv.shardCount,
		Pool:          srv.poolSize,
		PayloadFloats: opts.PayloadFloats,
	}

	var stop atomic.Bool
	var ops atomic.Int64
	// Latency is sampled 1-in-8 per client to keep the harness's own
	// bookkeeping off the hot path.
	samples := make([][]float64, opts.Clients)
	var wg sync.WaitGroup

	payload := compress.Identity().AppendEncode(nil, make([]float32, opts.PayloadFloats))

	runInproc := func(id int) {
		defer wg.Done()
		key := fmt.Sprintf("bench-%d", id)
		var iter uint32
		var n uint64
		local := make([]float64, 0, 4096)
		for !stop.Load() {
			n++
			var t0 time.Time
			sampled := n%8 == 0
			if sampled {
				t0 = time.Now()
			}
			push := message{Op: OpPush, Key: key, Iter: iter,
				Seq: uint64(id+1)<<32 | n, Payload: payload}
			if resp, wake, result := srv.processPush(push); resp.Op == OpPush {
				for _, w := range wake {
					w.fulfill(result)
				}
			}
			pull := message{Op: OpPull, Key: key, Iter: iter,
				Seq: uint64(id+1)<<32 | (n | 1<<31)}
			if p, wait, errResp := srv.preparePull(pull); p.payload != nil {
				srv.countPullServed(pull)
			} else if wait != nil {
				<-wait
				srv.countPullServed(pull)
			} else {
				_ = errResp // closing
			}
			if sampled {
				local = append(local, float64(time.Since(t0).Microseconds()))
			}
			iter++
			ops.Add(1)
		}
		samples[id] = local
	}

	runTCP := func(id int, addr string) {
		defer wg.Done()
		c := NewClient(addr,
			WithClientID(uint32(id+1)),
			WithSeed(int64(id)),
			WithPullTimeout(time.Minute))
		defer c.Close()
		key := fmt.Sprintf("bench-%d", id)
		var iter uint32
		var n uint64
		vec := make([]float32, opts.PayloadFloats)
		local := make([]float64, 0, 4096)
		for !stop.Load() {
			n++
			var t0 time.Time
			sampled := n%8 == 0
			if sampled {
				t0 = time.Now()
			}
			if err := c.Push(key, iter, vec); err != nil {
				return
			}
			if err := c.Pull(key, iter, vec); err != nil {
				return
			}
			if sampled {
				local = append(local, float64(time.Since(t0).Microseconds()))
			}
			iter++
			ops.Add(1)
		}
		samples[id] = local
	}

	start := time.Now()
	if opts.TCP {
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return LoadResult{}, err
		}
		res.Mode += "-tcp"
		for i := 0; i < opts.Clients; i++ {
			wg.Add(1)
			go runTCP(i, addr)
		}
		time.Sleep(opts.Duration)
		res.ServerGoros = srv.Goroutines()
	} else {
		for i := 0; i < opts.Clients; i++ {
			wg.Add(1)
			go runInproc(i)
		}
		time.Sleep(opts.Duration)
	}
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	res.Ops = ops.Load()
	res.DurationSecs = elapsed.Seconds()
	res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	var all []float64
	for _, s := range samples {
		all = append(all, s...)
	}
	sort.Float64s(all)
	res.P50Micros = quantile(all, 0.50)
	res.P99Micros = quantile(all, 0.99)
	return res, nil
}

// quantile reads q from sorted values (0 if empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

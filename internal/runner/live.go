// Live training harness: the same iteration structure the simulator
// models (backward pass emits gradients back-to-front, the next forward
// pass consumes them front-to-back), but over real sockets — netps
// parameter servers or the netar segmented ring — with a real
// core.AsyncScheduler deciding transmission order. This is where the
// paper's generality claim is measurable outside the simulator: one
// scheduler, two architectures, wall-clock iteration times.

package runner

import (
	"fmt"
	"sync"
	"time"

	"bytescheduler/internal/autotune"
	"bytescheduler/internal/compress"
	"bytescheduler/internal/core"
	"bytescheduler/internal/metrics"
	"bytescheduler/internal/netar"
	"bytescheduler/internal/netps"
	"bytescheduler/internal/tensor"
	"bytescheduler/internal/trace"
)

// LiveBackend selects the live transport architecture.
type LiveBackend int

const (
	// LiveBackendPS synchronizes gradients through a netps parameter
	// server (push + aggregate + pull).
	LiveBackendPS LiveBackend = iota
	// LiveBackendRing synchronizes gradients with the netar segmented
	// ring all-reduce.
	LiveBackendRing
)

// String returns the backend's flag spelling.
func (b LiveBackend) String() string {
	switch b {
	case LiveBackendPS:
		return "ps"
	case LiveBackendRing:
		return "ring"
	}
	return fmt.Sprintf("LiveBackend(%d)", int(b))
}

// ParseLiveBackend parses the -backend flag value.
func ParseLiveBackend(s string) (LiveBackend, error) {
	switch s {
	case "ps":
		return LiveBackendPS, nil
	case "ring":
		return LiveBackendRing, nil
	}
	return 0, fmt.Errorf("runner: unknown live backend %q (want ps or ring)", s)
}

// LiveConfig describes one live training run: in-process workers over
// loopback TCP, one scheduler per worker, real wall-clock timing.
type LiveConfig struct {
	// Backend selects the transport (PS or ring all-reduce).
	Backend LiveBackend
	// Workers is the number of training workers (ring peers, or PS
	// clients against one aggregating server).
	Workers int
	// LayerBytes is each layer's gradient size in bytes, front (input
	// layer, highest priority) to back. Every size must be a positive
	// multiple of 4 (fp32).
	LayerBytes []int64
	// Policy is the communication scheduling policy. A serial FIFO
	// baseline (LiveFIFO) transmits whole tensors one at a time in
	// emission order — the vanilla framework's single comm queue.
	// PartitionUnit, if set, must be a multiple of 4.
	Policy core.Policy
	// Iterations and Warmup control measurement; Iterations must exceed
	// Warmup+1 so at least one steady-state period is measured.
	Iterations, Warmup int
	// ForwardCompute / BackwardCompute are the per-layer compute times
	// (real sleeps). Forward layer l of iteration i+1 additionally blocks
	// until layer l's gradient synchronization from iteration i finished —
	// the dependency structure that makes front-layer priority pay.
	ForwardCompute, BackwardCompute time.Duration
	// BackwardTimes, when non-empty, replaces the uniform BackwardCompute
	// knob with per-op profiled backward durations, one per layer (same
	// front-to-back order as LayerBytes): the backward pass sleeps
	// BackwardTimes[l] before emitting layer l's gradient, and the
	// critical-path priority sees the same per-op profile instead of a
	// uniform backward cost.
	BackwardTimes []time.Duration
	// Metrics, if non-nil, instruments worker 0's scheduler and every
	// transport endpoint against the registry (core_*, netps_*/netar_*).
	Metrics *metrics.Registry
	// Trace, if non-nil, records wall-clock spans for every transport
	// operation in the shared Chrome-trace schema.
	Trace *trace.Wall
	// Seed seeds transport jitter; runs are *not* bitwise deterministic —
	// this is wall-clock measurement, not simulation.
	Seed int64
	// PSShards overrides the PS server's lock-domain count
	// (netps.DefaultShards); ignored by the ring backend. <= 0 keeps the
	// default; 1 reproduces the old single-mutex server.
	PSShards int
	// PSPool overrides the PS server's handler-pool size
	// (netps.DefaultPoolSize); ignored by the ring backend.
	PSPool int
	// FuseTheta, when > 0, buckets gradients smaller than this many bytes
	// into fused CommTasks (core.Fuser): the small-tensor long tail then
	// pays one per-message overhead per bucket instead of one each. Must
	// be a multiple of 4. Buckets flush on size and at the end of each
	// backward pass — deterministic points, so every worker fuses the
	// same members — and enter the same release path as unfused tasks, so
	// fusion composes with every pipeline mode and with coordinated ring
	// release.
	FuseTheta int64
	// Codec compresses gradient payloads on the wire (fp16 / int8 /
	// top-k); the zero value is the identity (raw fp32) codec. Lossy
	// codecs relax the runner's aggregation verification accordingly.
	Codec compress.Codec
	// Priority, when not PriorityDefault, derives the scheduling order
	// from the run's layer profile (uniform ForwardCompute per layer,
	// LayerBytes, LinkBytesPerSec) and overrides the policy's priority
	// function with the resulting rank table: layer index, TicTac-style
	// critical path, or a seeded random permutation for ablation. The
	// table is materialized once per run, so every worker — and, on
	// coordinated ring runs, every peer's agreed admission order — uses
	// the same ranks.
	Priority core.PriorityPolicy
	// LinkBytesPerSec is the modeled link rate the critical-path priority
	// uses to convert layer bytes into transfer time; 0 defaults to
	// DefaultLiveLinkBytesPerSec (loopback-order).
	LinkBytesPerSec float64
	// Pipeline selects cross-iteration pipelining (see PipelineMode):
	// whether a backward pass's gradient tasks reach the scheduler as the
	// pass produces them (overlapping iteration i's backward compute and
	// iteration i+1's forward-blocking transfers with communication) or
	// are held to the pass boundary. PipelineAuto keeps each backend's
	// established behavior.
	Pipeline PipelineMode
	// PipelineWindow bounds the coordinated streaming release's reorder
	// lookahead (core.StreamReleaser); 0 picks half the layer count. Only
	// meaningful for PipelineOn on coordinated ring runs.
	PipelineWindow int
	// AutoTune, when non-nil, closes the online tuning loop: every worker
	// pins its per-iteration (partition, credit) from one shared
	// autotune.Controller and applies it at the pass boundary through
	// core.AsyncScheduler.SetParams, and worker 0 feeds measured iteration
	// durations back. Requires a scheduled starting policy (positive
	// PartitionUnit and CreditBytes) — Policy supplies the controller's
	// starting point.
	AutoTune *autotune.Config
	// Shape, when non-empty, inserts a shaped serial link (per-message
	// overhead, byte rate, fault model) in front of every worker's
	// transport, with phase switches at iteration boundaries — the
	// injected bandwidth changes EXT-AUTOTUNE re-converges across.
	Shape []LinkShape
}

// LiveFIFO is the unscheduled live baseline: whole tensors, transmitted
// strictly one at a time in emission (back-to-front) order — a vanilla
// framework's single communication queue. CreditBytes=1 serializes: the
// scheduler admits a sub-task larger than the remaining credit only when
// nothing is in flight.
func LiveFIFO() core.Policy {
	return core.Policy{Name: "fifo", CreditBytes: 1}
}

// PipelineMode selects when a backward pass's gradient tasks reach the
// scheduler, the knob behind the paper's Fig. 3 overlap: pipelined runs
// admit iteration i+1's forward-blocking transfers while iteration i's
// backward pass is still computing; non-pipelined runs serialize the pass
// and its communication.
type PipelineMode int

const (
	// PipelineAuto keeps each backend's established behavior: PS (and
	// uncoordinated ring) runs stream tasks as the backward pass emits
	// them; coordinated ring runs hold the pass and release it at the
	// pass boundary.
	PipelineAuto PipelineMode = iota
	// PipelineOn streams everywhere. On coordinated ring runs the release
	// window shrinks from the whole pass to PipelineWindow: tasks are
	// released mid-pass in an agreed total order, so communication
	// overlaps backward compute without giving up deadlock-freedom.
	PipelineOn
	// PipelineOff holds every pass's tasks until the backward pass ends on
	// both backends — the non-pipelined scheduled baseline the EXT-PRIORITY
	// ablation measures against.
	PipelineOff
)

// String returns the mode's flag spelling.
func (m PipelineMode) String() string {
	switch m {
	case PipelineAuto:
		return "auto"
	case PipelineOn:
		return "on"
	case PipelineOff:
		return "off"
	}
	return fmt.Sprintf("PipelineMode(%d)", int(m))
}

// ParsePipelineMode parses the -pipeline flag value.
func ParsePipelineMode(s string) (PipelineMode, error) {
	switch s {
	case "", "auto":
		return PipelineAuto, nil
	case "on", "stream":
		return PipelineOn, nil
	case "off", "passend":
		return PipelineOff, nil
	}
	return 0, fmt.Errorf("runner: unknown pipeline mode %q (want auto, on or off)", s)
}

// DefaultLiveLinkBytesPerSec is the loopback-order link-rate estimate the
// critical-path priority falls back to when LinkBytesPerSec is unset.
const DefaultLiveLinkBytesPerSec = 1 << 30

// backwardTime returns layer l's backward compute duration: the profiled
// per-op time when BackwardTimes is set, the uniform knob otherwise.
func (c LiveConfig) backwardTime(l int) time.Duration {
	if len(c.BackwardTimes) > 0 {
		return c.BackwardTimes[l]
	}
	return c.BackwardCompute
}

// priorityRanks materializes the run's priority strategy into a per-layer
// rank table (nil for PriorityDefault). The live profile has uniform
// forward compute per layer; the backward profile is per-op when
// BackwardTimes is set, so the critical path sees where in the pass each
// gradient surfaces rather than a uniform backward cost.
func (c LiveConfig) priorityRanks() ([]int64, error) {
	if c.Priority == core.PriorityDefault {
		return nil, nil
	}
	rate := c.LinkBytesPerSec
	if rate == 0 {
		rate = DefaultLiveLinkBytesPerSec
	}
	fp := make([]float64, len(c.LayerBytes))
	bp := make([]float64, len(c.LayerBytes))
	for i := range fp {
		fp[i] = c.ForwardCompute.Seconds()
		bp[i] = c.backwardTime(i).Seconds()
	}
	return c.Priority.Ranks(core.DAGTimings{FP: fp, BP: bp, LayerBytes: c.LayerBytes, BytesPerSec: rate}, c.Seed)
}

// Validate reports configuration errors.
func (c LiveConfig) Validate() error {
	switch c.Backend {
	case LiveBackendPS, LiveBackendRing:
	default:
		return fmt.Errorf("runner: unknown live backend %d", int(c.Backend))
	}
	if c.Workers < 1 {
		return fmt.Errorf("runner: live run needs >= 1 worker, got %d", c.Workers)
	}
	if len(c.LayerBytes) == 0 {
		return fmt.Errorf("runner: live run needs at least one layer")
	}
	for l, b := range c.LayerBytes {
		if b <= 0 || b%4 != 0 {
			return fmt.Errorf("runner: layer %d size %d is not a positive multiple of 4", l, b)
		}
	}
	if len(c.BackwardTimes) > 0 && len(c.BackwardTimes) != len(c.LayerBytes) {
		return fmt.Errorf("runner: %d backward times for %d layers", len(c.BackwardTimes), len(c.LayerBytes))
	}
	for l, bt := range c.BackwardTimes {
		if bt < 0 {
			return fmt.Errorf("runner: negative backward time %v for layer %d", bt, l)
		}
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if c.Policy.PartitionUnit%4 != 0 {
		return fmt.Errorf("runner: partition unit %d is not a multiple of 4", c.Policy.PartitionUnit)
	}
	if c.Iterations < c.Warmup+2 {
		return fmt.Errorf("runner: iterations %d must exceed warmup %d by at least 2", c.Iterations, c.Warmup)
	}
	if c.FuseTheta < 0 || c.FuseTheta%4 != 0 {
		return fmt.Errorf("runner: fuse threshold %d is not a non-negative multiple of 4", c.FuseTheta)
	}
	if c.AutoTune != nil && (c.Policy.PartitionUnit <= 0 || c.Policy.CreditBytes <= 0) {
		return fmt.Errorf("runner: auto-tuning needs a scheduled starting policy (positive partition unit and credit), got unit %d credit %d", c.Policy.PartitionUnit, c.Policy.CreditBytes)
	}
	if c.AutoTune != nil && c.FuseTheta > 0 {
		return fmt.Errorf("runner: auto-tuning is incompatible with tensor fusion: the tuner's probes are not yet validated over fused buckets")
	}
	switch c.Priority {
	case core.PriorityDefault, core.PriorityLayer, core.PriorityCriticalPath, core.PriorityRandom:
	default:
		return fmt.Errorf("runner: unknown priority policy %d", int(c.Priority))
	}
	if c.LinkBytesPerSec < 0 {
		return fmt.Errorf("runner: negative link rate %v", c.LinkBytesPerSec)
	}
	switch c.Pipeline {
	case PipelineAuto, PipelineOn, PipelineOff:
	default:
		return fmt.Errorf("runner: unknown pipeline mode %d", int(c.Pipeline))
	}
	if c.PipelineWindow < 0 {
		return fmt.Errorf("runner: negative pipeline window %d", c.PipelineWindow)
	}
	if err := validateShape(c.Shape); err != nil {
		return err
	}
	return nil
}

// coordinated reports whether peers must admit tasks in one agreed total
// order (see releaseWindow): ring collectives
// block until *every* peer issues them, so priority scheduling under a
// finite credit window is only deadlock-free when all peers admit
// partitions in the same total order. Streaming per-layer release diverges
// — peer A's backward is a sleep ahead, its freshly-emitted urgent layer
// preempts its window while peer B still stop-and-waits on the tail A
// moved past, and neither completes (real all-reduce stacks solve exactly
// this with global readiness negotiation, e.g. Horovod's coordinator).
// FIFO-style policies (no Priority) stream safely: arrival order is
// emission order, identical on every peer.
//
// Coordination does not require giving up pipelining: with PipelineOn the
// releaser computes the agreed order over a window smaller than the pass,
// so transfers start mid-pass.
func (c LiveConfig) coordinated() bool {
	prioritized := c.Policy.Priority != nil || c.Priority != core.PriorityDefault
	return c.Backend == LiveBackendRing && prioritized && c.Policy.CreditBytes > 0
}

// releaseWindow is the lookahead of each worker's core.StreamReleaser, the
// one knob that tells the release disciplines apart. Uncoordinated
// streaming releases each task as it is emitted (0); pass-end runs —
// PipelineOff, or a coordinated ring without PipelineOn — hold the whole
// pass and release it in priority order at the boundary (layers);
// coordinated PipelineOn streams through a bounded window (PipelineWindow,
// default half the pass).
func (c LiveConfig) releaseWindow() int {
	layers := len(c.LayerBytes)
	switch {
	case c.coordinated() && c.Pipeline == PipelineOn:
		if c.PipelineWindow > 0 {
			return c.PipelineWindow
		}
		return (layers + 1) / 2
	case c.coordinated() || c.Pipeline == PipelineOff:
		return layers
	}
	return 0
}

// LiveResult summarizes a live run.
type LiveResult struct {
	// IterTime is the mean post-warmup per-iteration wall-clock time in
	// seconds, measured as differences between consecutive forward-pass
	// start times on worker 0.
	IterTime float64
	// IterTimes are the individual post-warmup iteration periods.
	IterTimes []float64
	// Stats aggregates the scheduler counters across workers.
	Stats core.Stats
	// AutoTune is the controller's decision log and summary; nil unless
	// the run was configured with LiveConfig.AutoTune.
	AutoTune *autotune.Report
}

// liveComm launches one partition's gradient synchronization: in holds the
// local gradient values for the partition, out receives the cross-worker
// sum. The caller derives key from the partition's tensor identity (plain
// or fused) so every worker addresses the same aggregation slot.
//
// sent splits the operation's two phases when the transport supports it:
// the PS transport invokes sent() once the local push is acknowledged —
// before the pull, which blocks until every worker pushed — so the caller
// can return scheduler credit for the send while the cross-worker wait
// proceeds without holding the window. Credit then gates the
// bandwidth-consuming direction only. This matters: if blocking pulls
// held credit, two workers whose windows filled with *different* layer
// subsets would each wait forever for pushes the other has no credit left
// to admit — a cross-worker deadlock the auto-tuner hits as soon as it
// probes a credit smaller than a pass's total bytes. Collective
// transports (the ring) never call sent: the whole op is the send, and
// coordinated release already guarantees identical admission order.
type liveComm func(key string, iter uint32, in, out []float32, sent func()) error

// liveTransport is one worker's transport endpoint.
type liveTransport struct {
	comm   liveComm
	attach func(s *core.AsyncScheduler) // optional (flush-hook coalescing)
	close  func()
}

// RunLive executes the configured live training run and returns its
// measured per-iteration time. Unlike Run, this is wall-clock measurement
// over real sockets — results vary run to run and across machines.
func RunLive(cfg LiveConfig) (LiveResult, error) {
	if err := cfg.Validate(); err != nil {
		return LiveResult{}, err
	}
	// Materialize the priority strategy once: every worker (and the
	// coordinated release's agreed order) must use the same rank table.
	ranks, err := cfg.priorityRanks()
	if err != nil {
		return LiveResult{}, err
	}
	transports, teardown, err := buildLiveTransports(cfg)
	if err != nil {
		return LiveResult{}, err
	}
	defer teardown()
	for r := range transports {
		if len(cfg.Shape) > 0 {
			shaper := newLinkShaper(cfg.Shape, cfg.Seed+int64(r)*101+1, cfg.Metrics)
			transports[r].comm = shaper.wrap(transports[r].comm)
		}
	}
	var ctrl *autotune.Controller
	if cfg.AutoTune != nil {
		ac := *cfg.AutoTune
		if ac.Metrics == nil {
			ac.Metrics = cfg.Metrics
		}
		if ac.Trace == nil {
			ac.Trace = cfg.Trace
		}
		start := autotune.Setting{Partition: cfg.Policy.PartitionUnit, Credit: cfg.Policy.CreditBytes}
		if ctrl, err = autotune.New(start, ac); err != nil {
			return LiveResult{}, err
		}
	}

	starts := make([]time.Time, cfg.Iterations)
	errs := make([]error, cfg.Workers)
	stats := make([]core.Stats, cfg.Workers)
	var wg sync.WaitGroup
	for r := 0; r < cfg.Workers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[r], errs[r] = liveWorker(cfg, r, ranks, transports[r], ctrl, starts)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return LiveResult{}, fmt.Errorf("runner: live worker %d: %w", r, err)
		}
	}
	res := LiveResult{}
	for _, s := range stats {
		res.Stats = addStats(res.Stats, s)
	}
	for i := cfg.Warmup; i+1 < cfg.Iterations; i++ {
		res.IterTimes = append(res.IterTimes, starts[i+1].Sub(starts[i]).Seconds())
	}
	for _, d := range res.IterTimes {
		res.IterTime += d
	}
	res.IterTime /= float64(len(res.IterTimes))
	if ctrl != nil {
		rep := ctrl.Report()
		res.AutoTune = &rep
	}
	return res, nil
}

// buildLiveTransports wires one transport endpoint per worker plus a
// teardown closing them all.
func buildLiveTransports(cfg LiveConfig) ([]liveTransport, func(), error) {
	switch cfg.Backend {
	case LiveBackendRing:
		return buildRingTransports(cfg)
	case LiveBackendPS:
		return buildPSTransports(cfg)
	}
	return nil, nil, fmt.Errorf("runner: unknown live backend %d", int(cfg.Backend))
}

func buildRingTransports(cfg LiveConfig) ([]liveTransport, func(), error) {
	peers := make([]*netar.Peer, cfg.Workers)
	teardown := func() {
		for _, p := range peers {
			if p != nil {
				p.Close()
			}
		}
	}
	for r := 0; r < cfg.Workers; r++ {
		opts := []netar.Option{netar.WithSeed(cfg.Seed + int64(r))}
		if !cfg.Codec.IsIdentity() {
			opts = append(opts, netar.WithCodec(cfg.Codec))
		}
		if cfg.Metrics != nil {
			opts = append(opts, netar.WithMetrics(cfg.Metrics))
		}
		if cfg.Trace != nil {
			opts = append(opts, netar.WithTracer(cfg.Trace))
		}
		p, err := netar.NewPeer(r, cfg.Workers, opts...)
		if err != nil {
			teardown()
			return nil, nil, err
		}
		if err := p.Listen("127.0.0.1:0"); err != nil {
			teardown()
			return nil, nil, err
		}
		peers[r] = p
	}
	for r := 0; r < cfg.Workers; r++ {
		if err := peers[r].Dial(peers[(r+1)%cfg.Workers].Addr()); err != nil {
			teardown()
			return nil, nil, err
		}
	}
	transports := make([]liveTransport, cfg.Workers)
	for r := 0; r < cfg.Workers; r++ {
		peer := peers[r]
		transports[r] = liveTransport{
			// The collective is indivisible — no send/wait split, credit
			// is held for the whole op (safe: coordinated release admits
			// in one total order on every peer).
			comm: func(key string, iter uint32, in, out []float32, _ func()) error {
				return peer.AllReduce(key, iter, in, out)
			},
		}
	}
	return transports, teardown, nil
}

func buildPSTransports(cfg LiveConfig) ([]liveTransport, func(), error) {
	srvOpts := []netps.ServerOption{}
	if cfg.PSShards > 0 {
		srvOpts = append(srvOpts, netps.WithShards(cfg.PSShards))
	}
	if cfg.PSPool > 0 {
		srvOpts = append(srvOpts, netps.WithHandlerPool(cfg.PSPool))
	}
	if cfg.Metrics != nil {
		srvOpts = append(srvOpts, netps.WithServerMetrics(cfg.Metrics))
	}
	srv, err := netps.NewServer(cfg.Workers, srvOpts...)
	if err != nil {
		return nil, nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	clients := make([]*netps.Client, cfg.Workers)
	batchers := make([]*netps.Batcher, cfg.Workers)
	teardown := func() {
		for _, b := range batchers {
			if b != nil {
				b.Close()
			}
		}
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
		srv.Close()
	}
	transports := make([]liveTransport, cfg.Workers)
	for r := 0; r < cfg.Workers; r++ {
		opts := []netps.Option{
			netps.WithClientID(uint32(r + 1)),
			netps.WithSeed(cfg.Seed + int64(r)),
		}
		if !cfg.Codec.IsIdentity() {
			opts = append(opts, netps.WithCodec(cfg.Codec))
		}
		if cfg.Metrics != nil {
			opts = append(opts, netps.WithMetrics(cfg.Metrics))
		}
		if cfg.Trace != nil {
			opts = append(opts, netps.WithTracer(cfg.Trace))
		}
		client := netps.NewClient(addr, opts...)
		clients[r] = client
		batcher := netps.NewBatcher(client)
		batchers[r] = batcher
		transports[r] = liveTransport{
			comm: func(key string, iter uint32, in, out []float32, sent func()) error {
				pushed := make(chan error, 1)
				batcher.Push(key, iter, in, func(err error) { pushed <- err })
				if err := <-pushed; err != nil {
					return err
				}
				// The push is on the wire and acknowledged; the pull
				// below blocks until every worker pushed. Hand the
				// scheduler its credit back first (see liveComm).
				sent()
				return client.Pull(key, iter, out)
			},
			// The scheduler's flush hook is the Batcher's coalescing
			// point: one wire frame per releasing pass (§2.2's θ
			// amortization), without adding latency beyond the pass.
			attach: func(s *core.AsyncScheduler) { s.SetFlushHook(batcher.FlushAsync) },
		}
	}
	return transports, teardown, nil
}

// liveGrad is one live gradient task's state (core.Task.Meta): the
// buffers a fused transmit gathers from and scatters back into, and the
// forward gate its synchronization outcome reaches exactly once.
//
// Split-phase bookkeeping: when the transport calls sent() (the PS
// push-ack), the sub's credit is returned at once and the blocking pull
// proceeds uncredited; the gate then waits on the pulls through a
// countdown instead of OnFinished. Transports that never call sent (the
// ring) keep the classic path: outcome via the scheduler, gate via
// OnFinished. Fused transfers report to every member's gate the same way.
type liveGrad struct {
	iter uint32
	grad []float32
	out  []float32
	done chan<- error

	mu       sync.Mutex
	split    bool
	pullLeft int // pulls outstanding; -1 until the first lands
	pullErr  error
}

// sent marks the task split-phase: its outcome now comes from pulls.
func (g *liveGrad) sent() {
	g.mu.Lock()
	g.split = true
	g.mu.Unlock()
}

// pulled records one of count pulls; the last to land reports the task's
// combined outcome. A sub whose push fails permanently never pulls, so
// the countdown never hits zero and finished (with the error) reports
// instead.
func (g *liveGrad) pulled(count int, err error) {
	g.mu.Lock()
	if g.pullLeft < 0 {
		g.pullLeft = count
	}
	g.pullLeft--
	if err != nil && g.pullErr == nil {
		g.pullErr = err
	}
	last, res := g.pullLeft == 0, g.pullErr
	g.mu.Unlock()
	if last {
		g.done <- res
	}
}

// finished is the task's OnFinished: it reports failures, and success
// unless the pull countdown owns the outcome.
func (g *liveGrad) finished(err error) {
	g.mu.Lock()
	split := g.split
	g.mu.Unlock()
	if err != nil {
		g.done <- err
	} else if !split {
		g.done <- nil
	}
}

// fusedComm builds the core.FuseStartFn for one worker: it gathers the
// member gradient slices covered by a fused partition into one contiguous
// vector, synchronizes it under the fused content-derived key (identical
// on every worker that bucketed the same members), and scatters the sum
// back into each member's output buffer. The gather and sum vectors are
// pooled: comm returns only after the transport is done with both, and
// they go back once the scatter has read the sum.
func fusedComm(comm liveComm) core.FuseStartFn {
	return func(fd *core.Fused, sub tensor.Sub, doneFn func(error)) {
		members, offsets := fd.Members(), fd.Offsets()
		lo, hi := sub.Offset, sub.Offset+sub.Bytes
		inp, outp := getFused(int(sub.Bytes/4)), getFused(int(sub.Bytes/4))
		defer fusedPool.Put(inp)
		defer fusedPool.Put(outp)
		in, out := *inp, *outp
		iter := members[0].Meta.(*liveGrad).iter
		overlap := func(i int) (s, e int64) {
			s, e = offsets[i], offsets[i]+members[i].Tensor.Bytes
			if s < lo {
				s = lo
			}
			if e > hi {
				e = hi
			}
			return s, e
		}
		for i, m := range members {
			s, e := overlap(i)
			if s >= e {
				continue
			}
			g := m.Meta.(*liveGrad)
			copy(in[(s-lo)/4:(e-lo)/4], g.grad[(s-offsets[i])/4:(e-offsets[i])/4])
		}
		key := fmt.Sprintf("%s[%d/%d]", fd.Tensor.Name, sub.Index, sub.Count)
		// Fused transfers follow the same split-phase contract as plain
		// ones: credit returns at the fused push-ack, and every member's
		// gate counts this sub's pull, which lands only after the scatter.
		credited := false
		err := comm(key, iter, in, out, func() {
			for _, m := range members {
				m.Meta.(*liveGrad).sent()
			}
			credited = true
			doneFn(nil)
		})
		if err == nil {
			for i, m := range members {
				s, e := overlap(i)
				if s >= e {
					continue
				}
				g := m.Meta.(*liveGrad)
				copy(g.out[(s-offsets[i])/4:(e-offsets[i])/4], out[(s-lo)/4:(e-lo)/4])
			}
		}
		if !credited {
			doneFn(err)
			return
		}
		for _, m := range members {
			m.Meta.(*liveGrad).pulled(sub.Count, err)
		}
	}
}

// fusedPool recycles fusedComm's gather and sum vectors. The members
// tile a fused partition exactly, so the gather overwrites every element
// of in, and the transport overwrites out before the scatter reads it:
// stale pooled contents are never sent or scattered.
var fusedPool = sync.Pool{New: func() any { return new([]float32) }}

// getFused returns a pooled vector of n elements.
func getFused(n int) *[]float32 {
	p := fusedPool.Get().(*[]float32)
	if cap(*p) < n {
		*p = make([]float32, n)
	}
	*p = (*p)[:n]
	return p
}

// releaseSink is the Fuser's downstream: a task (plain or fused) enters
// the scheduler's queue at once and becomes ready when the releaser lets
// it go.
type releaseSink struct {
	*core.AsyncScheduler
	rel *core.StreamReleaser
}

// NotifyReady hands the task to the releaser instead of the scheduler.
func (s releaseSink) NotifyReady(t *core.Task) error { return s.rel.Emit(t) }

// liveWorker runs one worker's training loop: forward gated on the
// previous iteration's per-layer synchronization, backward emitting
// gradient CommTasks back-to-front. Every gradient takes one path — Fuser
// (buckets the small tail when FuseTheta is set) → StreamReleaser (orders
// the stream within releaseWindow) → scheduler — and every pass boundary
// drains both buffers. With a controller, each backward pass first pins
// and applies the iteration's (partition, credit): the swap lands at the
// pass boundary, in-flight tasks from the previous pass finish under the
// old config, and the controller's per-iteration pinning keeps partition
// counts — which the transport keys embed — identical across workers.
func liveWorker(cfg LiveConfig, rank int, ranks []int64, tr liveTransport, ctrl *autotune.Controller, starts []time.Time) (core.Stats, error) {
	layers := len(cfg.LayerBytes)
	coordinated := cfg.coordinated()
	// Tensor.Layer carries each gradient's rank, so a fused bucket — whose
	// Layer is its members' minimum — inherits its most urgent member's
	// rank, and the releaser orders plain and fused tasks alike.
	rankOf := func(l int) int {
		if ranks == nil {
			return l
		}
		return int(ranks[l])
	}
	pol := cfg.Policy
	if ranks != nil || coordinated {
		// The policy must read Tensor.Layer verbatim: it holds the rank, or
		// on coordinated runs the agreed stamp.
		pol.Priority = core.LayerPriority
	}
	sched := core.NewAsync(pol)
	defer sched.Shutdown()
	if cfg.Metrics != nil && rank == 0 {
		sched.Instrument(cfg.Metrics)
	}
	if tr.attach != nil {
		tr.attach(sched)
	}
	releaser, err := core.NewStreamReleaser(cfg.releaseWindow(),
		func(t *core.Task) int64 { return int64(t.Tensor.Layer) },
		func(t *core.Task, agreed int64) error {
			if coordinated {
				// Every peer computes the same release sequence, and the
				// stamp never resets, so peers skewed into different
				// iterations still admit the in-flight passes' partitions in
				// one agreed total order — what makes credit-gated priority
				// scheduling deadlock-free over blocking collectives.
				t.Tensor.Layer = int(agreed)
			}
			return sched.NotifyReady(t)
		})
	if err != nil {
		return core.Stats{}, err
	}
	fuser, err := core.NewFuser(core.FuserConfig{
		Theta: cfg.FuseTheta,
		Start: fusedComm(tr.comm),
	}, releaseSink{sched, releaser})
	if err != nil {
		return core.Stats{}, err
	}
	defer fuser.Close()

	grads := make([][]float32, layers)
	outs := make([][]float32, layers)
	done := make([]chan error, layers)
	for l, b := range cfg.LayerBytes {
		n := int(b / 4)
		grads[l] = make([]float32, n)
		for i := range grads[l] {
			grads[l][i] = float32(rank + 1)
		}
		outs[l] = make([]float32, n)
		done[l] = make(chan error, 1)
	}

	for it := 0; it < cfg.Iterations; it++ {
		if rank == 0 {
			starts[it] = time.Now()
			if ctrl != nil && it > 0 {
				ctrl.ObserveIteration(it-1, starts[it].Sub(starts[it-1]).Seconds())
			}
		}
		// Forward: layer l needs layer l's synchronized gradient from the
		// previous iteration before it can compute.
		for l := 0; l < layers; l++ {
			if it > 0 {
				if err := <-done[l]; err != nil {
					return sched.Stats(), fmt.Errorf("iteration %d layer %d: %w", it-1, l, err)
				}
			}
			if cfg.ForwardCompute > 0 {
				time.Sleep(cfg.ForwardCompute)
			}
		}
		// Pass-boundary reconfiguration: pin this iteration's config (all
		// workers get the same pinned value) and apply it before any of
		// this pass's tasks are enqueued.
		if ctrl != nil {
			s := ctrl.ConfigFor(it)
			if err := sched.SetParams(s.Partition, s.Credit); err != nil {
				return sched.Stats(), err
			}
		}
		// Backward: gradients become ready back-to-front.
		for l := layers - 1; l >= 0; l-- {
			if bt := cfg.backwardTime(l); bt > 0 {
				time.Sleep(bt)
			}
			l := l
			iter := uint32(it)
			grad, out := grads[l], outs[l]
			g := &liveGrad{iter: iter, grad: grad, out: out, pullLeft: -1, done: done[l]}
			t := &core.Task{
				Tensor: tensor.Tensor{Layer: rankOf(l), Name: "g", Bytes: cfg.LayerBytes[l]},
				Meta:   g,
			}
			t.StartErr = func(sub tensor.Sub, doneFn func(error)) {
				lo := sub.Offset / 4
				hi := lo + sub.Bytes/4
				key := fmt.Sprintf("L%02d[%d/%d]", l, sub.Index, sub.Count)
				credited := false
				err := tr.comm(key, iter, grad[lo:hi], out[lo:hi], func() {
					g.sent()
					credited = true
					doneFn(nil)
				})
				if !credited {
					doneFn(err)
					return
				}
				g.pulled(sub.Count, err)
			}
			t.OnFinished = func() { g.finished(t.Err()) }
			if err := fuser.Add(t); err != nil {
				return sched.Stats(), err
			}
		}
		// Pass boundary: the tail bucket and the lookahead window drain at
		// the same deterministic point in every worker's emission sequence,
		// so neither straddles the forward pass.
		if err := fuser.Flush(); err != nil {
			return sched.Stats(), err
		}
		if err := releaser.Flush(); err != nil {
			return sched.Stats(), err
		}
	}
	// Drain the final iteration's synchronization.
	for l := 0; l < layers; l++ {
		if err := <-done[l]; err != nil {
			return sched.Stats(), fmt.Errorf("final iteration layer %d: %w", l, err)
		}
	}
	// Verify the last iteration's sums: every element must be the
	// cross-worker total of the constant per-rank gradients. Constant
	// vectors make fp16 and int8 exact (small integers are representable
	// in half precision; a constant vector quantizes to q=127 at scale
	// maxAbs/127), so only top-k relaxes the check: it drops elements by
	// design, and all contributions are positive, so surviving values lie
	// in [0, want].
	if cfg.Metrics != nil && rank == 0 {
		fs := fuser.Stats()
		cfg.Metrics.Counter("core_fused_tasks_total").Add(fs.FusedTasks)
		cfg.Metrics.Counter("core_fused_members_total").Add(fs.FusedMembers)
		cfg.Metrics.Counter("core_fusion_passthrough_total").Add(fs.Passthrough)
		cfg.Metrics.Counter("core_fusion_size_flushes_total").Add(fs.SizeFlushes)
		cfg.Metrics.Counter("core_fusion_deadline_flushes_total").Add(fs.DeadlineFlushes)
		cfg.Metrics.Counter("core_fusion_explicit_flushes_total").Add(fs.ExplicitFlushes)
	}
	want := float32(cfg.Workers * (cfg.Workers + 1) / 2)
	topk := cfg.Codec.ID() == compress.CodecTopK
	for l := range outs {
		for i, v := range outs[l] {
			if topk {
				if v < 0 || v > want {
					return sched.Stats(), fmt.Errorf("layer %d[%d] = %v outside [0, %v] under top-k (aggregation corrupted)", l, i, v, want)
				}
				continue
			}
			if v != want {
				return sched.Stats(), fmt.Errorf("layer %d[%d] = %v, want %v (aggregation corrupted)", l, i, v, want)
			}
		}
	}
	return sched.Stats(), nil
}

// MeasureRingCollective times live ring collectives of n float32 values
// across the given number of loopback peers and returns the mean seconds
// per collective (after two warmup ops). EXT-RING uses two sizes of this
// microbenchmark to calibrate the simulator's analytic ring model — launch
// overhead from a tiny op, effective bandwidth from a large one — and then
// checks the calibrated model's predictions against live measurements.
func MeasureRingCollective(workers, floats, reps int) (float64, error) {
	if workers < 2 || reps < 1 {
		return 0, fmt.Errorf("runner: need >= 2 workers and >= 1 rep")
	}
	peers := make([]*netar.Peer, workers)
	defer func() {
		for _, p := range peers {
			if p != nil {
				p.Close()
			}
		}
	}()
	for r := 0; r < workers; r++ {
		p, err := netar.NewPeer(r, workers, netar.WithSeed(int64(r+1)))
		if err != nil {
			return 0, err
		}
		if err := p.Listen("127.0.0.1:0"); err != nil {
			return 0, err
		}
		peers[r] = p
	}
	for r := 0; r < workers; r++ {
		if err := peers[r].Dial(peers[(r+1)%workers].Addr()); err != nil {
			return 0, err
		}
	}
	const warmup = 2
	data := make([][]float32, workers)
	for r := range data {
		data[r] = make([]float32, floats)
	}
	sums := make([][]float32, workers)
	for r := range sums {
		sums[r] = make([]float32, floats)
	}
	var elapsed time.Duration
	for op := 0; op < warmup+reps; op++ {
		begin := time.Now()
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for r := 0; r < workers; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[r] = peers[r].AllReduce("bench", uint32(op), data[r], sums[r])
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		if op >= warmup {
			elapsed += time.Since(begin)
		}
	}
	return elapsed.Seconds() / float64(reps), nil
}

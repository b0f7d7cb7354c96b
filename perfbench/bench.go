package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"time"

	"bytescheduler/internal/core"
	"bytescheduler/internal/metrics"
	"bytescheduler/internal/runner"
	"bytescheduler/internal/trace"
)

const (
	// A run takes simSetupBlocks (sim) or liveSetupReps (live) set-up
	// samples; setup_s reports their median. One sim set-up takes
	// microseconds and its cost swings with GC cycles, so a sim sample is
	// the mean over a block of simSetupBlock set-ups.
	simSetupBlocks = 25
	simSetupBlock  = 400
	liveSetupReps  = 5
	// minLivePeriods is the fewest post-warm-up iterations a live phase
	// measures, however short --seconds is.
	minLivePeriods = 30
)

// simOutput is what a simulated run must reproduce bitwise for its seed:
// the simulated training speed and the core scheduler counters.
type simOutput struct {
	SamplesPerSec float64    `json:"samples_per_sec"`
	Up            core.Stats `json:"up"`
	Down          core.Stats `json:"down"`
}

// reference maps workload name → seed → the outputs that seed must give.
type reference map[string]map[string]simOutput

// bench measures one workload at one seed and collects the output checks.
type bench struct {
	w         workload
	seed      int64
	ref       reference
	spans     spans
	first     *simOutput // every later sim run of the process must match it
	problems  []string
	attempted int64
	failed    int64
}

// phase is what one measured stretch of a workload produced.
type phase struct {
	iters   int       // training iterations executed, warm-up included
	periods []float64 // seconds per iteration: live periods, or wall/iterations of each sim run
	rate    float64   // training iterations per wall second: whole sim runs, or live post-warm-up periods
	used    usage
	// maxQueue is core's ready-queue high-water mark over every scheduler
	// of the phase.
	maxQueue int
	reg      *metrics.Registry // traced phases only
	rec      *trace.Recorder   // traced phases only: the last call's program spans
}

func (b *bench) problem(format string, args ...any) {
	if msg := fmt.Sprintf(format, args...); !slices.Contains(b.problems, msg) {
		b.problems = append(b.problems, msg)
	}
}

// simSetup times building the workload's model and configuration, which is
// all the simulator needs before runner.Run.
func (b *bench) simSetup(parent int) (runner.Config, []float64) {
	id := b.spans.begin("setup: model + config", parent)
	defer b.spans.end(id)
	var cfg runner.Config
	var took []float64
	runtime.GC()
	for i := 0; i < simSetupBlocks; i++ {
		t0 := time.Now()
		for j := 0; j < simSetupBlock; j++ {
			cfg = b.w.sim(b.seed)
			if err := cfg.Validate(); err != nil {
				b.problem("config: %v", err)
			}
		}
		took = append(took, time.Since(t0).Seconds()/simSetupBlock)
	}
	return cfg, took
}

// simPhase runs the simulation back to back for about d: it starts another
// run while that run is expected to end less than half a run past d.
func (b *bench) simPhase(cfg runner.Config, d time.Duration, traced bool, parent int) phase {
	var ph phase
	if traced {
		ph.reg = metrics.NewRegistry()
		cfg.Metrics = ph.reg
	}
	runtime.GC()
	var wall, took float64
	deadline := time.Now().Add(d)
	for len(ph.periods) == 0 || time.Until(deadline).Seconds() > took/2 {
		if traced {
			ph.rec = trace.New()
			cfg.Trace = ph.rec
		}
		u0 := readUsage()
		id := b.spans.begin("runner.Run", parent)
		t0 := time.Now()
		res, err := runner.Run(cfg)
		took = time.Since(t0).Seconds()
		b.spans.end(id)
		ph.used.add(readUsage().sub(u0))
		b.attempted++
		ph.maxQueue = max(ph.maxQueue, res.UpStats.MaxQueueLen, res.DownStats.MaxQueueLen)
		if !b.checkSim(res, err) {
			b.failed++
		}
		ph.iters += cfg.Iterations
		wall += took
		ph.periods = append(ph.periods, took/float64(cfg.Iterations))
	}
	ph.rate = float64(ph.iters) / wall
	return ph
}

// checkSim compares a simulated run's outputs with the process's first run
// (so a traced run must match the untraced one bitwise) and with the
// stored reference for the seed, if there is one.
func (b *bench) checkSim(res runner.Result, err error) bool {
	if err != nil {
		b.problem("runner.Run: %v", err)
		return false
	}
	got := simOutput{SamplesPerSec: res.SamplesPerSec, Up: res.UpStats, Down: res.DownStats}
	ok := conserved(b, "up", got.Up) && conserved(b, "down", got.Down)
	if !(got.SamplesPerSec > 0) || math.IsInf(got.SamplesPerSec, 0) {
		b.problem("samples/s %v is not a positive finite speed", got.SamplesPerSec)
		ok = false
	}
	if b.first == nil {
		b.first = &got
	} else if got != *b.first {
		b.problem("sim outputs changed between runs of one seed (or under tracing): %+v, first %+v", got, *b.first)
		ok = false
	}
	if want, found := b.ref[b.w.name][strconv.FormatInt(b.seed, 10)]; found && got != want {
		b.problem("sim outputs differ from the stored reference for seed %d: %+v, want %+v", b.seed, got, want)
		ok = false
	}
	return ok
}

// conserved checks core's accounting invariant: every started partition
// finished, failed or was retried.
func conserved(b *bench, side string, st core.Stats) bool {
	if st.SubsStarted != st.SubsFinished+st.Failures+st.Retries {
		b.problem("core %s stats break SubsStarted == SubsFinished + Failures + Retries: %+v", side, st)
		return false
	}
	return true
}

// runLive makes one runner.RunLive call and checks it.
func (b *bench) runLive(cfg runner.LiveConfig, name string, parent int) (runner.LiveResult, float64, usage, bool) {
	u0 := readUsage()
	id := b.spans.begin(name, parent)
	t0 := time.Now()
	res, err := runner.RunLive(cfg)
	wall := time.Since(t0).Seconds()
	b.spans.end(id)
	used := readUsage().sub(u0)
	if err != nil {
		// RunLive's own aggregation-sum check reports here too.
		b.attempted += int64(cfg.Iterations)
		b.failed += int64(cfg.Iterations)
		b.problem("runner.RunLive: %v", err)
		return res, wall, used, false
	}
	st := res.Stats
	b.attempted += int64(st.SubsStarted)
	b.failed += int64(st.Failures + st.Retries)
	ok := conserved(b, "live", st)
	if want := cfg.Iterations - cfg.Warmup - 1; len(res.IterTimes) != want {
		b.problem("runner.RunLive returned %d iteration periods, want %d", len(res.IterTimes), want)
		ok = false
	}
	for _, p := range res.IterTimes {
		if !(p > 0) {
			b.problem("non-positive iteration period %v", p)
			ok = false
		}
	}
	return res, wall, used, ok
}

// liveSetup sets the live workload up liveSetupReps times with the shortest
// valid run. Each sample is the call's wall time outside its one measured
// period: listen, dial, warm-up iterations, the final iteration and
// teardown. It also returns a median period to size the timed phase.
func (b *bench) liveSetup(cfg runner.LiveConfig, parent int) (setup []float64, period float64) {
	id := b.spans.begin("setup: listen + dial + warm-up", parent)
	defer b.spans.end(id)
	cfg.Iterations = cfg.Warmup + 2
	var periods []float64
	for i := 0; i < liveSetupReps; i++ {
		res, wall, _, ok := b.runLive(cfg, "runner.RunLive", id)
		if ok {
			setup = append(setup, wall-sum(res.IterTimes))
			periods = append(periods, res.IterTimes...)
		}
	}
	return setup, median(periods)
}

// livePhase measures one live run of the given number of post-warm-up
// iterations.
func (b *bench) livePhase(cfg runner.LiveConfig, periods int, traced bool, parent int) phase {
	var ph phase
	if traced {
		ph.reg = metrics.NewRegistry()
		ph.rec = trace.New()
		cfg.Metrics = ph.reg
		cfg.Trace = trace.NewWall(ph.rec)
	}
	cfg.Iterations = cfg.Warmup + periods + 1
	runtime.GC()
	res, _, used, ok := b.runLive(cfg, "runner.RunLive", parent)
	ph.used = used
	if ok {
		ph.iters, ph.periods, ph.maxQueue = cfg.Iterations, res.IterTimes, res.Stats.MaxQueueLen
		ph.rate = float64(len(res.IterTimes)) / sum(res.IterTimes)
	}
	return ph
}

// livePeriods sizes a live phase to last about d at the given period.
func livePeriods(d time.Duration, period float64) int {
	if period <= 0 {
		return minLivePeriods
	}
	return max(minLivePeriods, int(d.Seconds()/period))
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// traceMemProfileRate is the allocation sampling interval of traced
// phases: finer than the runtime's 512 KiB default so that small per-layer
// shares are resolved.
const traceMemProfileRate = 64 << 10

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	note       string
}

// ungated metrics are printed in the report but left out of the result
// line, which carries exactly the metrics BENCHMARK.json declares. Host
// slow periods move the iteration-time tail by more than any bound the
// gate allows (see README).
var ungated = map[string]bool{"iter_ms_p95": true}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ratio is a / b, or 0 when b is 0 (an empty phase or an idle layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd derives the untraced metrics of one workload run.
func endToEnd(setup []float64, ph phase) []metric {
	p95, pct, beyond := tailQuantile(ph.periods)
	n, iters := len(ph.periods), float64(ph.iters)
	return []metric{
		{"setup_s", "s", median(setup), fmt.Sprintf("median of %d set-up samples", len(setup))},
		{"sim_iters_per_s", "iter/s", ph.rate, ""},
		{"iter_ms_p50", "ms", median(ph.periods) * 1e3, fmt.Sprintf("%d samples", n)},
		{"iter_ms_p95", "ms", p95 * 1e3, fmt.Sprintf("p%.1f of %d samples, %d beyond; not gated", pct, n, beyond)},
		{"cpu_ms_per_iter", "ms", ratio(ph.used.cpu.Seconds()*1e3, iters), ""},
		{"alloc_mb_per_iter", "MB", ratio(float64(ph.used.alloc)/1e6, iters), ""},
		{"peak_rss_mb", "MB", peakRSSMB(), ""},
	}
}

// profiled runs one traced phase under the CPU profiler and the
// allocation profiler and returns what each layer spent.
func profiled(measure func() phase) (phase, map[string]int64, map[string]float64, error) {
	runtime.MemProfileRate = traceMemProfileRate
	runtime.GC()
	runtime.GC()
	before := memProfile()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return phase{}, nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	ph := measure()
	pprof.StopCPUProfile()
	runtime.GC()
	runtime.GC()
	alloc := allocByLayer(before, memProfile(), traceMemProfileRate)
	cpu, err := cpuByLayer(buf.Bytes())
	return ph, cpu, alloc, err
}

// perLayer derives the traced metrics: CPU and allocations per layer from
// the profiles, scheduler and transport counts from the program's metrics
// registry, and the tracing overhead against the untraced phase base.
// liveBytes is the live workload's per-layer gradient sizes (nil in sim).
func perLayer(base, tr phase, cpu map[string]int64, alloc map[string]float64, liveBytes []int64) []metric {
	n := float64(tr.iters)
	var ms []metric
	for _, l := range layers {
		ms = append(ms, metric{l + ".cpu_ms_per_iter", "ms", ratio(float64(cpu[l])/1e6, n), ""})
	}
	for _, l := range layers {
		ms = append(ms, metric{l + ".alloc_mb_per_iter", "MB", ratio(alloc[l]/1e6, n), ""})
	}
	s := tr.reg.Snapshot()
	count := func(name string) float64 { return float64(s.Counters[name]) }
	meanMS := func(name string) float64 {
		h := s.Histograms[name]
		return ratio(h.Sum*1e3, float64(h.Count))
	}
	// Live runs time each partition on worker 0; the simulator publishes
	// the virtual-time transfer spans of every worker instead.
	partitionMS := meanMS("core_partition_seconds")
	if s.Histograms["core_partition_seconds"].Count == 0 {
		partitionMS = meanMS("sim_comm_seconds")
	}
	// fp32 bytes a ring of w peers moves per iteration: each peer sends
	// (w-1)/w of every tensor in reduce-scatter and again in all-gather.
	var raw float64
	for _, b := range liveBytes {
		raw += float64(b) * 2 * (liveWorkers - 1)
	}
	netarSent := count("netar_sent_bytes_total")
	ms = append(ms,
		metric{"core.subs_per_iter", "count", ratio(count("core_subs_started_total"), n), ""},
		metric{"core.preemptions_per_iter", "count", ratio(count("core_preemptions_total"), n), ""},
		metric{"core.max_queue_len", "count", float64(tr.maxQueue), ""},
		metric{"core.partition_ms_mean", "ms", partitionMS, ""},
		metric{"core.retries", "count", count("core_retries_total"), ""},
		metric{"core.failures", "count", count("core_failures_total"), ""},
		metric{"core.fused_members_per_task", "ratio", ratio(count("core_fused_members_total"), count("core_fused_tasks_total")), ""},
		metric{"netps.msgs_per_iter", "count", ratio(count("netps_msgs_total"), n), ""},
		metric{"netps.msgs_per_batch", "ratio", ratio(count("netps_batched_msgs_total"), count("netps_batches_total")), ""},
		metric{"netps.push_ms_mean", "ms", meanMS("netps_push_seconds"), ""},
		metric{"netps.pull_wait_ms_mean", "ms", meanMS("netps_pull_seconds"), ""},
		metric{"netps.wire_mb_per_iter", "MB", ratio((count("netps_pushed_bytes_total")+count("netps_pulled_bytes_total"))/1e6, n), ""},
		metric{"netps.retries", "count", count("netps_retries_total"), ""},
		metric{"netps.redials", "count", count("netps_redials_total"), ""},
		metric{"netar.ops_per_iter", "count", ratio(count("netar_ops_total"), n), ""},
		metric{"netar.op_ms_mean", "ms", meanMS("netar_op_seconds"), ""},
		metric{"netar.wire_mb_per_iter", "MB", ratio(netarSent/1e6, n), ""},
		metric{"netar.step_timeouts", "count", count("netar_step_timeouts_total"), ""},
		metric{"netar.dropped_segments", "count", count("netar_dropped_segments_total"), ""},
		metric{"compress.wire_ratio", "ratio", ratio(netarSent, raw*n), "netar bytes sent / fp32 ring bytes"},
		metric{"trace.overhead_pct", "%", 100 * (ratio(median(tr.periods), median(base.periods)) - 1), "traced vs untraced median iteration wall time"},
	)
	return ms
}

// writeTraces writes the run's spans when it ends: the benchmark's own
// spans with the environment, and the program's spans from the last traced
// call in Chrome-trace form.
func writeTraces(dir string, b *bench, env environment, tr phase) error {
	stem := fmt.Sprintf("%s-seed%d", b.w.name, b.seed)
	if err := writeJSON(dir, stem+".spans.json", map[string]any{"env": env, "spans": b.spans.list}); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if tr.rec == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, stem+".program.json"))
	if err != nil {
		return fmt.Errorf("write program trace: %w", err)
	}
	if err := tr.rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write program trace: %w", err)
	}
	return f.Close()
}

// report prints the human-readable report and the result line, and
// reports whether every output check passed.
func report(w io.Writer, b *bench, env environment, seconds float64, traced int, ms []metric, notes []string) bool {
	envJSON, _ := json.Marshal(env) // a struct of plain fields always marshals
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%d\n", b.w.name, b.seed, seconds, traced)
	fmt.Fprintf(w, "env %s\n", envJSON)
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			b.problem("metric %s is %v", m.name, m.value)
			m.value = 0
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		if !ungated[m.name] {
			res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
		}
	}
	for _, n := range notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if b.attempted == 0 {
		b.problem("no operation was attempted")
	}
	fmt.Fprintf(w, "failed_pct %g %% (%d failed of %d attempted)\n", 100*float64(b.failed)/float64(max(b.attempted, 1)), b.failed, b.attempted)
	for _, p := range b.problems {
		fmt.Fprintf(w, "check FAILED: %s\n", p)
	}
	if len(b.problems) == 0 {
		fmt.Fprintln(w, "checks passed")
	}
	res.Correct = len(b.problems) == 0
	res.Attempted = max(res.Attempted, 1)
	line, _ := json.Marshal(res) // finite values only, see above
	fmt.Fprintf(w, "%s\n", line)
	return res.Correct
}

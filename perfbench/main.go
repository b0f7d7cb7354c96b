// Command perfbench is the repository's benchmark: one training-iteration
// workload per run, measured end to end (--trace 0) or per layer
// (--trace 1). See README.md for the workloads, the metrics and which
// layer each one belongs to.
//
//	bash perfbench/run.sh --workload live-ps --seed 1 --seconds 20 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"bytescheduler/internal/runner"
)

//go:embed reference.json
var referenceJSON []byte

func main() {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reference.json:", err)
		os.Exit(2)
	}
	correct, err := run(os.Args[1:], os.Stdout, ref)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// run measures the workload named in args, prints the report with its
// result line to stdout, and reports whether every output check passed.
func run(args []string, stdout io.Writer, ref reference) (bool, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 measures per-layer metrics in a separate traced phase")
	out := fs.String("out", ".bench_build/traces", "directory for the traced run's span files")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	w, ok := workloadByName(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return false, fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(names, ", "))
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return false, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	env := readEnvironment()
	b := &bench{w: w, seed: *seed, ref: ref, spans: spans{epoch: time.Now()}}
	d := time.Duration(*seconds * float64(time.Second))
	if *traced == 1 {
		d /= 2
	}

	root := b.spans.begin("perfbench "+w.name, 0)
	var setup []float64
	var base phase
	var measureTraced func() phase
	var liveBytes []int64
	if w.sim != nil {
		var cfg runner.Config
		cfg, setup = b.simSetup(root)
		base = b.simPhase(cfg, d, false, root)
		measureTraced = func() phase { return b.simPhase(cfg, d, true, root) }
	} else {
		cfg := w.live(b.seed)
		liveBytes = cfg.LayerBytes
		var period float64
		setup, period = b.liveSetup(cfg, root)
		n := livePeriods(d, period)
		base = b.livePhase(cfg, n, false, root)
		measureTraced = func() phase { return b.livePhase(cfg, n, true, root) }
	}

	var ms []metric
	var notes []string
	if *traced == 0 {
		b.spans.end(root)
		ms = endToEnd(setup, base)
	} else {
		tr, cpu, alloc, err := profiled(measureTraced)
		if err != nil {
			return false, err
		}
		ms = perLayer(base, tr, cpu, alloc, liveBytes)
		notes = []string{
			"not exercised by any workload: cluster, tune, autotune, allreduce (no metrics reported for them)",
			"core.queue_wait: absent; core exports no ready-to-start wait measurement yet",
		}
		b.spans.end(root)
		if err := writeTraces(*out, b, env, tr); err != nil {
			return false, err
		}
	}
	return report(stdout, b, env, *seconds, *traced, ms, notes), nil
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"bytescheduler/internal/runner"
)

var update = flag.Bool("update", false, "regenerate reference.json for seeds 0 to referenceSeeds-1")

// referenceSeeds is how many seeds reference.json covers per simulated
// workload.
const referenceSeeds = 32

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declaredMetrics reads the metric lists from the repository's
// BENCHMARK.json.
func declaredMetrics(t *testing.T) (endToEnd, perLayer []declared) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b.EndToEnd, b.PerLayer
}

func embeddedReference(t *testing.T) reference {
	t.Helper()
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	return ref
}

// runBench runs the benchmark at minimum length and returns its report and
// parsed result line.
func runBench(t *testing.T, workload string, traced int, ref reference) (string, result) {
	t.Helper()
	var out bytes.Buffer
	args := []string{"--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", strconv.Itoa(traced), "--out", t.TempDir()}
	if _, err := run(args, &out, ref); err != nil {
		t.Fatalf("%s trace=%d: %v", workload, traced, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%d: last line is not a result: %v\n%s", workload, traced, err, out.String())
	}
	return out.String(), res
}

// hasLine reports whether the human-readable report prints d by name with
// its unit.
func hasLine(report string, d declared) bool {
	return regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(d.Name) + `\s+\S+\s+` + regexp.QuoteMeta(d.Unit) + `(\s|$)`).MatchString(report)
}

// TestWorkloadsMinimumLength runs every workload at minimum length, untraced
// and traced, and checks that exactly the declared metrics print by name
// with their units and that every output check passes.
func TestWorkloadsMinimumLength(t *testing.T) {
	endToEnd, perLayer := declaredMetrics(t)
	ref := embeddedReference(t)
	for _, w := range workloads {
		for traced, want := range [][]declared{endToEnd, perLayer} {
			report, res := runBench(t, w.name, traced, ref)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d\n%s", w.name, traced, res.Correct, res.Failed, res.Attempted, report)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.Name]
				switch {
				case !metricName.MatchString(d.Name):
					t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.Name)
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", w.name, traced, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s trace=%d: %s unit %q, want %q", w.name, traced, d.Name, got.Unit, d.Unit)
				case !hasLine(report, d):
					t.Errorf("%s trace=%d: report has no line for %s in %s", w.name, traced, d.Name, d.Unit)
				}
				if traced == 0 && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, got.Value)
				}
			}
			if p95 := (declared{"iter_ms_p95", "ms"}); traced == 0 && !hasLine(report, p95) {
				t.Errorf("%s: report has no line for the ungated %s", w.name, p95.Name)
			}
		}
	}
}

// TestCorruptedReferenceFails checks that the sim output check can fail: a
// stored reference with one value nudged makes the run incorrect.
func TestCorruptedReferenceFails(t *testing.T) {
	const w = "sim-ps-sched"
	good, ok := embeddedReference(t)[w]["1"]
	if !ok {
		t.Fatalf("reference.json has no %s entry for seed 1", w)
	}
	for name, corrupt := range map[string]func(*simOutput){
		"samples/s":    func(o *simOutput) { o.SamplesPerSec *= 1 + 1e-12 },
		"core counter": func(o *simOutput) { o.Up.SubsStarted++ },
	} {
		bad := good
		corrupt(&bad)
		report, res := runBench(t, w, 0, reference{w: {"1": bad}})
		if res.Correct || !strings.Contains(report, "check FAILED: sim outputs differ from the stored reference") {
			t.Errorf("corrupted %s passed the output check:\n%s", name, report)
		}
	}
}

// TestReference checks that every simulated workload has stored outputs
// for at least two seeds; with -update it regenerates them first.
func TestReference(t *testing.T) {
	if *update {
		ref := reference{}
		for _, w := range workloads {
			if w.sim == nil {
				continue
			}
			ref[w.name] = map[string]simOutput{}
			for seed := int64(0); seed < referenceSeeds; seed++ {
				res, err := runner.Run(w.sim(seed))
				if err != nil {
					t.Fatal(err)
				}
				ref[w.name][strconv.FormatInt(seed, 10)] = simOutput{SamplesPerSec: res.SamplesPerSec, Up: res.UpStats, Down: res.DownStats}
			}
		}
		raw, err := json.MarshalIndent(ref, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("reference.json", append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		referenceJSON = raw
	}
	ref := embeddedReference(t)
	for _, w := range workloads {
		if w.sim != nil && len(ref[w.name]) < 2 {
			t.Errorf("reference.json stores %d seeds for %s, want at least 2", len(ref[w.name]), w.name)
		}
	}
}

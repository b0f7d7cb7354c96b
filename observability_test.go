package bytescheduler_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	bs "bytescheduler"
	"bytescheduler/internal/netps"
	"bytescheduler/internal/trace"
)

// chromeEventKeys loads a Chrome trace JSON buffer and returns the ph=X
// span events plus the set of lanes named by ph=M metadata.
func chromeEventKeys(t *testing.T, data []byte) (spans []map[string]any, lanes map[string]bool) {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	lanes = make(map[string]bool)
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			for _, key := range []string{"name", "ts", "dur", "pid", "tid"} {
				if _, ok := ev[key]; !ok {
					t.Fatalf("span event missing %q: %v", key, ev)
				}
			}
			spans = append(spans, ev)
		case "M":
			if ev["name"] != "thread_name" {
				t.Fatalf("unexpected metadata event %v", ev)
			}
			args, ok := ev["args"].(map[string]any)
			if !ok {
				t.Fatalf("thread_name without args: %v", ev)
			}
			lanes[args["name"].(string)] = true
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	return spans, lanes
}

// TestSimRunMetricsAndTrace checks that a simulated run publishes metrics
// and a loadable Chrome trace through the facade.
func TestSimRunMetricsAndTrace(t *testing.T) {
	m := bs.NewMetrics()
	tr := bs.NewTraceRecorder()
	e := bs.Experiment{
		Model:         "VGG16",
		Arch:          bs.PS,
		Transport:     bs.RDMA,
		BandwidthGbps: 25,
		GPUs:          8,
		Policy:        bs.WithPartitionCredit(4<<20, 16<<20),
		Iterations:    4,
		Warmup:        1,
		Metrics:       m,
		Trace:         tr,
	}
	if _, err := bs.Run(e); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if got := snap.Counters["core_subs_started_total"]; got == 0 {
		t.Fatal("core_subs_started_total = 0 after a scheduled run")
	}
	if snap.Counters["core_subs_started_total"] != snap.Counters["core_subs_finished_total"] {
		t.Fatalf("started %d != finished %d at quiescence",
			snap.Counters["core_subs_started_total"], snap.Counters["core_subs_finished_total"])
	}
	if _, ok := snap.Counters["core_retries_total"]; !ok {
		t.Fatal("retry counter not published")
	}
	if got := snap.Gauges["core_credit_occupancy_bytes"]; got <= 0 || got > 16<<20 {
		t.Fatalf("core_credit_occupancy_bytes = %d, want in (0, credit]", got)
	}
	if got := snap.Gauges["core_credit_bytes"]; got != 16<<20 {
		t.Fatalf("core_credit_bytes = %d", got)
	}
	for _, name := range []string{"sim_compute_seconds", "sim_comm_seconds", "run_iter_seconds"} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			t.Fatalf("histogram %s empty: %+v", name, h)
		}
		if math.IsNaN(h.P50) || h.P50 < 0 {
			t.Fatalf("%s P50 = %v", name, h.P50)
		}
	}
	if tr.Len() == 0 {
		t.Fatal("sim trace recorded no spans")
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE core_subs_started_total counter") {
		t.Fatalf("prometheus export missing core counters:\n%s", buf.String())
	}
}

// TestLiveAndSimTracesShareSchema runs a real netps-backed live scheduler
// and a simulated run, exports both traces, and verifies they are loadable
// Chrome-trace JSON with the identical event schema — the property that
// makes tuneviz's overlay (and any trace viewer) work on either.
func TestLiveAndSimTracesShareSchema(t *testing.T) {
	// --- live side: facade scheduler over a real netps server ---
	m := bs.NewMetrics()
	tr := bs.NewTraceRecorder()
	sched := bs.NewScheduler(bs.WithPartitionCredit(64<<10, 128<<10).WithMaxRetries(3))
	sched.Instrument(m)
	sched.SetTrace(tr)

	srv, err := netps.NewServer(1)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := netps.NewClient(addr)
	defer client.Close()

	var wg sync.WaitGroup
	var injected atomic.Bool
	var subStarts, subFails atomic.Int64
	const layers = 3
	tasks := make([]*bs.CommTask, layers)
	for i := 0; i < layers; i++ {
		task := &bs.CommTask{
			Layer: i,
			Name:  fmt.Sprintf("grad%d", i),
			Bytes: 128 << 10,
		}
		task.StartErr = func(sub bs.SubTask, done func(error)) {
			go func() {
				if sub.TensorName == "grad0" && injected.CompareAndSwap(false, true) {
					done(errors.New("injected transport failure"))
					return
				}
				key := fmt.Sprintf("%s[%d/%d]", sub.TensorName, sub.Index, sub.Count)
				if err := client.Push(key, 1, make([]float32, sub.Bytes/4)); err != nil {
					done(err)
					return
				}
				err := client.Pull(key, 1, make([]float32, sub.Bytes/4))
				done(err)
			}()
		}
		task.OnSubStart = func(sub bs.SubTask) { subStarts.Add(1) }
		task.OnSubFinish = func(sub bs.SubTask, err error) {
			if err != nil {
				subFails.Add(1)
			}
		}
		wg.Add(1)
		task.OnFinished = wg.Done
		if err := sched.Enqueue(task); err != nil {
			t.Fatal(err)
		}
		tasks[i] = task
	}
	for i := layers - 1; i >= 0; i-- {
		if err := sched.NotifyReady(tasks[i]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	sched.Shutdown()
	for _, task := range tasks {
		if err := task.Err(); err != nil {
			t.Fatalf("task %s failed: %v", task.Name, err)
		}
	}

	stats := sched.Stats()
	if stats.Retries != 1 {
		t.Fatalf("Retries = %d, want 1 injected", stats.Retries)
	}
	snap := m.Snapshot()
	if got := snap.Counters["core_retries_total"]; got != 1 {
		t.Fatalf("core_retries_total = %d, want 1", got)
	}
	if h := snap.Histograms["core_partition_seconds"]; h.Count == 0 {
		t.Fatal("core_partition_seconds empty on the live path")
	}
	if got := snap.Gauges["core_credit_occupancy_bytes"]; got <= 0 || got > 128<<10 {
		t.Fatalf("live credit occupancy = %d, want in (0, credit]", got)
	}
	if subStarts.Load() == 0 || subFails.Load() != 1 {
		t.Fatalf("span hooks: starts=%d fails=%d, want >0 and 1", subStarts.Load(), subFails.Load())
	}
	if tr.Clamped() != 0 {
		t.Logf("live trace clamped %d spans (tolerated)", tr.Clamped())
	}

	var liveBuf bytes.Buffer
	if err := tr.WriteChromeTrace(&liveBuf); err != nil {
		t.Fatal(err)
	}

	// --- sim side ---
	simTr := bs.NewTraceRecorder()
	e := bs.Experiment{
		Model:         "AlexNet",
		Arch:          bs.PS,
		Transport:     bs.TCP,
		BandwidthGbps: 10,
		GPUs:          8,
		Policy:        bs.WithPartitionCredit(4<<20, 16<<20),
		Iterations:    3,
		Warmup:        1,
		Trace:         simTr,
	}
	if _, err := bs.Run(e); err != nil {
		t.Fatal(err)
	}
	var simBuf bytes.Buffer
	if err := simTr.WriteChromeTrace(&simBuf); err != nil {
		t.Fatal(err)
	}

	// --- schema comparison ---
	liveSpans, liveLanes := chromeEventKeys(t, liveBuf.Bytes())
	simSpans, simLanes := chromeEventKeys(t, simBuf.Bytes())
	if len(liveSpans) == 0 || len(simSpans) == 0 {
		t.Fatalf("spans: live=%d sim=%d, want both > 0", len(liveSpans), len(simSpans))
	}
	if !liveLanes["core/L00"] {
		t.Fatalf("live lanes missing core/L00: %v", liveLanes)
	}
	if len(simLanes) == 0 {
		t.Fatal("sim trace has no named lanes")
	}
	keysOf := func(ev map[string]any) string {
		out := make([]string, 0, len(ev))
		for k := range ev {
			if k == "args" { // optional on span events
				continue
			}
			out = append(out, k)
		}
		return strings.Join(sortStrings(out), ",")
	}
	if keysOf(liveSpans[0]) != keysOf(simSpans[0]) {
		t.Fatalf("span schemas differ: live=%s sim=%s", keysOf(liveSpans[0]), keysOf(simSpans[0]))
	}

	// Both round-trip through the overlay loader.
	for name, buf := range map[string]*bytes.Buffer{"live": &liveBuf, "sim": &simBuf} {
		back, err := trace.ReadChromeTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s trace not loadable: %v", name, err)
		}
		if back.Len() == 0 {
			t.Fatalf("%s trace loaded empty", name)
		}
	}
}

func sortStrings(xs []string) []string {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// usage is the process's CPU time and cumulative heap allocation at one
// instant; deltas between two readings bound a measured region.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF with a valid pointer cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), alloc: ms.TotalAlloc}
}

func (u usage) sub(v usage) usage { return usage{cpu: u.cpu - v.cpu, alloc: u.alloc - v.alloc} }

func (u *usage) add(v usage) { u.cpu += v.cpu; u.alloc += v.alloc }

// peakRSSMB is the process's peak resident set so far (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) * 1024 / 1e6
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailQuantile returns the nearest-rank p95 of xs, lowered when xs is
// short to the highest rank that still has at least ten samples beyond it
// but never below the upper median, and the percentile used and the
// number of samples beyond it.
func tailQuantile(xs []float64) (v, pct float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	k := min(int(math.Ceil(0.95*float64(n)))-1, n-11)
	k = max(k, n/2)
	return s[k], 100 * float64(k+1) / float64(n), n - 1 - k
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// environment identifies where a result was measured.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Race       bool   `json:"race"`
}

// revision is the git revision the benchmark was built from; run.sh sets
// it at link time.
var revision = "unknown"

// readEnvironment records the machine and build.
func readEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Revision:   revision,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				env.Race = s.Value == "true"
			}
		}
	}
	return env
}

// span is one timed call the benchmark made into the program; Parent is
// the ID of the enclosing span (0 for none).
type span struct {
	Name   string  `json:"name"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spans keeps the benchmark's own spans in memory until the run ends.
type spans struct {
	epoch time.Time
	list  []span
}

func (s *spans) begin(name string, parent int) int {
	s.list = append(s.list, span{Name: name, ID: len(s.list) + 1, Parent: parent, Start: time.Since(s.epoch).Seconds()})
	return len(s.list)
}

func (s *spans) end(id int) { s.list[id-1].End = time.Since(s.epoch).Seconds() }

// writeJSON writes v as indented JSON to dir/name, creating dir.
func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

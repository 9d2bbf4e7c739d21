package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/nn"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
// xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the midpoint median (the mean of the two middle samples for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// timeSetup runs a workload's set-up n times, each from a collected heap
// so no repetition pays for the previous one's garbage, and returns the
// median time in seconds.
func timeSetup(n int, setup func(k int) error) (float64, error) {
	var secs []float64
	for k := 0; k < n; k++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(k); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// fits reports whether one more repetition, taking the median of the
// durations so far (in seconds), ends before the deadline.
func fits(secs []float64, deadline time.Time) bool {
	return time.Now().Add(time.Duration(median(secs) * float64(time.Second))).Before(deadline)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durations converts samples to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// allocs brackets a serial call with runtime.MemStats reads.
type allocs struct{ mallocs, bytes uint64 }

func readAllocs() allocs {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocs{m.Mallocs, m.TotalAlloc}
}

func (a allocs) since(b allocs) allocs { return allocs{a.mallocs - b.mallocs, a.bytes - b.bytes} }

// peakRSSMB reads a process's peak resident set size (VmHWM) from /proc.
func peakRSSMB(pid string) (float64, bool) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// hostFingerprint records what the numbers depend on: CPU model and flags,
// core counts, the selected kernel set, the Go version, and the commit.
func hostFingerprint() map[string]any {
	h := map[string]any{
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"kernel":          nn.KernelName(),
		"kernel_features": nn.KernelFeatures(),
		"go":              runtime.Version(),
		"commit":          "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			key, val, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			if key == "model name" && h["cpu_model"] == nil {
				h["cpu_model"] = val
			}
			if key == "flags" && h["cpu_flags"] == nil {
				h["cpu_flags"] = val
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h["commit"] = s.Value
			case "vcs.modified":
				h["commit_modified"] = s.Value
			}
		}
	}
	return h
}

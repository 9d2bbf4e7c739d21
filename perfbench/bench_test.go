package main

import (
	"encoding/json"
	"errors"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

// TestMetricNamesMatchBenchmarkJSON checks that the metrics every workload
// prints are exactly the ones BENCHMARK.json declares, section by section.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	var workloadNames []string
	for w := range workloads {
		workloadNames = append(workloadNames, w)
	}
	sort.Strings(workloadNames)
	if got := names(decl.Workloads); !slices.Equal(got, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", got, workloadNames)
	}
	for _, c := range []struct {
		mode     string
		printed  []string
		declared []struct{ Name string }
	}{{"end-to-end", endToEnd, decl.EndToEnd}, {"per-layer", perLayer, decl.PerLayer}} {
		printed := append([]string(nil), c.printed...)
		sort.Strings(printed)
		if len(slices.Compact(slices.Clone(printed))) != len(printed) {
			t.Errorf("%s: a metric is printed twice: %v", c.mode, printed)
		}
		if want := names(c.declared); !slices.Equal(printed, want) {
			t.Errorf("%s: workloads print %v, BENCHMARK.json declares %v", c.mode, printed, want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	// p99 of 1000 samples is the 990th smallest: ten samples lie beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[len(big)-1-i] = float64(i + 1)
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// TestOpenLoopChargesStallToLaterRequests drives the open-loop generator
// against a fake responder that stalls once. Requests that fell due during
// the stall must carry it in their latency (timed from the due time),
// where timing from the actual send would show them as fast.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		rate  = 500 // requests/s: one due every 2ms
		stall = 40 * time.Millisecond
		at    = 10 // the request that stalls
	)
	var sent int
	ol := &openLoop{pool: 1000, conns: []func(int) error{func(i int) error {
		sent++
		if i == at {
			time.Sleep(stall)
		}
		return nil
	}}}
	res := ol.run(rate, 100*time.Millisecond)
	if res.Sent != 50 || sent != 50 || len(res.Latency) != 50 || res.Failed != 0 {
		t.Fatalf("sent %d (driver says %d), answered %d, failed %d; want 50 each and no failures", sent, res.Sent, len(res.Latency), res.Failed)
	}
	// Request at+k fell due 2k ms into the stall; it cannot finish before
	// the stall ends, so its latency from due is at least stall - 2k ms.
	for k := 1; k <= 10; k++ {
		floor := stall - time.Duration(k)*2*time.Millisecond
		if got := res.Latency[at+k]; got < floor {
			t.Errorf("request %d: latency %v from due, want >= %v (the stall must be charged to it)", at+k, got, floor)
		}
	}
	// Before the stall the responder is instant and the generator on time.
	if got := res.Latency[at-1]; got > 10*time.Millisecond {
		t.Errorf("request %d before the stall: latency %v, want well under the stall", at-1, got)
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	ol := &openLoop{pool: 4, conns: []func(int) error{
		func(i int) error { return nil },
		func(i int) error {
			if i%2 == 1 {
				return errors.New("wrong pick")
			}
			return nil
		},
	}}
	res := ol.run(1000, 20*time.Millisecond)
	if res.Sent != 20 || res.Failed+len(res.Latency) != res.Sent || res.Failed == 0 {
		t.Fatalf("sent %d, failed %d, answered %d: every request must be counted once and failures kept", res.Sent, res.Failed, len(res.Latency))
	}
}

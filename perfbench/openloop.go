package main

import (
	"runtime"
	"sync"
	"time"
)

// openLoop is the benchmark's own open-loop driver. Each connection sends
// on a fixed schedule whatever the responses do, and every request is
// timed from the moment it was due, so a stall is charged to all the
// requests it delays, not only the one that met it. (serve.RunLoadgen
// times from the actual send, which hides that queueing.)
type openLoop struct {
	// conns answer request i of the pool on one connection each; a
	// connection's calls never overlap.
	conns []func(i int) error
	// swap, when non-nil, runs on connection 0 between two decisions once
	// per swapEvery of schedule.
	swap      func() error
	swapEvery time.Duration
	pool      int // request pool size; connection k starts at k*pool/len(conns)
}

// stepResult is one rate step of the ladder.
type stepResult struct {
	Rate     float64         // total scheduled rate, requests/s
	Sent     int             // requests scheduled (and sent)
	Failed   int             // errors and wrong decisions
	Latency  []time.Duration // per answered request, from its due time
	Lateness []time.Duration // generator oversleep, for requests it had to wait for
	Swaps    []time.Duration // swap round trips
	SwapErrs int
	Elapsed  time.Duration // first due time to last answer
	// Tail is the median latency of the step's last quarter: a growing
	// backlog shows as a tail far above the limit.
	Tail time.Duration
}

// run drives one step: rate requests/s in total for dur, split evenly
// across the connections with staggered schedules. The request count is
// rate*dur, fixed by the schedule, so it repeats exactly run to run.
func (o *openLoop) run(rate float64, dur time.Duration) stepResult {
	nc := len(o.conns)
	interval := time.Duration(float64(time.Second) * float64(nc) / rate)
	perConn := int(rate * dur.Seconds() / float64(nc))
	type connResult struct {
		lat, late, swaps []time.Duration
		failed, swapErrs int
		lastDone         time.Time
	}
	results := make([]connResult, nc)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for k := 0; k < nc; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			res := &results[k]
			offset := time.Duration(k) * interval / time.Duration(nc)
			nextSwap := start.Add(o.swapEvery)
			for j := 0; j < perConn; j++ {
				due := start.Add(offset + time.Duration(j)*interval)
				if k == 0 && o.swap != nil && !due.Before(nextSwap) {
					t0 := time.Now()
					if err := o.swap(); err != nil {
						res.swapErrs++
					}
					res.swaps = append(res.swaps, time.Since(t0))
					nextSwap = nextSwap.Add(o.swapEvery)
				}
				if time.Until(due) > 0 {
					waitUntil(due)
					res.late = append(res.late, time.Since(due))
				}
				err := o.conns[k]((k*o.pool/nc + j) % o.pool)
				done := time.Now()
				if err != nil {
					res.failed++
					continue
				}
				res.lat = append(res.lat, done.Sub(due))
				res.lastDone = done
			}
		}(k)
	}
	wg.Wait()
	out := stepResult{Rate: rate, Sent: perConn * nc}
	var last time.Time
	var tail []float64
	for _, r := range results {
		out.Latency = append(out.Latency, r.lat...)
		out.Lateness = append(out.Lateness, r.late...)
		out.Swaps = append(out.Swaps, r.swaps...)
		out.Failed += r.failed
		out.SwapErrs += r.swapErrs
		if r.lastDone.After(last) {
			last = r.lastDone
		}
		for _, l := range r.lat[len(r.lat)*3/4:] {
			tail = append(tail, float64(l))
		}
	}
	out.Elapsed = last.Sub(start)
	out.Tail = time.Duration(median(tail))
	return out
}

// spinWindow is how long before a due time the generator stops sleeping
// and yields in a loop instead: a sleeping goroutine wakes up to a
// millisecond late, which would be charged to the daemon.
const spinWindow = time.Millisecond

// waitUntil returns at t: it sleeps until spinWindow before t, then yields
// until t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// pct returns the nearest-rank percentile of a duration sample in ms, or 0
// for an empty sample.
func pct(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	return percentile(durations(ds, time.Millisecond), q)
}

package main

import "time"

// layers is what a traced run measures, the same set on every workload.
// Each workload goes through a different mix of layers — training
// (rollout collect and dfp TrainStep), the episode loop (sim, sched,
// picks, encoding), GA search, daemon round trips — so next to the
// per-call costs of the layers every workload uses, a traced run reports
// how the attributed time splits between all of them: a layer a workload
// does not use shows as 0%.
type layers struct {
	resolve         span // experiments.Prepare / PrepareFor calls
	collect, reduce span // rollout Actor.Rollout / Learner.Reduce calls
	stepP50         []float64

	pick, encode, pass span // Picker.Pick, the extra Enc.Encode, OnSchedule
	passSelf, simSelf  time.Duration
	episodes           int
	gaPick             span

	serve span // daemon round trips outside the episodes

	// alloc is measured around untraced calls that made allocDecisions
	// decisions.
	alloc          allocs
	allocDecisions int

	// The exact counts of one unit of the workload (its first traced
	// repetition); a workload checks they repeat.
	decisions, passes, trainSteps, gaPicks, requests int

	overhead []float64 // traced minus untraced time, % of untraced
}

// addEpisode adds one traced episode's split.
func (l *layers) addEpisode(ep episode, ga bool) {
	l.pick.n += ep.pick.n
	l.pick.total += ep.pick.total
	l.encode.n += ep.encode.n
	l.encode.total += ep.encode.total
	l.pass.n += ep.pass.n
	l.pass.total += ep.pass.total
	l.passSelf += ep.passSelf()
	l.simSelf += ep.simSelf()
	l.episodes++
	if ga {
		l.gaPick.n += ep.pick.n
		l.gaPick.total += ep.pick.total
	}
}

// addTraining adds one traced training's split.
func (l *layers) addTraining(t trainLayers) {
	l.collect.n += t.collect.n
	l.collect.total += t.collect.total
	l.reduce.n += t.reduce.n
	l.reduce.total += t.reduce.total
	l.stepP50 = append(l.stepP50, us(t.stepP50))
}

// addOverhead records one traced/untraced pair of the same work.
func (l *layers) addOverhead(traced, plain time.Duration) {
	l.overhead = append(l.overhead, 100*(traced-plain).Seconds()/plain.Seconds())
}

// timeResolve times one materials generation.
func (l *layers) timeResolve(f func() error) error {
	t0 := time.Now()
	err := f()
	l.resolve.add(time.Since(t0))
	return err
}

// set reports the per-layer metrics, and the per-call costs of the layers
// only some workloads use in the run details.
func (l *layers) set(e *env) {
	r := e.rep
	r.set("sched.pick_us", "us", l.pick.perCall(time.Microsecond))
	r.set("encode.encode_us", "us", l.encode.perCall(time.Microsecond))
	r.set("sched.pass_self_us", "us", float64(l.passSelf)/float64(max(l.pass.n, 1))/1e3)
	r.set("sim.self_ms", "ms", ms(l.simSelf)/float64(max(l.episodes, 1)))
	r.set("experiments.resolve_ms", "ms", l.resolve.perCall(time.Millisecond))
	r.set("sched.decisions", "count", float64(l.decisions))
	r.set("sched.passes", "count", float64(l.passes))
	r.set("dfp.train_steps", "count", float64(l.trainSteps))
	r.set("ga.picks", "count", float64(l.gaPicks))
	r.set("serve.requests", "count", float64(l.requests))
	r.set("alloc.per_decision", "count", float64(l.alloc.mallocs)/float64(max(l.allocDecisions, 1)))
	r.set("alloc.bytes_per_decision", "B", float64(l.alloc.bytes)/float64(max(l.allocDecisions, 1)))
	r.check(l.episodes > 0 && l.pick.n > 0 && l.resolve.n > 0 && l.allocDecisions > 0 && len(l.overhead) > 0,
		"traced run measured %d episodes, %d picks, %d materials generations, %d allocation-counted decisions, %d overhead pairs; each must be positive",
		l.episodes, l.pick.n, l.resolve.n, l.allocDecisions, len(l.overhead))

	parts := []struct {
		name string
		d    time.Duration
	}{
		{"time.resolve_pct", l.resolve.total},
		{"time.collect_pct", l.collect.total},
		{"time.reduce_pct", l.reduce.total},
		{"time.pick_pct", l.pick.total},
		{"time.sched_pct", l.passSelf},
		{"time.sim_pct", l.simSelf},
		{"time.serve_pct", l.serve.total},
	}
	var total time.Duration
	for _, p := range parts {
		total += p.d
	}
	for _, p := range parts {
		r.set(p.name, "%", 100*float64(p.d)/float64(max(total, 1)))
	}
	r.set("trace.overhead_pct", "%", median(l.overhead))

	info := map[string]any{"attributed_s": total.Seconds(), "episodes": l.episodes}
	if l.collect.n > 0 {
		info["rollout.collect_ms"] = l.collect.perCall(time.Millisecond)
		info["rollout.reduce_ms"] = l.reduce.perCall(time.Millisecond)
		info["rollout.episodes"] = l.collect.n
		info["dfp.train_step_us_p50"] = median(l.stepP50)
	}
	if l.gaPick.n > 0 {
		info["ga.pick_ms"] = l.gaPick.perCall(time.Millisecond)
	}
	e.info["layers"] = info
}

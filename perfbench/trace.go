package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/rollout"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The traced runs time the public calls into each layer from here, never
// from inside the program: wrappers around sched.Picker, sim.Policy and
// rollout.Learner/Actor, plus timers around Simulator.Run.

// span accumulates the busy time and call count of one layer boundary.
type span struct {
	n     int
	total time.Duration
}

func (s *span) add(d time.Duration) { s.n++; s.total += d }

// perCall returns the mean busy time per call in the given unit.
func (s span) perCall(unit time.Duration) float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / float64(unit)
}

// tracedPicker times each Pick of the wrapped picker and, when enc is set,
// an extra Enc.Encode of the same context (outside the pick's timer).
// A remotePicker's verification against the offline pick also runs
// outside the timer.
type tracedPicker struct {
	inner        sched.Picker
	enc          *encode.Config
	verify       func(ctx *sched.PickContext, pick int) // after the timer, when set
	pick, encode span
	verified     time.Duration
}

func (p *tracedPicker) Pick(ctx *sched.PickContext) int {
	if p.enc != nil {
		t0 := time.Now()
		p.enc.Encode(ctx)
		p.encode.add(time.Since(t0))
	}
	t0 := time.Now()
	i := p.inner.Pick(ctx)
	p.pick.add(time.Since(t0))
	if p.verify != nil {
		t0 := time.Now()
		p.verify(ctx, i)
		p.verified += time.Since(t0)
	}
	return i
}

// tracedPolicy times each scheduling pass (WindowPolicy.OnSchedule).
type tracedPolicy struct {
	inner sim.Policy
	pass  span
}

func (p *tracedPolicy) OnSchedule(s *sim.Simulator) {
	t0 := time.Now()
	p.inner.OnSchedule(s)
	p.pass.add(time.Since(t0))
}

// episode is one traced evaluation episode: the time split between the
// simulator, the window driver and the picker.
type episode struct {
	rep    metrics.Report
	run    time.Duration // Simulator.Run
	pass   span          // WindowPolicy.OnSchedule
	pick   span          // Picker.Pick
	encode span          // extra Enc.Encode per pick
	verify time.Duration // offline verification of served picks
}

// passSelf is the window driver's own time: passes minus picks, the
// traced encodes and verifications (the window loop, EASY backfill and
// cluster calls).
func (e episode) passSelf() time.Duration {
	return e.pass.total - e.pick.total - e.encode.total - e.verify
}

// simSelf is the simulator's own time: Run minus the scheduling passes.
func (e episode) simSelf() time.Duration { return e.run - e.pass.total }

// runEpisode is experiments.Evaluate (fresh simulator, cloned jobs, Run,
// metrics.Collect) with the layer boundaries timed. enc, when non-nil,
// also times the state encoding of every decision context.
func runEpisode(sys cluster.Config, wp *sched.WindowPolicy, enc *encode.Config, jobs []*job.Job, method, wl string) (episode, error) {
	tp := &tracedPicker{inner: wp.Picker, enc: enc}
	if rp, ok := wp.Picker.(*remotePicker); ok {
		rp.deferred = true
		defer func() { rp.deferred = false }()
		tp.verify = rp.verify
	}
	wp.Picker = tp
	pol := &tracedPolicy{inner: wp}
	s := sim.New(sys, pol)
	if err := s.Load(job.CloneAll(jobs)); err != nil {
		return episode{}, fmt.Errorf("%s on %s: %w", method, wl, err)
	}
	t0 := time.Now()
	if err := s.Run(); err != nil {
		return episode{}, fmt.Errorf("%s on %s: %w", method, wl, err)
	}
	run := time.Since(t0)
	rep := metrics.Collect(method, wl, s, sys.ResourceIndex("power_kw"))
	return episode{rep: rep, run: run, pass: pol.pass, pick: tp.pick, encode: tp.encode, verify: tp.verified}, nil
}

// tracedLearner wraps a rollout.Learner, timing every Actor.Rollout
// (collect) and Learner.Reduce (gradient steps) call.
type tracedLearner struct {
	inner           rollout.Learner
	collect, reduce span
}

func (l *tracedLearner) Spawn() (rollout.Actor, bool) {
	a, parallel := l.inner.Spawn()
	return &tracedActor{inner: a, l: l}, parallel
}

func (l *tracedLearner) Reduce(ep rollout.Episode, tr rollout.Transcript) (core.EpisodeResult, error) {
	t0 := time.Now()
	res, err := l.inner.Reduce(ep, tr)
	l.reduce.add(time.Since(t0))
	return res, err
}

// Instrument forwards the harness registry to the wrapped learner, whose
// MRSch adapter records every TrainStep in dfp_train_step_ns.
func (l *tracedLearner) Instrument(reg *telemetry.Registry) {
	if in, ok := l.inner.(rollout.Instrumented); ok {
		in.Instrument(reg)
	}
}

// tracedActor times Rollout. The training runs use one rollout worker, so
// the harness serializes rollouts and reductions and the spans need no lock.
type tracedActor struct {
	inner rollout.Actor
	l     *tracedLearner
}

func (a *tracedActor) Rollout(ep rollout.Episode) (rollout.Transcript, error) {
	t0 := time.Now()
	tr, err := a.inner.Rollout(ep)
	a.l.collect.add(time.Since(t0))
	return tr, err
}

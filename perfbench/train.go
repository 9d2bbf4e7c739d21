package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/rollout"
	"repro/internal/telemetry"
)

const (
	trainScenario = "S4"
	// trainInstances is the size of a run's input ensemble: independent S4
	// traces at quick scale. The trained model's quality varies between
	// traces, so slowdown averages over the ensemble.
	trainInstances = 16
	// A run repeats its set-up and reports the median as setup_s: set-ups
	// of milliseconds need more repeats to be steady than set-ups that
	// train a model.
	fastSetupRepeats = 21
	slowSetupRepeats = 3
)

// trainInput is one ensemble instance: materials generated at quick scale
// (1/32 Theta, one rollout worker, barrier mode: the mrsch-train default)
// and the S4 test-split workload the trained model is evaluated on.
type trainInput struct {
	m    *experiments.Materials
	test []*job.Job
	fcfs float64 // the Heuristic's average slowdown on test
}

func trainInputs(seed int64, n int, l *layers) ([]trainInput, error) {
	ins := make([]trainInput, n)
	for i := range ins {
		sc := experiments.QuickScale()
		sc.Seed = subSeed(seed, i)
		var m *experiments.Materials
		err := l.timeResolve(func() (err error) {
			m, err = experiments.Prepare(sc)
			return err
		})
		if err != nil {
			return nil, err
		}
		test := m.Workload(trainScenario)
		rep, err := experiments.Evaluate(sc.System(), experiments.FCFSPolicy(sc.Window), test, experiments.MethodHeuristic, trainScenario, -1)
		if err != nil {
			return nil, err
		}
		ins[i] = trainInput{m: m, test: test, fcfs: rep.AvgSlowdown}
	}
	return ins, nil
}

// trainOutcome is what one training produces: its wall time, the sha256
// of the saved model, and the greedy evaluation on the test split with
// the allocations it made.
type trainOutcome struct {
	dur   time.Duration
	sha   [32]byte
	rep   metrics.Report
	alloc allocs
}

// trainOnce runs experiments.TrainMRSch, the timed call, then evaluates.
func trainOnce(in trainInput) (trainOutcome, error) {
	t0 := time.Now()
	agent, _, err := experiments.TrainMRSch(in.m, trainScenario, false)
	dur := time.Since(t0)
	if err != nil {
		return trainOutcome{}, err
	}
	return finishTrain(agent, in, dur)
}

func finishTrain(agent *core.MRSch, in trainInput, dur time.Duration) (trainOutcome, error) {
	var buf bytes.Buffer
	if err := agent.Save(&buf); err != nil {
		return trainOutcome{}, err
	}
	agent.Train = false
	before := readAllocs()
	rep, err := experiments.Evaluate(in.m.Scale.System(), agent.Policy(), in.test, experiments.MethodMRSch, trainScenario, -1)
	return trainOutcome{dur: dur, sha: sha256.Sum256(buf.Bytes()), rep: rep, alloc: readAllocs().since(before)}, err
}

// checkTrain gates one outcome: no error, every test job finished, and —
// for a repeat — the same model bytes and report as the first run.
func checkTrain(r *report, i int, out trainOutcome, err error, in trainInput, first *trainOutcome) {
	switch {
	case err != nil:
		r.op(false, "train instance %d: %v", i, err)
	case out.rep.Jobs != len(in.test):
		r.op(false, "train instance %d: evaluation finished %d of %d jobs", i, out.rep.Jobs, len(in.test))
	case first != nil && out.sha != first.sha:
		r.op(false, "train instance %d: model sha256 %x differs from the first run's %x", i, out.sha[:8], first.sha[:8])
	case first != nil && !reflect.DeepEqual(out.rep, first.rep):
		r.op(false, "train instance %d: evaluation report differs from the first run's", i)
	default:
		r.op(true, "")
	}
}

func runTrain(e *env) error {
	var ins []trainInput
	setup, err := timeSetup(fastSetupRepeats, func(int) (err error) {
		ins, err = trainInputs(e.seed, trainInstances, &layers{})
		return err
	})
	if err != nil {
		return err
	}
	// Every instance trains once; then the ensemble repeats while the
	// budget lasts, and each repeat must reproduce its first run exactly.
	deadline := time.Now().Add(e.budget)
	first := make([]trainOutcome, len(ins))
	var durs, slowdowns []float64
	for n := 0; n < len(ins) || fits(durs, deadline); n++ {
		i := n % len(ins)
		out, err := trainOnce(ins[i])
		if n < len(ins) {
			checkTrain(e.rep, i, out, err, ins[i], nil)
			first[i] = out
			slowdowns = append(slowdowns, out.rep.AvgSlowdown/ins[i].fcfs)
		} else {
			checkTrain(e.rep, i, out, err, ins[i], &first[i])
		}
		durs = append(durs, out.dur.Seconds())
	}
	e.rep.set("setup_s", "s", setup)
	// op_ms: one experiments.TrainMRSch call, the median over the ensemble
	// and its repeats.
	e.rep.set("op_ms", "ms", 1000*median(durs))
	// slowdown: the trained model's average bounded slowdown on the test
	// split relative to the Heuristic's, for the reason relativeSlowdown
	// gives, averaged over the ensemble.
	e.rep.set("slowdown", "ratio", mean(slowdowns))
	setPeakRSS(e, "self")
	e.info["trainings"] = len(durs)
	return nil
}

// trainLayers is what one traced training measures.
type trainLayers struct {
	collect, reduce span
	stepP50         time.Duration
	steps           uint64
	allocs          allocs
}

// traceTraining repeats experiments.TrainMRSch through its public pieces —
// the campaign-architecture agent, the sampled→real→synthetic curriculum,
// and rollout.Train over the MRSch learner with the scale's rollout seed —
// with the learner wrapped. The model must come out byte-identical to the
// untraced call's.
func traceTraining(m *experiments.Materials) (*core.MRSch, trainLayers, time.Duration, error) {
	sc := m.Scale
	reg := telemetry.NewRegistry()
	t0 := time.Now()
	agent := experiments.NewMRSchUntrained(sc, false)
	sets := experiments.Ordering{core.Sampled, core.Real, core.Synthetic}.Sets(m.CurriculumSets(trainScenario))
	tl := &tracedLearner{inner: rollout.NewMRSchLearner(agent, core.TrainConfig{
		System:          sc.System(),
		StepsPerEpisode: sc.StepsPerEpisode,
	})}
	before := readAllocs()
	_, err := rollout.Train(tl, rollout.Config{Workers: sc.RolloutWorkers, Seed: sc.Seed + 7, Metrics: reg}, sets)
	a := readAllocs().since(before)
	dur := time.Since(t0)
	h := reg.Histogram("dfp_train_step_ns")
	return agent, trainLayers{collect: tl.collect, reduce: tl.reduce, stepP50: time.Duration(h.Quantile(0.5)), steps: h.Count(), allocs: a}, dur, err
}

// trainTraced trains an instance with traceTraining, then evaluates the
// model in a traced episode whose report must equal experiments.Evaluate's.
func trainTraced(in trainInput) (trainOutcome, trainLayers, episode, error) {
	agent, tls, dur, err := traceTraining(in.m)
	if err != nil {
		return trainOutcome{}, tls, episode{}, err
	}
	var buf bytes.Buffer
	if err := agent.Save(&buf); err != nil {
		return trainOutcome{}, tls, episode{}, err
	}
	agent.Train = false
	ep, err := runEpisode(in.m.Scale.System(), agent.Policy(), &agent.Enc, in.test, experiments.MethodMRSch, trainScenario)
	return trainOutcome{dur: dur, sha: sha256.Sum256(buf.Bytes()), rep: ep.rep}, tls, ep, err
}

func traceTrain(e *env) error {
	l := &layers{}
	ins, err := trainInputs(e.seed, trainInstances, l)
	if err != nil {
		return err
	}
	// Untraced and traced trainings alternate on the same instance. The
	// order 0, 0, 1, 2, ... repeats instance 0 first, so the exact counts
	// are checked run to run within every traced run.
	deadline := time.Now().Add(e.budget)
	var first trainLayers
	var pairs []float64
	for n := 0; n < 2 || fits(pairs, deadline); n++ {
		t0 := time.Now()
		i := 0
		if n > 0 {
			i = (n - 1) % len(ins)
		}
		plain, err := trainOnce(ins[i])
		checkTrain(e.rep, i, plain, err, ins[i], nil)
		traced, tls, ep, err := trainTraced(ins[i])
		if err != nil {
			return fmt.Errorf("train instance %d, traced: %w", i, err)
		}
		checkTrain(e.rep, i, traced, nil, ins[i], &plain)
		if n == 0 {
			first = tls
			l.decisions, l.passes, l.trainSteps = ep.pick.n, ep.pass.n, int(tls.steps)
		} else if i == 0 {
			e.rep.check(tls.steps == first.steps && tls.collect.n == first.collect.n && ep.pick.n == l.decisions && ep.pass.n == l.passes,
				"train instance 0: exact counts differ between traced runs (train steps %d vs %d, episodes %d vs %d, decisions %d vs %d, passes %d vs %d)",
				tls.steps, first.steps, tls.collect.n, first.collect.n, ep.pick.n, l.decisions, ep.pass.n, l.passes)
		}
		l.addTraining(tls)
		l.addEpisode(ep, false)
		l.alloc.mallocs += plain.alloc.mallocs
		l.alloc.bytes += plain.alloc.bytes
		l.allocDecisions += ep.pick.n
		l.addOverhead(traced.dur, plain.dur)
		pairs = append(pairs, time.Since(t0).Seconds())
	}
	l.set(e)
	e.info["traced_trainings"] = len(pairs)
	e.info["train.allocs_per_episode"] = float64(first.allocs.mallocs) / float64(first.collect.n)
	return nil
}

// setPeakRSS reports a process's peak RSS as peak_rss_mb.
func setPeakRSS(e *env, pid string) {
	mb, ok := peakRSSMB(pid)
	e.rep.check(ok, "peak RSS of process %s is unreadable", pid)
	if ok {
		e.rep.set("peak_rss_mb", "MB", mb)
	}
}

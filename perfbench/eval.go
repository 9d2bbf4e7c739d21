package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

// evalScenarios is S4 and its realism axes: denser arrivals, noisy
// walltime estimates, skewed users, bursty arrivals, and the ingested T4
// trace. They vary queue length, walltime accuracy and burstiness, the
// inputs backfill and state-encoding cost depend on.
var evalScenarios = []string{"S4", "S4@ia=0.75", "S4@wtn=0.5", "S4@zipf=0.9", "S4@burst=5x0.25", "T4"}

const (
	// evalReplicates is the campaign's seed axis: each replicate is an
	// independent set of traces and one timed RunCampaign call, so op_ms
	// takes the median over them and slowdown averages over them.
	evalReplicates = 32
)

// trainModel trains the S4 model at quick scale for the run's seed and
// saves it where the campaign's MRSch method loads it.
func trainModel(seed int64, path string, l *layers, traced bool) error {
	sc := experiments.QuickScale()
	sc.Seed = subSeed(seed, 0)
	var m *experiments.Materials
	err := l.timeResolve(func() (err error) {
		m, err = experiments.Prepare(sc)
		return err
	})
	if err != nil {
		return err
	}
	_, err = trainSave(m, path, l, traced)
	return err
}

// trainSave trains MRSch on the materials' S4 curriculum and saves the
// model to path, returning its bytes. With traced set it trains through
// traceTraining and adds the training's split to l.
func trainSave(m *experiments.Materials, path string, l *layers, traced bool) ([]byte, error) {
	var agent *core.MRSch
	var err error
	if traced {
		var tls trainLayers
		agent, tls, _, err = traceTraining(m)
		l.addTraining(tls)
		l.trainSteps += int(tls.steps)
	} else {
		agent, _, err = experiments.TrainMRSch(m, trainScenario, false)
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := agent.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), os.WriteFile(path, buf.Bytes(), 0o644)
}

// evalSpec is the eval campaign of one replicate seed.
func evalSpec(seed int64, model string, replicate int) (scenario.CampaignSpec, error) {
	ss := scenario.QuickScaleSpec()
	ss.Seed = subSeed(seed, 0)
	spec := scenario.CampaignSpec{
		Name:  fmt.Sprintf("perfbench-eval-%d", replicate),
		Scale: ss,
		Methods: []scenario.MethodSpec{
			{Kind: scenario.KindHeuristic},
			{Kind: scenario.KindMRSch, Model: model},
		},
		Seeds: []int64{subSeed(seed, 100+replicate)},
	}
	for _, name := range evalScenarios {
		sp, err := scenario.ByName(name)
		if err != nil {
			return spec, err
		}
		spec.Scenarios = append(spec.Scenarios, sp)
	}
	return spec, spec.Validate()
}

// ensemble is a campaign split by replicate seed: one spec per replicate,
// each one timed RunCampaign call, with every cell's expected job count.
type ensemble struct {
	specs []scenario.CampaignSpec
	want  []map[int]int
}

func newEnsemble(n int, spec func(i int) (scenario.CampaignSpec, error)) (*ensemble, error) {
	ens := &ensemble{}
	for i := 0; i < n; i++ {
		sp, err := spec(i)
		if err != nil {
			return nil, err
		}
		want, err := newReplica(sp).expectedJobs()
		if err != nil {
			return nil, err
		}
		ens.specs = append(ens.specs, sp)
		ens.want = append(ens.want, want)
	}
	return ens, nil
}

// setupEval trains the model and prepares the ensemble.
func setupEval(e *env, l *layers, traced bool) (*ensemble, error) {
	model := filepath.Join(e.workdir, "s4.model")
	if err := trainModel(e.seed, model, l, traced); err != nil {
		return nil, err
	}
	return newEnsemble(evalReplicates, func(i int) (scenario.CampaignSpec, error) { return evalSpec(e.seed, model, i) })
}

func runEval(e *env) error {
	var ens *ensemble
	setup, err := timeSetup(slowSetupRepeats, func(int) (err error) {
		ens, err = setupEval(e, &layers{}, false)
		return err
	})
	if err != nil {
		return err
	}
	e.rep.set("setup_s", "s", setup)
	// op_ms: one replicate's RunCampaign; slowdown: MRSch relative to the
	// Heuristic over every cell of the ensemble.
	runEnsemble(e, ens, scenario.KindMRSch)
	setPeakRSS(e, "self")
	return nil
}

// relativeSlowdown is the mean, over the method's cells, of the cell's
// average slowdown divided by the Heuristic's on the same scenario and
// replicate. The raw slowdown of one short test split swings by tens of
// percent with the trace's load level; both methods see the same trace,
// so the ratio keeps what the method contributes.
func relativeSlowdown(res []experiments.CellResult, kind scenario.MethodKind) float64 {
	type key struct {
		scenario string
		seed     int64
	}
	base := make(map[key]float64)
	for _, c := range res {
		if c.Cell.Method.Kind == scenario.KindHeuristic {
			base[key{c.Cell.Scenario.Name, c.Cell.Seed}] = c.Report.AvgSlowdown
		}
	}
	var ratios []float64
	for _, c := range res {
		if c.Cell.Method.Kind == kind {
			ratios = append(ratios, c.Report.AvgSlowdown/base[key{c.Cell.Scenario.Name, c.Cell.Seed}])
		}
	}
	return mean(ratios)
}

// runEnsemble runs every replicate once, then repeats them while the
// budget lasts; every repeat must reproduce its first results exactly. It
// reports op_ms, the median replicate time, and slowdown, the method's
// relativeSlowdown over the first results.
func runEnsemble(e *env, ens *ensemble, kind scenario.MethodKind) {
	deadline := time.Now().Add(e.budget)
	first := make([][]experiments.CellResult, len(ens.specs))
	var durs []float64
	var all []experiments.CellResult
	for n := 0; n < len(ens.specs) || fits(durs, deadline); n++ {
		i := n % len(ens.specs)
		res, dur := timeCampaign(e.rep, ens.specs[i], ens.want[i])
		durs = append(durs, dur.Seconds())
		if n < len(ens.specs) {
			first[i] = res
			all = append(all, res...)
		} else {
			e.rep.check(reflect.DeepEqual(res, first[i]), "campaign %s: repeat differs from the first run", ens.specs[i].Name)
		}
	}
	e.rep.set("op_ms", "ms", 1000*median(durs))
	e.rep.set("slowdown", "ratio", relativeSlowdown(all, kind))
	e.info["campaign_runs"] = len(durs)
	e.info["cells"] = len(all)
}

// traceEnsemble pairs untraced RunCampaign runs with traced replicas of
// the same replicate while the budget lasts (at least twice; replicate 0
// first twice, so the exact counts are checked within every traced run),
// checking each replica against RunCampaign. Then it counts the
// allocations of replicate 0's cells, evaluated untraced.
func traceEnsemble(e *env, ens *ensemble, l *layers) error {
	deadline := time.Now().Add(e.budget)
	var pairs []float64
	var first exactCounts
	for n := 0; n < 2 || fits(pairs, deadline); n++ {
		start := time.Now()
		i := 0
		if n > 0 {
			i = (n - 1) % len(ens.specs)
		}
		spec := ens.specs[i]
		// Alternate which side runs first, so warm caches favour neither.
		var res []experiments.CellResult
		var plain time.Duration
		if n%2 == 1 {
			res, plain = timeCampaign(e.rep, spec, ens.want[i])
		}
		rp := newReplica(spec)
		t0 := time.Now()
		traced, err := rp.traceCells()
		dur := time.Since(t0)
		if err != nil {
			return err
		}
		if n%2 == 0 {
			res, plain = timeCampaign(e.rep, spec, ens.want[i])
		}
		sameReports(e.rep, res, traced)
		c := counts(traced)
		if n == 0 {
			first = c
			e.info["cell_ms"] = cellInfo(traced)
		} else if i == 0 {
			e.rep.check(c == first, "campaign %s: exact counts differ between traced runs: %+v vs %+v", spec.Name, first, c)
		}
		for _, ct := range traced {
			l.addEpisode(ct.ep, ct.cell.Method.Kind == scenario.KindOptimize)
		}
		l.resolve.n += rp.resolve.n
		l.resolve.total += rp.resolve.total
		l.addOverhead(dur, plain)
		pairs = append(pairs, time.Since(start).Seconds())
	}
	l.decisions, l.passes, l.gaPicks = first.decisions, first.passes, first.gaPicks
	a, err := newReplica(ens.specs[0]).allocs()
	if err != nil {
		return err
	}
	l.alloc, l.allocDecisions = a, first.decisions
	e.info["traced_runs"] = len(pairs)
	return nil
}

// exactCounts are the counts that must repeat exactly for a fixed seed.
type exactCounts struct{ decisions, passes, gaPicks int }

func counts(cells []cellTrace) exactCounts {
	var c exactCounts
	for _, ct := range cells {
		c.decisions += ct.ep.pick.n
		c.passes += ct.ep.pass.n
		if ct.cell.Method.Kind == scenario.KindOptimize {
			c.gaPicks += ct.ep.pick.n
		}
	}
	return c
}

func traceEval(e *env) error {
	l := &layers{}
	ens, err := setupEval(e, l, true)
	if err != nil {
		return err
	}
	if err := traceEnsemble(e, ens, l); err != nil {
		return err
	}
	l.set(e)
	return nil
}

package main

import (
	"fmt"
	"os"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// replica evaluates a campaign's cells one by one through the public
// pieces RunCampaign is built from — PrepareFor materials, WorkloadSpec,
// the method's window policy, an evaluation episode — so the traced runs
// can wrap each layer, and so every cell's expected job count is known.
// Its reports must equal RunCampaign's cell for cell.
type replica struct {
	spec    scenario.CampaignSpec
	mats    map[string]*experiments.Materials
	models  map[string]*core.MRSch
	resolve span // PrepareFor calls (workload generation)
}

func newReplica(spec scenario.CampaignSpec) *replica {
	return &replica{spec: spec, mats: make(map[string]*experiments.Materials), models: make(map[string]*core.MRSch)}
}

// cellScale is the cell's scale before the scenario's base-trace
// overrides: the campaign scale with the replicate seed applied.
func (r *replica) cellScale(cell scenario.Cell) experiments.Scale {
	sc := experiments.ScaleFromSpec(r.spec.Scale)
	if cell.Seed != 0 {
		sc.Seed = cell.Seed
	}
	return sc
}

// materials returns the cell's base materials, generating each distinct
// set once.
func (r *replica) materials(cell scenario.Cell) (*experiments.Materials, error) {
	sc := experiments.ScaleForSpec(r.cellScale(cell), cell.Scenario)
	key := fmt.Sprintf("%d|%g|%d|%+v|%s", sc.Div, sc.MeanInterarrival, sc.Seed, sc.Burst, sc.Trace)
	if m, ok := r.mats[key]; ok {
		return m, nil
	}
	t0 := time.Now()
	m, err := experiments.PrepareFor(r.cellScale(cell), cell.Scenario)
	r.resolve.add(time.Since(t0))
	if err != nil {
		return nil, err
	}
	r.mats[key] = m
	return m, nil
}

// workload is the cell's job list, as Materials.WorkloadSpec builds it.
func (r *replica) workload(cell scenario.Cell) (*experiments.Materials, []*job.Job, error) {
	m, err := r.materials(cell)
	if err != nil {
		return nil, nil, err
	}
	jobs, err := m.WorkloadSpec(cell.Scenario)
	return m, jobs, err
}

// expectedJobs maps every cell index to the number of jobs its workload
// holds: the count a finished cell's Report.Jobs must reach.
func (r *replica) expectedJobs() (map[int]int, error) {
	want := make(map[int]int)
	for _, cell := range r.spec.Expand() {
		_, jobs, err := r.workload(cell)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cell.Label(), err)
		}
		want[cell.Index] = len(jobs)
	}
	return want, nil
}

// policy builds the cell's window policy the way the campaign runner
// seeds it (from Cell.Index), and the state encoder whose cost the traced
// run measures on the cell's decisions: MRSch's own, or for the other
// methods the one an MRSch agent on the cell's system would use.
func (r *replica) policy(m *experiments.Materials, cell scenario.Cell) (*sched.WindowPolicy, *encode.Config, error) {
	enc := encode.NewConfig(m.Scale.Window, m.SystemFor(cell.Scenario).Capacities)
	switch cell.Method.Kind {
	case scenario.KindHeuristic:
		return experiments.FCFSPolicy(m.Scale.Window), &enc, nil
	case scenario.KindOptimize:
		return sched.NewWindowPolicy(experiments.NewGA(m.Scale.Seed+7000+int64(cell.Index)), m.Scale.Window), &enc, nil
	case scenario.KindMRSch:
		agent, err := r.model(m, cell)
		if err != nil {
			return nil, nil, err
		}
		actor, ok := agent.Actor()
		if !ok {
			return nil, nil, fmt.Errorf("%s: MRSch actor is not clonable", cell.Label())
		}
		actor.Reset(m.Scale.Seed+9000+int64(cell.Index), 0)
		return actor.Policy(), &agent.Enc, nil
	}
	return nil, nil, fmt.Errorf("%s: method %s is not part of the benchmark", cell.Label(), cell.Method.Kind)
}

// model loads the cell's MRSch weights file into the campaign-architecture
// agent for the cell's materials.
func (r *replica) model(m *experiments.Materials, cell scenario.Cell) (*core.MRSch, error) {
	key := fmt.Sprintf("%s|%p", cell.Method.Model, m)
	if a, ok := r.models[key]; ok {
		return a, nil
	}
	if cell.Scenario.Power || cell.Method.Model == "" {
		return nil, fmt.Errorf("%s: the benchmark evaluates MRSch from a model file on non-power scenarios only", cell.Label())
	}
	agent := experiments.NewMRSchUntrained(m.Scale, false)
	f, err := os.Open(cell.Method.Model)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := agent.Load(f); err != nil {
		return nil, fmt.Errorf("loading %s: %w", cell.Method.Model, err)
	}
	agent.Train = false
	r.models[key] = agent
	return agent, nil
}

// cellTrace is one traced cell.
type cellTrace struct {
	cell scenario.Cell
	ep   episode
	dur  time.Duration // whole cell: workload, policy and episode
}

// traceCells evaluates every cell with the layers timed.
func (r *replica) traceCells() ([]cellTrace, error) {
	cells := r.spec.Expand()
	out := make([]cellTrace, 0, len(cells))
	for _, cell := range cells {
		t0 := time.Now()
		m, jobs, err := r.workload(cell)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cell.Label(), err)
		}
		wp, enc, err := r.policy(m, cell)
		if err != nil {
			return nil, err
		}
		sys := m.SystemFor(cell.Scenario)
		ep, err := runEpisode(sys, wp, enc, jobs, cell.Method.DisplayName(), cell.Scenario.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, cellTrace{cell: cell, ep: ep, dur: time.Since(t0)})
	}
	return out, nil
}

// allocs evaluates every cell untraced, one experiments.Evaluate at a
// time between runtime.MemStats reads, and returns the total allocations.
func (r *replica) allocs() (allocs, error) {
	var total allocs
	for _, cell := range r.spec.Expand() {
		m, jobs, err := r.workload(cell)
		if err != nil {
			return total, err
		}
		wp, _, err := r.policy(m, cell)
		if err != nil {
			return total, err
		}
		sys := m.SystemFor(cell.Scenario)
		before := readAllocs()
		_, err = experiments.Evaluate(sys, wp, jobs, cell.Method.DisplayName(), cell.Scenario.Name, sys.ResourceIndex("power_kw"))
		a := readAllocs().since(before)
		if err != nil {
			return total, err
		}
		total.mallocs += a.mallocs
		total.bytes += a.bytes
	}
	return total, nil
}

// timeCampaign runs RunCampaign (campaign Workers = 1, the mrsch-exp
// default) and gates every cell: no error, and every job of the cell's
// workload finished.
func timeCampaign(r *report, spec scenario.CampaignSpec, want map[int]int) ([]experiments.CellResult, time.Duration) {
	t0 := time.Now()
	res, err := experiments.RunCampaign(spec, experiments.CampaignOptions{Workers: 1})
	dur := time.Since(t0)
	if err != nil && len(res) == 0 {
		r.op(false, "campaign %s: %v", spec.Name, err)
		return nil, dur
	}
	r.check(err == nil, "campaign %s: %v", spec.Name, err)
	for _, c := range res {
		w := want[c.Cell.Index]
		r.op(c.Report.Jobs == w && w > 0, "%s: finished %d of %d jobs", c.Cell.Label(), c.Report.Jobs, w)
	}
	return res, dur
}

// sameReports checks a traced replica against RunCampaign's results.
func sameReports(r *report, res []experiments.CellResult, traced []cellTrace) {
	r.check(len(res) == len(traced), "traced replica evaluated %d cells, RunCampaign %d", len(traced), len(res))
	for i := range res {
		if i < len(traced) {
			r.check(reflect.DeepEqual(res[i].Report, traced[i].ep.rep),
				"%s: traced report differs from RunCampaign's", res[i].Cell.Label())
		}
	}
}

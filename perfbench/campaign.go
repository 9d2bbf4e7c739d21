package main

import (
	"fmt"
	"time"

	"repro/internal/scenario"
)

// campaignReplicates is the paper campaign's seed axis: each replicate is
// an independent trace and one timed RunCampaign call, so op_ms takes the
// median over them and slowdown averages over them. How much the
// Optimization method gains varies by tens of percent from one trace to
// the next, so slowdown needs this many replicates to be steady between
// run seeds, even if running them all takes longer than the measurement
// budget. The campaign runs at the builtin tiny scale (the CI campaign
// smoke size), where a replicate costs about 1-1.5 s; at quick scale it
// costs 3-5 s.
const campaignReplicates = 20

// campaignSpec is the builtin paper campaign (S1-S10 x {Heuristic,
// Optimization}) at tiny scale on one replicate seed derived from the run
// seed.
func campaignSpec(seed int64, replicate int) (scenario.CampaignSpec, error) {
	ss := scenario.TinyScaleSpec()
	ss.Seed = subSeed(seed, 0)
	spec := scenario.PaperCampaign(ss)
	spec.Name = fmt.Sprintf("%s-%d", spec.Name, replicate)
	spec.Seeds = []int64{subSeed(seed, 200+replicate)}
	return spec, spec.Validate()
}

func setupCampaign(seed int64) (*ensemble, error) {
	return newEnsemble(campaignReplicates, func(i int) (scenario.CampaignSpec, error) { return campaignSpec(seed, i) })
}

func runCampaign(e *env) error {
	var ens *ensemble
	setup, err := timeSetup(fastSetupRepeats, func(int) (err error) {
		ens, err = setupCampaign(e.seed)
		return err
	})
	if err != nil {
		return err
	}
	e.rep.set("setup_s", "s", setup)
	// op_ms: one replicate's RunCampaign; slowdown: Optimization relative
	// to the Heuristic over every cell of the ensemble — it catches a
	// "faster" GA that searches less.
	runEnsemble(e, ens, scenario.KindOptimize)
	setPeakRSS(e, "self")
	return nil
}

func traceCampaign(e *env) error {
	ens, err := setupCampaign(e.seed)
	if err != nil {
		return err
	}
	l := &layers{}
	if err := traceEnsemble(e, ens, l); err != nil {
		return err
	}
	l.set(e)
	return nil
}

// cellInfo is the campaign's per-method cell cost, for the run details.
func cellInfo(cells []cellTrace) map[string]any {
	byKind := map[scenario.MethodKind][]float64{}
	var slowest time.Duration
	for _, ct := range cells {
		byKind[ct.cell.Method.Kind] = append(byKind[ct.cell.Method.Kind], ms(ct.dur))
		slowest = max(slowest, ct.dur)
	}
	out := map[string]any{"slowest_ms": ms(slowest)}
	for k, v := range byKind {
		out[string(k)+"_ms"] = mean(v)
	}
	return out
}

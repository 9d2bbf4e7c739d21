package ga

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/sched"
)

// randomCluster builds an nr-resource cluster with the given capacities and
// a random share of each resource already held by running jobs.
func randomCluster(rng *rand.Rand, caps []int) *cluster.Cluster {
	names := make([]string, len(caps))
	for r := range names {
		names[r] = fmt.Sprintf("R%d", r)
	}
	cl := cluster.New(cluster.Config{Name: "p", Resources: names, Capacities: caps})
	for id := 0; id < rng.Intn(4); id++ {
		d := make([]int, len(caps))
		for r := range d {
			d[r] = rng.Intn(cl.Free(r)/2 + 1)
		}
		if err := cl.Allocate(1000+id, d, 0, 100); err != nil {
			panic(err)
		}
	}
	return cl
}

// randomWindow draws w jobs whose demands range from nothing to the whole
// capacity, with some jobs repeating an earlier job's demand (tied
// utilizations are where front and crowding order decide picks).
func randomWindow(rng *rand.Rand, caps []int, w int) []*job.Job {
	window := make([]*job.Job, w)
	for i := range window {
		d := make([]int, len(caps))
		if i > 0 && rng.Intn(3) == 0 {
			copy(d, window[rng.Intn(i)].Demand)
		} else {
			for r := range d {
				d[r] = rng.Intn(caps[r]/2 + 1)
				if rng.Intn(6) == 0 {
					d[r] = caps[r] // fits only an empty cluster
				}
			}
		}
		window[i] = &job.Job{ID: i + 1, Runtime: 100, Walltime: 100, Demand: d}
	}
	return window
}

func randomCaps(rng *rand.Rand, nr int) []int {
	caps := make([]int, nr)
	for r := range caps {
		caps[r] = 4 + rng.Intn(200)
	}
	return caps
}

// One Scheduler reused across many picks — window length and, in some
// trials, the resource count changing between picks — must pick exactly
// what the verbatim reference picks and leave its rng at the same point.
func TestPickMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const trials, picks = 300, 20
	for trial := 0; trial < trials; trial++ {
		cfg := DefaultConfig()
		cfg.Seed = rng.Int63()
		if trial%2 == 1 {
			cfg.Population = 1 + rng.Intn(32)
			cfg.Generations = rng.Intn(30)
			cfg.CrossProb = rng.Float64()
			cfg.MutProb = rng.Float64()
		}
		got, want := New(cfg), New(cfg)
		nr := 2 + rng.Intn(3)
		caps := randomCaps(rng, nr)
		varyR := trial%4 == 3
		for pick := 0; pick < picks; pick++ {
			if varyR {
				nr = 2 + rng.Intn(3)
				caps = randomCaps(rng, nr)
			}
			cl := randomCluster(rng, caps)
			window := randomWindow(rng, caps, 1+rng.Intn(12))
			ctx := &sched.PickContext{Window: window, Queue: window, Cluster: cl, Usage: cl.Usage()}
			g, r := got.Pick(ctx), pickReference(want, ctx)
			if g != r {
				t.Fatalf("trial %d pick %d (cfg %+v, R=%d, w=%d): Pick = %d, reference = %d",
					trial, pick, cfg, nr, len(window), g, r)
			}
			if a, b := got.rng.Int63(), want.rng.Int63(); a != b {
				t.Fatalf("trial %d pick %d: rng streams diverged after the pick", trial, pick)
			}
		}
	}
}

// The exported helpers are wrappers over the code Pick runs; they must
// still agree with the reference on arbitrary objective sets, ties included.
func TestNSGAHelpersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 500; trial++ {
		n, nr := rng.Intn(30), 1+rng.Intn(4)
		objs := make([][]float64, n)
		for i := range objs {
			objs[i] = make([]float64, nr)
			for k := range objs[i] {
				objs[i][k] = float64(rng.Intn(5)) / 4
			}
		}
		fronts, wantFronts := NonDominatedSort(objs), nonDominatedSortReference(objs)
		if fmt.Sprint(fronts) != fmt.Sprint(wantFronts) {
			t.Fatalf("trial %d: fronts %v, reference %v", trial, fronts, wantFronts)
		}
		for _, front := range fronts {
			d, wd := CrowdingDistance(objs, front), crowdingDistanceReference(objs, front)
			if fmt.Sprint(d) != fmt.Sprint(wd) {
				t.Fatalf("trial %d: crowding %v, reference %v", trial, d, wd)
			}
			if k, wk := Knee(objs, front), kneeReference(objs, front); k != wk {
				t.Fatalf("trial %d: knee %d, reference %d", trial, k, wk)
			}
		}
		for i := range objs {
			for j := range objs {
				c := compare(objs[i], objs[j])
				if (c > 0) != Dominates(objs[i], objs[j]) || (c < 0) != Dominates(objs[j], objs[i]) {
					t.Fatalf("compare(%v, %v) = %d disagrees with Dominates", objs[i], objs[j], c)
				}
			}
		}
	}
}

// pickBenchContext is a 10-job window over a partly occupied 3-resource
// cluster.
func pickBenchContext() *sched.PickContext {
	rng := rand.New(rand.NewSource(3))
	caps := []int{128, 96, 64}
	cl := randomCluster(rng, caps)
	window := randomWindow(rng, caps, 10)
	return &sched.PickContext{Window: window, Queue: window, Cluster: cl, Usage: cl.Usage()}
}

// TestPickDoesNotAllocate pins the picker's allocation bound at GOMAXPROCS
// 1 and 2: once a pick has sized the scratch, picks allocate nothing.
func TestPickDoesNotAllocate(t *testing.T) {
	ctx := pickBenchContext()
	g := New(DefaultConfig())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		g.Pick(ctx) // size the scratch
		if allocs := testing.AllocsPerRun(20, func() { g.Pick(ctx) }); allocs != 0 {
			t.Errorf("GOMAXPROCS %d: Pick allocates %.1f times, want 0", procs, allocs)
		}
	}
}

// BenchmarkPick times one GA decision with the default configuration on a
// 10-job window over 3 resources. Regenerate with:
//
//	go test -run=NONE -bench=BenchmarkPick -benchmem ./internal/ga/
func BenchmarkPick(b *testing.B) {
	ctx := pickBenchContext()
	g := New(DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Pick(ctx)
	}
}

package ga

import (
	"math/rand"

	"repro/internal/sched"
)

// Config tunes the GA picker. The defaults follow the scale of [13]: a small
// population evolved for a few dozen generations per scheduling instance,
// which keeps decision latency well inside the paper's 15-30 s budget.
type Config struct {
	Population  int
	Generations int
	CrossProb   float64
	MutProb     float64
	Seed        int64
}

// DefaultConfig returns the settings used in the experiments.
func DefaultConfig() Config {
	return Config{Population: 24, Generations: 30, CrossProb: 0.9, MutProb: 0.2, Seed: 1}
}

// Scheduler is the multi-objective GA picker. For a fair comparison it uses
// the same window as MRSch (§IV-D). It owns its search scratch (see the
// package comment), so it is not safe for concurrent use.
type Scheduler struct {
	cfg Config
	rng *rand.Rand

	// pop and next are the double-buffered population: P rows of w window
	// indices, swapped each generation.
	pop, next []int
	// objs holds P row views of one flat P×R buffer, one utilization
	// vector per individual.
	objs  [][]float64
	rank  []int
	crowd []float64
	dist  []float64 // one front's crowding distances
	nds   sortScratch
	srt   crowdSorter
	// base is the cluster's free vector, read once per pick; free is
	// evaluate's working copy of it; capacity is the per-resource total.
	base, free, capacity []int
	used                 []bool // orderCrossover's taken-values set
	lo, hi               []float64
}

// New builds a GA scheduler.
func New(cfg Config) *Scheduler {
	if cfg.Population < 4 {
		cfg.Population = 4
	}
	if cfg.Generations < 1 {
		cfg.Generations = 1
	}
	p := cfg.Population
	return &Scheduler{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		objs:  make([][]float64, p),
		rank:  make([]int, p),
		crowd: make([]float64, p),
		dist:  make([]float64, p),
	}
}

var _ sched.Picker = (*Scheduler)(nil)

// Pick implements sched.Picker: evolve orderings of the window, keep the
// Pareto-best, and return the first job of the knee ordering that fits (or
// the knee's head job, which then becomes the reservation).
func (g *Scheduler) Pick(ctx *sched.PickContext) int {
	w := len(ctx.Window)
	if w == 0 {
		return -1
	}
	if w == 1 {
		return 0
	}
	g.reset(ctx, w)
	p := g.cfg.Population
	row := func(buf []int, i int) []int { return buf[i*w : (i+1)*w] }

	for i := 0; i < p; i++ {
		g.perm(row(g.pop, i))
		g.evaluate(ctx, row(g.pop, i), g.objs[i])
	}

	for gen := 0; gen < g.cfg.Generations; gen++ {
		fronts := g.nds.nonDominatedSort(g.objs)
		for fi, front := range fronts {
			d := g.dist[:len(front)]
			crowdingDistance(g.objs, front, d, &g.srt)
			for k, idx := range front {
				g.rank[idx] = fi
				g.crowd[idx] = d[k]
			}
		}
		for i := 0; i < p; i++ {
			p1 := g.tournament(g.rank, g.crowd)
			p2 := g.tournament(g.rank, g.crowd)
			child := row(g.next, i)
			if g.rng.Float64() < g.cfg.CrossProb {
				orderCrossoverInto(child, g.used, row(g.pop, p1), row(g.pop, p2), g.rng)
			} else {
				copy(child, row(g.pop, p1))
			}
			if g.rng.Float64() < g.cfg.MutProb {
				swapMutate(child, g.rng)
			}
		}
		// Elitism: preserve the current front-0 knee in slot 0 (a non-empty
		// population always has a front 0).
		copy(row(g.next, 0), row(g.pop, knee(g.objs, fronts[0], g.lo, g.hi)))
		g.pop, g.next = g.next, g.pop
		for i := 0; i < p; i++ {
			g.evaluate(ctx, row(g.pop, i), g.objs[i])
		}
	}

	fronts := g.nds.nonDominatedSort(g.objs)
	perm := row(g.pop, knee(g.objs, fronts[0], g.lo, g.hi))
	for _, wi := range perm {
		if fitsVec(ctx.Window[wi].Demand, g.base) {
			return wi
		}
	}
	return perm[0]
}

// reset sizes the scratch for a window of w jobs on ctx's cluster and reads
// the cluster's free and total resources once for the whole pick.
func (g *Scheduler) reset(ctx *sched.PickContext, w int) {
	p := g.cfg.Population
	g.pop = grow(g.pop, p*w)
	g.next = grow(g.next, p*w)
	g.used = grow(g.used, w)
	cl := ctx.Cluster
	nr := cl.NumResources()
	if len(g.base) != nr {
		g.base, g.free, g.capacity = make([]int, nr), make([]int, nr), make([]int, nr)
		g.lo, g.hi = make([]float64, nr), make([]float64, nr)
		buf := make([]float64, p*nr)
		for i := range g.objs {
			g.objs[i] = buf[i*nr : (i+1)*nr : (i+1)*nr]
		}
	}
	for r := range g.base {
		g.base[r] = cl.Free(r)
		g.capacity[r] = cl.Capacity(r)
	}
}

// perm fills dst with a random permutation of 0..len(dst)-1, drawing
// exactly what rand.Perm(len(dst)) draws.
func (g *Scheduler) perm(dst []int) {
	for i := range dst {
		j := g.rng.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
}

// evaluate greedily packs jobs in permutation order onto the current free
// resources and writes the resulting per-resource utilization into out —
// the multi-objective fitness (maximize each resource's utilization).
func (g *Scheduler) evaluate(ctx *sched.PickContext, perm []int, out []float64) {
	free := g.free
	copy(free, g.base)
	for _, wi := range perm {
		d := ctx.Window[wi].Demand
		if fitsVec(d, free) {
			for r, need := range d {
				free[r] -= need
			}
		}
	}
	for r := range out {
		out[r] = float64(g.capacity[r]-free[r]) / float64(g.capacity[r])
	}
}

func (g *Scheduler) tournament(rank []int, crowd []float64) int {
	a := g.rng.Intn(len(rank))
	b := g.rng.Intn(len(rank))
	if rank[a] < rank[b] || (rank[a] == rank[b] && crowd[a] > crowd[b]) {
		return a
	}
	return b
}

func fitsVec(demand, free []int) bool {
	for r, d := range demand {
		if d > free[r] {
			return false
		}
	}
	return true
}

// orderCrossover is the OX operator: keep p1's segment [a,b] in place and
// fill the remaining positions, starting after b and wrapping, with the
// missing values in the order they appear in p2 (also scanned from b+1).
func orderCrossover(p1, p2 []int, rng *rand.Rand) []int {
	child := make([]int, len(p1))
	orderCrossoverInto(child, make([]bool, len(p1)), p1, p2, rng)
	return child
}

// orderCrossoverInto is orderCrossover writing into child, with used as the
// taken-values scratch (at least len(p1) long; cleared here). The wrapping
// scans step and wrap by comparison rather than modulo.
func orderCrossoverInto(child []int, used []bool, p1, p2 []int, rng *rand.Rand) {
	n := len(p1)
	a, b := rng.Intn(n), rng.Intn(n)
	if a > b {
		a, b = b, a
	}
	used = used[:n]
	for i := range used {
		used[i] = false
	}
	for i := a; i <= b; i++ {
		child[i] = p1[i]
		used[p1[i]] = true
	}
	next := func(i int) int {
		if i++; i == n {
			return 0
		}
		return i
	}
	pos := next(b)
	src := pos
	for left := n - (b - a + 1); left > 0; src = next(src) {
		v := p2[src]
		if used[v] {
			continue
		}
		for pos >= a && pos <= b {
			pos = next(pos)
		}
		child[pos] = v
		used[v] = true
		pos = next(pos)
		left--
	}
}

func swapMutate(perm []int, rng *rand.Rand) {
	n := len(perm)
	if n < 2 {
		return
	}
	a, b := rng.Intn(n), rng.Intn(n)
	perm[a], perm[b] = perm[b], perm[a]
}

package ga

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/sched"
)

// The functions in this file are the allocating GA picker kept verbatim as
// the reference the scratch-reusing Scheduler.Pick is pinned to: the same
// rng draws in the same order, the same fronts, the same crowding ties and
// so the same pick. They run on a Scheduler only for its cfg and rng.

func pickReference(g *Scheduler, ctx *sched.PickContext) int {
	w := len(ctx.Window)
	if w == 0 {
		return -1
	}
	if w == 1 {
		return 0
	}

	pop := make([][]int, g.cfg.Population)
	for i := range pop {
		pop[i] = g.rng.Perm(w)
	}
	objs := make([][]float64, len(pop))
	for i, perm := range pop {
		objs[i] = evaluateReference(ctx, perm)
	}

	for gen := 0; gen < g.cfg.Generations; gen++ {
		fronts := nonDominatedSortReference(objs)
		rank := make([]int, len(pop))
		crowd := make([]float64, len(pop))
		for fi, front := range fronts {
			d := crowdingDistanceReference(objs, front)
			for k, idx := range front {
				rank[idx] = fi
				crowd[idx] = d[k]
			}
		}
		next := make([][]int, 0, len(pop))
		for len(next) < len(pop) {
			p1 := g.tournament(rank, crowd)
			p2 := g.tournament(rank, crowd)
			var child []int
			if g.rng.Float64() < g.cfg.CrossProb {
				child = orderCrossoverReference(pop[p1], pop[p2], g.rng)
			} else {
				child = append([]int(nil), pop[p1]...)
			}
			if g.rng.Float64() < g.cfg.MutProb {
				swapMutate(child, g.rng)
			}
			next = append(next, child)
		}
		// Elitism: preserve the current front-0 knee in slot 0.
		if len(fronts) > 0 {
			if knee := kneeReference(objs, fronts[0]); knee >= 0 {
				next[0] = append([]int(nil), pop[knee]...)
			}
		}
		pop = next
		for i, perm := range pop {
			objs[i] = evaluateReference(ctx, perm)
		}
	}

	fronts := nonDominatedSortReference(objs)
	knee := kneeReference(objs, fronts[0])
	perm := pop[knee]

	free := ctx.Cluster.FreeVec()
	for _, wi := range perm {
		if fitsVec(ctx.Window[wi].Demand, free) {
			return wi
		}
	}
	return perm[0]
}

func evaluateReference(ctx *sched.PickContext, perm []int) []float64 {
	cl := ctx.Cluster
	free := cl.FreeVec()
	for _, wi := range perm {
		d := ctx.Window[wi].Demand
		if fitsVec(d, free) {
			for r, need := range d {
				free[r] -= need
			}
		}
	}
	out := make([]float64, cl.NumResources())
	for r := range out {
		out[r] = float64(cl.Capacity(r)-free[r]) / float64(cl.Capacity(r))
	}
	return out
}

func orderCrossoverReference(p1, p2 []int, rng *rand.Rand) []int {
	n := len(p1)
	a, b := rng.Intn(n), rng.Intn(n)
	if a > b {
		a, b = b, a
	}
	child := make([]int, n)
	used := make([]bool, n)
	for i := a; i <= b; i++ {
		child[i] = p1[i]
		used[p1[i]] = true
	}
	pos := (b + 1) % n
	for k := 0; k < n; k++ {
		v := p2[(b+1+k)%n]
		if used[v] {
			continue
		}
		for pos >= a && pos <= b {
			pos = (pos + 1) % n
		}
		child[pos] = v
		used[v] = true
		pos = (pos + 1) % n
	}
	return child
}

func nonDominatedSortReference(objs [][]float64) [][]int {
	n := len(objs)
	dominatedBy := make([]int, n) // count of individuals dominating i
	dominates := make([][]int, n) // individuals i dominates
	var first []int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if Dominates(objs[i], objs[j]) {
				dominates[i] = append(dominates[i], j)
			} else if Dominates(objs[j], objs[i]) {
				dominatedBy[i]++
			}
		}
		if dominatedBy[i] == 0 {
			first = append(first, i)
		}
	}
	var fronts [][]int
	cur := first
	for len(cur) > 0 {
		fronts = append(fronts, cur)
		var next []int
		for _, i := range cur {
			for _, j := range dominates[i] {
				dominatedBy[j]--
				if dominatedBy[j] == 0 {
					next = append(next, j)
				}
			}
		}
		cur = next
	}
	return fronts
}

func crowdingDistanceReference(objs [][]float64, front []int) []float64 {
	m := len(front)
	dist := make([]float64, m)
	if m == 0 {
		return dist
	}
	if m <= 2 {
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		return dist
	}
	numObj := len(objs[front[0]])
	order := make([]int, m) // positions into front
	for k := 0; k < numObj; k++ {
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return objs[front[order[a]]][k] < objs[front[order[b]]][k]
		})
		lo := objs[front[order[0]]][k]
		hi := objs[front[order[m-1]]][k]
		dist[order[0]] = math.Inf(1)
		dist[order[m-1]] = math.Inf(1)
		span := hi - lo
		if span == 0 {
			continue
		}
		for i := 1; i < m-1; i++ {
			gap := objs[front[order[i+1]]][k] - objs[front[order[i-1]]][k]
			dist[order[i]] += gap / span
		}
	}
	return dist
}

func kneeReference(objs [][]float64, front []int) int {
	if len(front) == 0 {
		return -1
	}
	numObj := len(objs[front[0]])
	lo := make([]float64, numObj)
	hi := make([]float64, numObj)
	for k := 0; k < numObj; k++ {
		lo[k], hi[k] = math.Inf(1), math.Inf(-1)
	}
	for _, i := range front {
		for k, v := range objs[i] {
			if v < lo[k] {
				lo[k] = v
			}
			if v > hi[k] {
				hi[k] = v
			}
		}
	}
	best, bestScore := front[0], math.Inf(-1)
	for _, i := range front {
		score := 0.0
		for k, v := range objs[i] {
			span := hi[k] - lo[k]
			if span > 0 {
				score += (v - lo[k]) / span
			} else {
				score += 1
			}
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

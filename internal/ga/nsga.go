// Package ga implements the paper's "Optimization" comparison method
// (§IV-D): multi-resource scheduling formulated as a multi-objective
// optimization problem and solved with a genetic algorithm, following Fan et
// al., "Scheduling Beyond CPUs for HPC" [13]. The GA searches orderings of
// the window jobs, scores each ordering by the per-resource utilization a
// greedy packing of it would achieve, keeps the Pareto-efficient orderings
// via non-dominated sorting with crowding distance (NSGA-II), and picks the
// knee of the first front for decision-making.
//
// Scratch ownership: a Scheduler owns every buffer its search touches — the
// double-buffered flat population, the objective rows, ranks and crowding
// distances, the dominance lists and fronts, the free-resource vectors and
// the crossover and sort scratch. Buffers are sized by the population,
// window length and resource count and reused from pick to pick, so a
// warmed-up Pick allocates nothing. The flip side is that a Scheduler is
// not safe for concurrent use: give each concurrent episode its own (the
// experiments package builds one per campaign cell). The exported
// NonDominatedSort, CrowdingDistance and Knee are allocating wrappers over
// the same code Pick runs.
//
// Picks are pinned bitwise: the package tests keep the original allocating
// picker as a reference and require every pick, and the rng stream after
// it, to match it over randomized clusters, windows and configurations.
package ga

import (
	"math"
	"sort"
)

// Dominates reports whether objective vector a Pareto-dominates b under
// maximization: a is no worse in every objective and strictly better in at
// least one.
func Dominates(a, b []float64) bool {
	return compare(a, b) > 0
}

// compare is Dominates in both directions with one pass: +1 when a
// dominates b, -1 when b dominates a, 0 when neither does.
func compare(a, b []float64) int {
	aBetter, bBetter := false, false
	for i := range a {
		if a[i] < b[i] {
			if aBetter {
				return 0
			}
			bBetter = true
		} else if a[i] > b[i] {
			if bBetter {
				return 0
			}
			aBetter = true
		}
	}
	switch {
	case aBetter:
		return 1
	case bBetter:
		return -1
	}
	return 0
}

// NonDominatedSort partitions indices 0..len(objs)-1 into Pareto fronts
// (fast non-dominated sort). Front 0 is the non-dominated set.
func NonDominatedSort(objs [][]float64) [][]int {
	var s sortScratch
	return s.nonDominatedSort(objs)
}

// sortScratch holds the non-dominated sort's working state, reused across
// calls: dominated-by counts, the ascending list of individuals each one
// dominates, and the fronts as views into one flat buffer.
type sortScratch struct {
	dominatedBy []int
	dominates   [][]int
	frontBuf    []int
	fronts      [][]int
}

// nonDominatedSort compares each unordered pair once. Dominance lists come
// out ascending and fronts fill in the same order as the textbook
// all-ordered-pairs loop, which matters: front order breaks ties in
// crowding and in the knee. The returned fronts alias s until the next
// call.
func (s *sortScratch) nonDominatedSort(objs [][]float64) [][]int {
	n := len(objs)
	s.dominatedBy = grow(s.dominatedBy, n)
	if len(s.dominates) < n {
		s.dominates = append(s.dominates, make([][]int, n-len(s.dominates))...)
	}
	s.frontBuf = grow(s.frontBuf, n)
	dominatedBy, dominates, buf := s.dominatedBy, s.dominates[:n], s.frontBuf
	for i := range dominatedBy {
		dominatedBy[i] = 0
		dominates[i] = dominates[i][:0]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch compare(objs[i], objs[j]) {
			case 1:
				dominates[i] = append(dominates[i], j)
				dominatedBy[j]++
			case -1:
				dominates[j] = append(dominates[j], i)
				dominatedBy[i]++
			}
		}
	}
	end := 0
	for i, c := range dominatedBy {
		if c == 0 {
			buf[end] = i
			end++
		}
	}
	fronts := s.fronts[:0]
	for start := 0; start < end; {
		cur := buf[start:end:end]
		fronts = append(fronts, cur)
		start = end
		for _, i := range cur {
			for _, j := range dominates[i] {
				dominatedBy[j]--
				if dominatedBy[j] == 0 {
					buf[end] = j
					end++
				}
			}
		}
	}
	s.fronts = fronts
	return fronts
}

// CrowdingDistance returns the NSGA-II crowding distance of each member of
// front (indexed parallel to front). Boundary solutions get +Inf.
func CrowdingDistance(objs [][]float64, front []int) []float64 {
	dist := make([]float64, len(front))
	crowdingDistance(objs, front, dist, &crowdSorter{})
	return dist
}

// crowdSorter orders positions into a front by one objective. sort.Sort on
// it runs the same pdqsort as sort.Slice, so ties land in the same order.
type crowdSorter struct {
	order []int
	objs  [][]float64
	front []int
	k     int
}

func (c *crowdSorter) Len() int { return len(c.order) }
func (c *crowdSorter) Less(a, b int) bool {
	return c.objs[c.front[c.order[a]]][c.k] < c.objs[c.front[c.order[b]]][c.k]
}
func (c *crowdSorter) Swap(a, b int) { c.order[a], c.order[b] = c.order[b], c.order[a] }

// crowdingDistance writes front's crowding distances into dist (len(front)
// long), sorting with srt's reusable order buffer.
func crowdingDistance(objs [][]float64, front []int, dist []float64, srt *crowdSorter) {
	m := len(front)
	if m == 0 {
		return
	}
	if m <= 2 {
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		return
	}
	for i := range dist {
		dist[i] = 0
	}
	srt.order = grow(srt.order, m) // positions into front
	srt.objs, srt.front = objs, front
	order := srt.order
	numObj := len(objs[front[0]])
	for k := 0; k < numObj; k++ {
		for i := range order {
			order[i] = i
		}
		srt.k = k
		sort.Sort(srt)
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
}

// Knee returns the member of front whose min-max-normalized objective sum is
// largest — the balanced compromise used for decision-making once the Pareto
// set has been explored.
func Knee(objs [][]float64, front []int) int {
	if len(front) == 0 {
		return -1
	}
	numObj := len(objs[front[0]])
	return knee(objs, front, make([]float64, numObj), make([]float64, numObj))
}

// knee is Knee over a non-empty front with caller-owned lo/hi buffers of
// the objective count.
func knee(objs [][]float64, front []int, lo, hi []float64) int {
	for k := range lo {
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

// grow returns buf resliced to length n, reallocating only when its
// capacity is short. Contents are not preserved across a reallocation.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

package rank

import (
	"context"
	"slices"
	"sort"
	"sync/atomic"

	"github.com/deepeye/deepeye/internal/pool"
	"github.com/deepeye/deepeye/internal/rangetree"
	"github.com/deepeye/deepeye/internal/vizql"
)

// BuildMethod selects the dominance-graph construction algorithm. All
// three produce identical edge sets; they differ in how many pairwise
// factor comparisons they perform (§IV-C).
type BuildMethod int

const (
	// BuildNaive compares every node pair: O(n²) comparisons.
	BuildNaive BuildMethod = iota
	// BuildQuickSort partitions around pivots so better-than and
	// worse-than sets skip mutual comparisons (the paper's quick-sort
	// based algorithm).
	BuildQuickSort
	// BuildRangeTree queries a k-d tree for the dominated orthant of each
	// node (the paper's range-tree-based indexing).
	BuildRangeTree
)

// Graph is the dominance graph G(V, E) of §IV-C: nodes are candidate
// visualizations, and a directed edge u→v with weight eq. (9) exists
// whenever u strictly dominates v.
type Graph struct {
	Nodes   []*vizql.Node
	Factors []Factors
	// Out[i] lists the targets of i's out-edges; OutW[i][k] is the weight
	// of the edge to Out[i][k].
	Out  [][]int32
	OutW [][]float64

	comparisons int // factor comparisons performed during construction

	// Cancellation state during construction: every checkStride
	// comparisons the build re-checks ctx; once cancelled, the builders
	// unwind without doing further comparisons.
	ctx       context.Context
	cancelled bool
}

// checkStride is how many pairwise comparisons pass between context
// checks during graph construction (a comparison is a handful of float
// compares, so the stride keeps the check overhead negligible while
// bounding cancellation latency to microseconds).
const checkStride = 1024

// Comparisons reports how many pairwise factor comparisons construction
// performed — the quantity the quick-sort and range-tree variants reduce.
func (g *Graph) Comparisons() int { return g.comparisons }

// NumEdges counts the edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, out := range g.Out {
		n += len(out)
	}
	return n
}

// BuildGraphCtx constructs the dominance graph with the selected method
// across at most workers goroutines (pool.Normalize: 0 and 1 run the
// serial builders inline, as does a graph too small to be worth a
// worker). Construction re-checks ctx every checkStride pairwise
// comparisons and returns ctx.Err() (with a nil graph) once cancellation
// is observed.
//
// The parallel build is bit-identical to the serial one — edge sets,
// weights, Scores, NumEdges, and Comparisons all match exactly, and the
// serial builders are the differential suite's oracle. Determinism holds
// because every strategy writes edges only into rows its task owns (or
// buffers them and merges in task index order), edge weights are pure
// functions of the factor pair, per-row edge order is normalized by
// sortEdges (every row's targets are unique), and comparison counts are
// integer sums of per-task counts whose multiset is
// scheduling-independent.
func BuildGraphCtx(ctx context.Context, nodes []*vizql.Node, factors []Factors, method BuildMethod, workers int) (*Graph, error) {
	g := &Graph{
		Nodes:   nodes,
		Factors: factors,
		Out:     make([][]int32, len(nodes)),
		OutW:    make([][]float64, len(nodes)),
	}
	w := pool.Normalize(workers)
	if len(nodes) < parMinNodes {
		w = 1
	}
	var err error
	switch {
	case method == BuildQuickSort:
		err = g.buildPartition(ctx, w)
	case w == 1:
		err = g.buildSerial(ctx, method)
	case method == BuildRangeTree:
		err = g.buildRangeTreePar(ctx, w)
	default:
		err = g.buildNaivePar(ctx, w)
	}
	if err != nil {
		return nil, err
	}
	// Deterministic edge order simplifies equality checks and scoring.
	for i := range g.Out {
		sortEdges(g.Out[i], g.OutW[i])
	}
	return g, nil
}

// buildSerial runs the naive or range-tree builder on the caller's
// goroutine.
func (g *Graph) buildSerial(ctx context.Context, method BuildMethod) error {
	g.ctx = ctx
	if method == BuildRangeTree {
		g.buildRangeTree()
	} else {
		g.buildNaive()
	}
	g.ctx = nil // construction done; drop the reference
	if g.cancelled {
		return ctx.Err()
	}
	return nil
}

// tick counts one comparison against the cancellation stride and
// reports whether construction should stop.
func (g *Graph) tick() bool {
	if g.cancelled {
		return true
	}
	g.comparisons++
	if g.comparisons%checkStride == 0 && g.ctx != nil && g.ctx.Err() != nil {
		g.cancelled = true
	}
	return g.cancelled
}

// sortEdges orders one adjacency row by target, carrying the weights
// along. A row already in order — every row the naive builder and
// Reduce over a sorted graph emit — returns without allocating.
func sortEdges(out []int32, w []float64) {
	if slices.IsSorted(out) {
		return
	}
	order := make([]int, len(out))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return out[order[a]] < out[order[b]] })
	o2 := make([]int32, len(out))
	w2 := make([]float64, len(w))
	for i, k := range order {
		o2[i] = out[k]
		w2[i] = w[k]
	}
	copy(out, o2)
	copy(w, w2)
}

func (g *Graph) addEdge(u, v int) {
	g.Out[u] = append(g.Out[u], int32(v))
	g.OutW[u] = append(g.OutW[u], EdgeWeight(g.Factors[u], g.Factors[v]))
}

// compare examines one unordered pair and adds the strict-dominance edge
// if present.
func (g *Graph) compare(i, j int) {
	if g.tick() {
		return
	}
	fi, fj := g.Factors[i], g.Factors[j]
	switch {
	case StrictlyDominates(fi, fj):
		g.addEdge(i, j)
	case StrictlyDominates(fj, fi):
		g.addEdge(j, i)
	}
}

func (g *Graph) buildNaive() {
	n := len(g.Nodes)
	for i := 0; i < n && !g.cancelled; i++ {
		for j := i + 1; j < n; j++ {
			g.compare(i, j)
		}
	}
}

// partition is one quick-sort-style construction (§IV-C): pick a pivot,
// split the rest into strictly-better B, strictly-worse W, ties E, and
// incomparable I. Edges B×W follow by transitivity without comparisons;
// B, W, I recurse; ties share the pivot's relationships.
//
// The same routine serves every worker count. With grp nil (one worker)
// the three sub-problems recurse inline on the caller's goroutine; with
// a pool.Group they fan out as tasks, each counting its comparisons on
// its own tally and flushing the count when it ends.
//
// The fan-out is race-free with no locks on the adjacency rows: every
// edge build(idx) adds has its source in idx (partition edges source at
// idx members or the pivot, transitivity edges at better ⊂ idx, tie
// edges at better/equal ⊂ idx, cross edges at members of better, worse,
// or incomp ⊂ idx); sibling recursions receive disjoint index sets; and
// a parent finishes all of its own edge writes before spawning children,
// so goroutine creation orders parent writes before child writes to the
// same rows. It is deterministic because the recursion visits the same
// pivots over the same sub-slices at any worker count, so the
// comparison multiset — and therefore the edge set and the total count —
// does not depend on scheduling; sortEdges normalizes row order
// afterwards.
type partition struct {
	g           *Graph
	ctx         context.Context
	grp         *pool.Group // nil: recurse inline
	comparisons atomic.Int64
	cancelled   atomic.Bool
}

// partitionSpawnMin is the sub-problem size below which recursion stays
// on the current task instead of spawning.
const partitionSpawnMin = 32

// buildPartition runs the quick-sort construction across at most
// workers goroutines; one worker never starts a goroutine.
func (g *Graph) buildPartition(ctx context.Context, workers int) error {
	idx := make([]int, len(g.Nodes))
	for i := range idx {
		idx[i] = i
	}
	p := &partition{g: g, ctx: ctx}
	if workers > 1 {
		p.grp = pool.NewGroup("graph_quicksort", workers)
	}
	p.run(idx)
	if p.grp != nil {
		p.grp.Wait()
	}
	if p.cancelled.Load() {
		return ctx.Err()
	}
	g.comparisons = int(p.comparisons.Load())
	return nil
}

// tally is one task's comparison counter: it polls cancellation every
// checkStride comparisons without contending on a shared counter, and
// flushes its count once the task ends.
type tally struct {
	p     *partition
	count int
}

// tick counts one comparison and reports whether construction should
// stop. Every checkStride comparisons it polls ctx, and the flag the
// poll sets stops every task of the build at its next poll.
func (t *tally) tick() bool {
	t.count++
	return t.count%checkStride == 0 && t.poll()
}

// poll is split from tick so that tick stays small enough to inline.
func (t *tally) poll() bool {
	if t.p.ctx.Err() != nil {
		t.p.cancelled.Store(true)
	}
	return t.p.cancelled.Load()
}

// run executes one task: build idx on a fresh tally.
func (p *partition) run(idx []int) {
	t := &tally{p: p}
	p.build(idx, t)
	p.comparisons.Add(int64(t.count))
}

// recurse continues into a sub-problem: inline without a group or when
// it is too small to be worth a goroutine, otherwise as a group task
// (which itself runs inline when every worker slot is busy).
func (p *partition) recurse(idx []int, t *tally) {
	if p.grp == nil || len(idx) < partitionSpawnMin {
		p.build(idx, t)
		return
	}
	p.grp.Go(func() { p.run(idx) })
}

// compare examines one unordered pair and adds the strict-dominance
// edge if present; it reports whether construction should stop.
func (p *partition) compare(i, j int, t *tally) bool {
	if t.tick() {
		return true
	}
	fi, fj := p.g.Factors[i], p.g.Factors[j]
	switch {
	case StrictlyDominates(fi, fj):
		p.g.addEdge(i, j)
	case StrictlyDominates(fj, fi):
		p.g.addEdge(j, i)
	}
	return false
}

func (p *partition) build(idx []int, t *tally) {
	if p.cancelled.Load() {
		return
	}
	g := p.g
	const cutoff = 8
	if len(idx) <= cutoff {
		for a := 0; a < len(idx); a++ {
			for b := a + 1; b < len(idx); b++ {
				if p.compare(idx[a], idx[b], t) {
					return
				}
			}
		}
		return
	}
	pivot := idx[len(idx)/2]
	var better, worse, equal, incomp []int
	fp := g.Factors[pivot]
	for _, i := range idx {
		if i == pivot {
			continue
		}
		if t.tick() {
			return
		}
		fi := g.Factors[i]
		switch {
		case equalFactors(fi, fp):
			equal = append(equal, i)
		case StrictlyDominates(fi, fp):
			g.addEdge(i, pivot)
			better = append(better, i)
		case StrictlyDominates(fp, fi):
			g.addEdge(pivot, i)
			worse = append(worse, i)
		default:
			incomp = append(incomp, i)
		}
	}
	// Transitivity: every strictly-better node strictly dominates every
	// strictly-worse node (u ≻ p ≻ w ⟹ u ≻ w); no comparison needed.
	for _, u := range better {
		for _, w := range worse {
			g.addEdge(u, w)
		}
	}
	// Ties behave exactly like the pivot: edges to/from better and worse,
	// none among themselves or with incomparables.
	for _, e := range equal {
		for _, u := range better {
			g.addEdge(u, e)
		}
		for _, w := range worse {
			g.addEdge(e, w)
		}
	}
	// Cross comparisons the partition cannot infer.
	for _, u := range better {
		for _, v := range incomp {
			if p.compare(u, v, t) {
				return
			}
		}
	}
	for _, u := range worse {
		for _, v := range incomp {
			if p.compare(u, v, t) {
				return
			}
		}
	}
	// All of this task's edge writes are done; sub-problems may now run
	// concurrently (they touch disjoint rows).
	p.recurse(better, t)
	p.recurse(worse, t)
	p.recurse(incomp, t)
}

// buildRangeTree builds a 3-d tree over (M, Q, W) and, for each node,
// reports the orthant of nodes it weakly dominates, then filters ties.
func (g *Graph) buildRangeTree() {
	pts := make([]rangetree.Point, len(g.Nodes))
	for i, f := range g.Factors {
		pts[i] = rangetree.Point{Coords: []float64{f.M, f.Q, f.W}, ID: i}
	}
	tree := rangetree.New(pts)
	for i, f := range g.Factors {
		if g.cancelled {
			return
		}
		dominated := tree.DominatedBy([]float64{f.M, f.Q, f.W})
		for _, j := range dominated {
			if j == i {
				continue
			}
			if g.tick() {
				return
			}
			if StrictlyDominates(f, g.Factors[j]) {
				g.addEdge(i, j)
			}
		}
	}
}

// Scores computes S(v) for every node: S(v) = Σ over out-edges (v,u) of
// w(v,u) + S(u), with S(v) = 0 for sinks (§IV-C). The dominance graph is
// a DAG (strict dominance is a strict partial order), so memoized DFS
// terminates.
func (g *Graph) Scores() []float64 {
	s := make([]float64, len(g.Nodes))
	done := make([]bool, len(g.Nodes))
	var dfs func(v int) float64
	dfs = func(v int) float64 {
		if done[v] {
			return s[v]
		}
		done[v] = true // safe: DAG, no back-edges
		var total float64
		for k, u := range g.Out[v] {
			total += g.OutW[v][k] + dfs(int(u))
		}
		s[v] = total
		return total
	}
	for v := range g.Nodes {
		dfs(v)
	}
	return s
}

// TopK returns the indices of the k highest-scoring nodes (Algorithm 1),
// ties broken deterministically by index.
func (g *Graph) TopK(k int) []int {
	scores := g.Scores()
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
	if k > len(order) {
		k = len(order)
	}
	return order[:k]
}

// TopologicalOrder is the unweighted baseline of §IV-C: repeatedly take
// the node with the fewest remaining in-edges. Returned as a full ranking
// (best first).
func (g *Graph) TopologicalOrder() []int {
	n := len(g.Nodes)
	indeg := make([]int, n)
	for _, out := range g.Out {
		for _, v := range out {
			indeg[v]++
		}
	}
	removed := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		best, bestDeg := -1, int(^uint(0)>>1)
		for v := 0; v < n; v++ {
			if !removed[v] && indeg[v] < bestDeg {
				best, bestDeg = v, indeg[v]
			}
		}
		removed[best] = true
		order = append(order, best)
		for k, u := range g.Out[best] {
			_ = k
			indeg[u]--
		}
	}
	return order
}

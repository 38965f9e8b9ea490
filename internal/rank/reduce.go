package rank

import (
	"context"
	"sort"

	"github.com/deepeye/deepeye/internal/vizql"
)

// Reduce returns the transitive reduction of the dominance graph — the
// Hasse diagram of the partial order, which is what §IV actually scores
// ("a directed graph representing the partially ordered set of
// visualizations (a.k.a. a Hasse diagram)"). Scoring the full transitive
// closure instead would double-count every dominance path and blow up
// exponentially on long chains.
//
// An edge v→u is kept iff no other successor of v reaches u, so
// covers(v) = succ(v) − ⋃_{w ∈ succ(v)} reach(w), where reach(w) is the
// set of nodes reachable from w (w excluded). Nodes are visited sinks
// first, so every successor's reach set is final when its predecessors
// need it; reach(v) is that union plus succ(v). The reach sets are rows
// of one flat bitset, and a successor already inside the union adds
// nothing to it, so its row is not read.
func (g *Graph) Reduce() *Graph {
	n := len(g.Nodes)
	out := &Graph{
		Nodes:       g.Nodes,
		Factors:     g.Factors,
		Out:         make([][]int32, n),
		OutW:        make([][]float64, n),
		comparisons: g.comparisons,
	}
	if n == 0 {
		return out
	}
	topo := g.topoOrder()
	words := (n + 63) / 64
	reach := make([]uint64, n*words)
	for i := n - 1; i >= 0; i-- {
		v := topo[i]
		rv := reach[v*words : (v+1)*words]
		for _, u := range g.Out[v] {
			if !bitGet(rv, int(u)) {
				orInto(rv, reach[int(u)*words:(int(u)+1)*words])
			}
		}
		// rv is the union; a successor outside it is a cover. Setting
		// each successor's bit as it is seen also skips a repeated edge.
		for _, u := range g.Out[v] {
			if bitGet(rv, int(u)) {
				continue
			}
			bitSet(rv, int(u))
			out.Out[v] = append(out.Out[v], u)
			out.OutW[v] = append(out.OutW[v], EdgeWeight(g.Factors[v], g.Factors[int(u)]))
		}
		sortEdges(out.Out[v], out.OutW[v])
	}
	return out
}

// topoOrder returns a topological order of the DAG (parents before
// children).
func (g *Graph) topoOrder() []int {
	n := len(g.Nodes)
	indeg := make([]int, n)
	for _, out := range g.Out {
		for _, u := range out {
			indeg[u]++
		}
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, u := range g.Out[v] {
			indeg[u]--
			if indeg[u] == 0 {
				queue = append(queue, int(u))
			}
		}
	}
	return order
}

func bitGet(b []uint64, i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }
func bitSet(b []uint64, i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func orInto(dst, src []uint64) {
	for i := range src {
		dst[i] |= src[i]
	}
}

// SelectOptions tunes OrderCtx.
type SelectOptions struct {
	// MaxGraphNodes caps the number of candidates the dominance graph is
	// built over; candidates beyond the cap (by factor sum) are appended
	// after the graph-ranked prefix. 0 means 1200.
	MaxGraphNodes int
	// Build selects the graph construction algorithm.
	Build BuildMethod
	// Workers fans the dominance-graph build across at most this many
	// goroutines (pool.Normalize: 0 and 1 run inline, negative means
	// GOMAXPROCS). The parallel build is bit-identical to the serial one
	// (the differential suite asserts it), so Workers never changes
	// results — only wall time.
	Workers int
}

// OrderCtx ranks a candidate set with the partial-order method end to
// end: shortlist by factor sum, build the dominance graph, reduce it to
// the Hasse diagram, compute the weight-aware scores S(v), and return
// the best-first order together with per-node scores (0 for nodes
// outside the shortlist). Cancellation is threaded into the
// dominance-graph construction (the only super-linear step), which
// returns ctx.Err() as soon as it observes it.
func OrderCtx(ctx context.Context, nodes []*vizql.Node, factors []Factors, opts SelectOptions) ([]int, []float64, error) {
	maxN := opts.MaxGraphNodes
	if maxN <= 0 {
		maxN = 1200
	}
	n := len(nodes)
	byF := make([]int, n)
	for i := range byF {
		byF[i] = i
	}
	fsum := func(i int) float64 { return factors[i].M + factors[i].Q + factors[i].W }
	sort.SliceStable(byF, func(a, b int) bool { return fsum(byF[a]) > fsum(byF[b]) })

	shortlist := byF
	var rest []int
	if n > maxN {
		shortlist = byF[:maxN]
		rest = byF[maxN:]
	}
	subNodes := make([]*vizql.Node, len(shortlist))
	subFactors := make([]Factors, len(shortlist))
	for k, i := range shortlist {
		subNodes[k] = nodes[i]
		subFactors[k] = factors[i]
	}
	built, err := BuildGraphCtx(ctx, subNodes, subFactors, opts.Build, opts.Workers)
	if err != nil {
		return nil, nil, err
	}
	g := built.Reduce()
	subScores := g.Scores()
	// S(v) sums over all dominance paths and can reach astronomic
	// magnitudes on deep diagrams; normalize to [0, 1] (rank-preserving)
	// so downstream consumers see comparable numbers.
	maxS := 0.0
	for _, s := range subScores {
		if s > maxS {
			maxS = s
		}
	}
	if maxS > 0 {
		for i := range subScores {
			subScores[i] /= maxS
		}
	}

	subOrder := make([]int, len(shortlist))
	for i := range subOrder {
		subOrder[i] = i
	}
	sort.SliceStable(subOrder, func(a, b int) bool { return subScores[subOrder[a]] > subScores[subOrder[b]] })

	order := make([]int, 0, n)
	scores := make([]float64, n)
	for _, k := range subOrder {
		order = append(order, shortlist[k])
		scores[shortlist[k]] = subScores[k]
	}
	order = append(order, rest...)
	return order, scores, nil
}

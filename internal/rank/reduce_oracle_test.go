package rank

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/deepeye/deepeye/internal/vizql"
)

// greedyReduce is Reduce as it was before the reach-set formula: per
// node, sort the successors by topological rank and keep each one not
// yet reachable through an earlier kept successor. It is the oracle the
// bitset reduction must match edge for edge.
func greedyReduce(g *Graph) *Graph {
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
	rank := make([]int, n)
	for r, v := range topo {
		rank[v] = r
	}
	words := (n + 63) / 64
	reach := make([][]uint64, n)
	acc := make([]uint64, words)
	for i := n - 1; i >= 0; i-- {
		v := topo[i]
		succs := append([]int32(nil), g.Out[v]...)
		sort.Slice(succs, func(a, b int) bool { return rank[succs[a]] < rank[succs[b]] })
		for w := range acc {
			acc[w] = 0
		}
		r := make([]uint64, words)
		for _, u := range succs {
			if bitGet(acc, int(u)) {
				continue
			}
			out.Out[v] = append(out.Out[v], u)
			out.OutW[v] = append(out.OutW[v], EdgeWeight(g.Factors[v], g.Factors[int(u)]))
			bitSet(acc, int(u))
			orInto(acc, reach[u])
		}
		copy(r, acc)
		reach[v] = r
	}
	for i := range out.Out {
		sortEdges(out.Out[i], out.OutW[i])
	}
	return out
}

// randomDAG returns a graph over n nodes whose edges all point forward
// in a random permutation, with adjacency rows in random order. With
// closed set the edge set is transitively closed, like a dominance
// graph; without it, paths skip arbitrary transitive edges.
func randomDAG(rng *rand.Rand, n int, density float64, closed bool) *Graph {
	perm := rng.Perm(n)
	fs := make([]Factors, n)
	for i := range fs {
		fs[i] = Factors{M: rng.Float64(), Q: rng.Float64(), W: rng.Float64()}
	}
	g := &Graph{Nodes: make([]*vizql.Node, n), Factors: fs, Out: make([][]int32, n), OutW: make([][]float64, n)}
	adj := make([][]bool, n) // adj[a][b]: edge perm[a] → perm[b], a < b
	for a := range adj {
		adj[a] = make([]bool, n)
		for b := a + 1; b < n; b++ {
			adj[a][b] = rng.Float64() < density
		}
	}
	if closed {
		for a := n - 1; a >= 0; a-- {
			for b := a + 1; b < n; b++ {
				if adj[a][b] {
					for c := b + 1; c < n; c++ {
						adj[a][c] = adj[a][c] || adj[b][c]
					}
				}
			}
		}
	}
	for a := range adj {
		for b := a + 1; b < n; b++ {
			if adj[a][b] {
				g.Out[perm[a]] = append(g.Out[perm[a]], int32(perm[b]))
				g.OutW[perm[a]] = append(g.OutW[perm[a]], rng.Float64())
			}
		}
		row, w := g.Out[perm[a]], g.OutW[perm[a]]
		rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i]; w[i], w[j] = w[j], w[i] })
	}
	return g
}

// TestReduceMatchesGreedyOracle compares Reduce with the sort-based
// greedy reduction on random DAGs (closed and not, sparse and dense,
// rows unsorted) and on the dominance graphs all three builders produce
// from random factor sets with ties, serial and parallel.
func TestReduceMatchesGreedyOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(150) + 1
		density := []float64{0.02, 0.1, 0.4, 0.9}[trial%4]
		g := randomDAG(rng, n, density, trial%2 == 0)
		assertSameGraph(t, g.Reduce(), greedyReduce(g))
	}
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(300) + 2
		levels := 2 + rng.Intn(9) // few levels: many ties and incomparables
		fs := make([]Factors, n)
		for i := range fs {
			fs[i] = Factors{
				M: float64(rng.Intn(levels)) / float64(levels),
				Q: float64(rng.Intn(levels)) / float64(levels),
				W: float64(rng.Intn(levels)) / float64(levels),
			}
		}
		nodes := make([]*vizql.Node, n)
		for _, m := range []BuildMethod{BuildNaive, BuildQuickSort, BuildRangeTree} {
			for _, workers := range []int{1, 4} {
				g, err := BuildGraphCtx(context.Background(), nodes, fs, m, workers)
				if err != nil {
					t.Fatal(err)
				}
				assertSameGraph(t, g.Reduce(), greedyReduce(g))
			}
		}
	}
}

func assertSameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if len(got.Out) != len(want.Out) || got.comparisons != want.comparisons {
		t.Fatalf("%d rows, %d comparisons; want %d, %d", len(got.Out), got.comparisons, len(want.Out), want.comparisons)
	}
	for v := range want.Out {
		if len(got.Out[v]) != len(want.Out[v]) {
			t.Fatalf("node %d covers %v, want %v", v, got.Out[v], want.Out[v])
		}
		for k := range want.Out[v] {
			if got.Out[v][k] != want.Out[v][k] ||
				math.Float64bits(got.OutW[v][k]) != math.Float64bits(want.OutW[v][k]) {
				t.Fatalf("node %d edge %d: →%d (w %v), want →%d (w %v)", v, k,
					got.Out[v][k], got.OutW[v][k], want.Out[v][k], want.OutW[v][k])
			}
		}
	}
}

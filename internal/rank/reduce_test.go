package rank

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/deepeye/deepeye/internal/vizql"
)

func chainFactors(n int) []Factors {
	fs := make([]Factors, n)
	for i := range fs {
		v := float64(n-i) / float64(n)
		fs[i] = Factors{M: v, Q: v, W: v}
	}
	return fs
}

func TestReduceChain(t *testing.T) {
	// A strict chain: closure has n(n-1)/2 edges, Hasse has n-1.
	n := 12
	fs := chainFactors(n)
	g := buildGraph(make([]*vizql.Node, n), fs, BuildNaive, 1)
	if g.NumEdges() != n*(n-1)/2 {
		t.Fatalf("closure edges = %d", g.NumEdges())
	}
	h := g.Reduce()
	if h.NumEdges() != n-1 {
		t.Fatalf("hasse edges = %d, want %d", h.NumEdges(), n-1)
	}
	// Each node covers exactly its successor.
	for v := 0; v < n-1; v++ {
		if len(h.Out[v]) != 1 || h.Out[v][0] != int32(v+1) {
			t.Fatalf("node %d covers %v", v, h.Out[v])
		}
	}
}

func TestReduceScoresStayBounded(t *testing.T) {
	// On the closure of a long chain the recursive score explodes
	// exponentially; on the Hasse diagram it grows linearly.
	n := 60
	fs := chainFactors(n)
	g := buildGraph(make([]*vizql.Node, n), fs, BuildNaive, 1)
	h := g.Reduce()
	s := h.Scores()
	if s[0] > float64(n) {
		t.Errorf("hasse chain score = %v, want <= %v", s[0], n)
	}
	closure := g.Scores()
	if closure[0] <= s[0] {
		t.Errorf("closure score (%v) should exceed hasse score (%v)", closure[0], s[0])
	}
}

func TestReducePreservesReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 40
	fs := make([]Factors, n)
	for i := range fs {
		fs[i] = Factors{
			M: float64(rng.Intn(5)) / 4,
			Q: float64(rng.Intn(5)) / 4,
			W: float64(rng.Intn(5)) / 4,
		}
	}
	g := buildGraph(make([]*vizql.Node, n), fs, BuildNaive, 1)
	h := g.Reduce()
	reachOf := func(gr *Graph, v int) map[int]bool {
		seen := map[int]bool{}
		stack := []int{v}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range gr.Out[x] {
				if !seen[int(u)] {
					seen[int(u)] = true
					stack = append(stack, int(u))
				}
			}
		}
		return seen
	}
	for v := 0; v < n; v++ {
		a, b := reachOf(g, v), reachOf(h, v)
		if len(a) != len(b) {
			t.Fatalf("node %d reach differs: %d vs %d", v, len(a), len(b))
		}
		for u := range a {
			if !b[u] {
				t.Fatalf("node %d lost reachability to %d", v, u)
			}
		}
	}
	if h.NumEdges() > g.NumEdges() {
		t.Error("reduction added edges")
	}
}

func TestReduceMinimality(t *testing.T) {
	// Removing any Hasse edge must lose reachability.
	fs := []Factors{
		{M: 1, Q: 1, W: 1},
		{M: 0.6, Q: 0.6, W: 0.6},
		{M: 0.6, Q: 0.7, W: 0.5}, // incomparable with 1
		{M: 0.2, Q: 0.2, W: 0.2},
	}
	g := buildGraph(make([]*vizql.Node, 4), fs, BuildNaive, 1).Reduce()
	// 0 covers 1 and 2; 1 and 2 cover 3; 0→3 must be gone.
	for _, u := range g.Out[0] {
		if u == 3 {
			t.Error("transitive edge 0→3 survived reduction")
		}
	}
	if len(g.Out[1]) != 1 || g.Out[1][0] != 3 {
		t.Errorf("node 1 covers %v", g.Out[1])
	}
}

func TestOrderShortlist(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 50
	fs := make([]Factors, n)
	for i := range fs {
		fs[i] = Factors{M: rng.Float64(), Q: rng.Float64(), W: rng.Float64()}
	}
	nodes := make([]*vizql.Node, n)
	order, scores, _ := OrderCtx(context.Background(), nodes, fs, SelectOptions{MaxGraphNodes: 10})
	if len(order) != n {
		t.Fatalf("order length = %d", len(order))
	}
	seen := make([]bool, n)
	for _, idx := range order {
		if seen[idx] {
			t.Fatal("order is not a permutation")
		}
		seen[idx] = true
	}
	// Scores for the graph-ranked prefix descend.
	for i := 1; i < 10; i++ {
		if scores[order[i]] > scores[order[i-1]]+1e-12 {
			t.Errorf("prefix scores not descending at %d", i)
		}
	}
}

// Property: Order returns a permutation and reduction preserves edge
// subset-ness for random factor sets.
func TestReduceQuick(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%40) + 2
		fs := make([]Factors, n)
		for i := range fs {
			fs[i] = Factors{
				M: float64(rng.Intn(4)) / 3,
				Q: float64(rng.Intn(4)) / 3,
				W: float64(rng.Intn(4)) / 3,
			}
		}
		g := buildGraph(make([]*vizql.Node, n), fs, BuildNaive, 1)
		h := g.Reduce()
		if h.NumEdges() > g.NumEdges() {
			return false
		}
		// Every Hasse edge is a closure edge.
		closure := make(map[[2]int32]bool)
		for v := range g.Out {
			for _, u := range g.Out[v] {
				closure[[2]int32{int32(v), u}] = true
			}
		}
		for v := range h.Out {
			for _, u := range h.Out[v] {
				if !closure[[2]int32{int32(v), u}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

package rank

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/deepeye/deepeye/internal/chart"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/rules"
	"github.com/deepeye/deepeye/internal/transform"
	"github.com/deepeye/deepeye/internal/vizql"
)

// flightNodes builds candidate nodes over a miniature FlyDelay table.
func flightNodes(t *testing.T) []*vizql.Node {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	n := 800
	base := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	times := make([]time.Time, n)
	carrier := make([]string, n)
	dep := make([]float64, n)
	arr := make([]float64, n)
	pax := make([]float64, n)
	carriers := []string{"UA", "AA", "MQ", "OO", "DL"}
	for i := 0; i < n; i++ {
		times[i] = base.Add(time.Duration(rng.Intn(365*24*60)) * time.Minute)
		carrier[i] = carriers[rng.Intn(len(carriers))]
		h := float64(times[i].Hour())
		dep[i] = 2*h - 10 + rng.NormFloat64()*2
		arr[i] = dep[i] + rng.NormFloat64()
		pax[i] = float64(80 + rng.Intn(150))
	}
	tab, err := dataset.New("flights", []*dataset.Column{
		dataset.TimeColumn("scheduled", times),
		dataset.CatColumn("carrier", carrier),
		dataset.NumColumn("departure_delay", dep),
		dataset.NumColumn("arrival_delay", arr),
		dataset.NumColumn("passengers", pax),
	})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := rules.EnumerateQueriesCtx(context.Background(), tab)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := vizql.ExecuteAllParallelCtx(context.Background(), tab, qs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

// computeFactors runs ComputeFactorsWorkersCtx serially with default
// options.
func computeFactors(nodes []*vizql.Node) []Factors {
	fs, _ := ComputeFactorsWorkersCtx(context.Background(), nodes, FactorOptions{}, 1)
	return fs
}

// buildGraph runs BuildGraphCtx without cancellation.
func buildGraph(nodes []*vizql.Node, fs []Factors, method BuildMethod, workers int) *Graph {
	g, _ := BuildGraphCtx(context.Background(), nodes, fs, method, workers)
	return g
}

func mustNode(t *testing.T, tab *dataset.Table, src string) *vizql.Node {
	t.Helper()
	q, err := vizql.Parse(src, map[string]*transform.UDF{"sign": vizql.DefaultUDF})
	if err != nil {
		t.Fatal(err)
	}
	n, err := vizql.Execute(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestFactorsInRange(t *testing.T) {
	nodes := flightNodes(t)
	fs := computeFactors(nodes)
	if len(fs) != len(nodes) {
		t.Fatalf("factors = %d, nodes = %d", len(fs), len(nodes))
	}
	for i, f := range fs {
		if f.M < 0 || f.M > 1+1e-9 || f.Q < 0 || f.Q > 1+1e-9 || f.W < 0 || f.W > 1+1e-9 {
			t.Fatalf("factors out of range at %d: %+v (%s)", i, f, nodes[i].Query.Key())
		}
	}
}

func TestPieFactorRules(t *testing.T) {
	// Build a table where pies differ in quality.
	tab, err := dataset.New("t", []*dataset.Column{
		dataset.CatColumn("c", []string{"a", "a", "b", "b", "c", "c"}),
		dataset.NumColumn("v", []float64{10, 20, 30, 40, 50, 60}),
	})
	if err != nil {
		t.Fatal(err)
	}
	avgPie := mustNode(t, tab, "VISUALIZE pie SELECT c, AVG(v) FROM t GROUP BY c")
	sumPie := mustNode(t, tab, "VISUALIZE pie SELECT c, SUM(v) FROM t GROUP BY c")
	if m := rawM(avgPie, FactorOptions{}.withDefaults()); m != 0 {
		t.Errorf("AVG pie must score 0, got %v", m)
	}
	if m := rawM(sumPie, FactorOptions{}.withDefaults()); m <= 0 {
		t.Errorf("SUM pie should score > 0, got %v", m)
	}
}

func TestPieNegativeValuesScoreZero(t *testing.T) {
	tab, err := dataset.New("t", []*dataset.Column{
		dataset.CatColumn("c", []string{"a", "b"}),
		dataset.NumColumn("v", []float64{-5, 10}),
	})
	if err != nil {
		t.Fatal(err)
	}
	pie := mustNode(t, tab, "VISUALIZE pie SELECT c, SUM(v) FROM t GROUP BY c")
	if m := rawM(pie, FactorOptions{}.withDefaults()); m != 0 {
		t.Errorf("negative pie must score 0, got %v", m)
	}
}

func TestBarFactorDecay(t *testing.T) {
	mk := func(k int) *vizql.Node {
		cats := make([]string, k*2)
		vals := make([]float64, k*2)
		for i := range cats {
			cats[i] = string(rune('A' + i%k))
			vals[i] = float64(i)
		}
		tab, err := dataset.New("t", []*dataset.Column{
			dataset.CatColumn("c", cats),
			dataset.NumColumn("v", vals),
		})
		if err != nil {
			t.Fatal(err)
		}
		return mustNode(t, tab, "VISUALIZE bar SELECT c, SUM(v) FROM t GROUP BY c")
	}
	o := FactorOptions{}.withDefaults()
	if m := rawM(mk(5), o); m != 1 {
		t.Errorf("5-bar M = %v, want 1", m)
	}
	m25 := rawM(mk(25), o)
	if m25 >= 1 || m25 <= 0 {
		t.Errorf("25-bar M = %v, want decayed", m25)
	}
}

func TestQFactorPrefersSummarization(t *testing.T) {
	nodes := flightNodes(t)
	// A by-hour binning (24 buckets from 800 rows) must out-Q a raw
	// scatter (no reduction).
	var binQ, rawQv float64
	seen := 0
	for _, n := range nodes {
		if n.Query.Spec.Kind == transform.KindBinUnit && n.Query.Spec.Unit == transform.ByHour && n.Chart == chart.Line {
			binQ = rawQ(n)
			seen++
		}
		if n.Query.Spec.Kind == transform.KindNone && n.Chart == chart.Scatter {
			rawQv = rawQ(n)
			seen++
		}
	}
	if seen < 2 {
		t.Skip("candidate set missing expected nodes")
	}
	if binQ <= rawQv {
		t.Errorf("binned Q (%v) should beat raw Q (%v)", binQ, rawQv)
	}
}

func TestDominance(t *testing.T) {
	a := Factors{M: 0.9, Q: 0.8, W: 0.7}
	b := Factors{M: 0.5, Q: 0.8, W: 0.7}
	c := Factors{M: 0.4, Q: 0.9, W: 0.7}
	if !StrictlyDominates(a, b) {
		t.Error("a should strictly dominate b")
	}
	if StrictlyDominates(b, a) {
		t.Error("b should not dominate a")
	}
	if StrictlyDominates(b, c) || StrictlyDominates(c, b) {
		t.Error("b and c are incomparable")
	}
	if !Dominates(a, a) || StrictlyDominates(a, a) {
		t.Error("self-dominance is weak only")
	}
}

func TestEdgeWeight(t *testing.T) {
	u := Factors{M: 1, Q: 0.99976, W: 0.89}
	v := Factors{M: 0, Q: 0.99633, W: 0.52}
	// The paper's Example 5: weight ≈ 0.4578.
	w := EdgeWeight(u, v)
	if w < 0.457 || w > 0.459 {
		t.Errorf("weight = %v, want ≈ 0.4578", w)
	}
}

func TestBuildersProduceIdenticalGraphs(t *testing.T) {
	nodes := flightNodes(t)
	fs := computeFactors(nodes)
	naive := buildGraph(nodes, fs, BuildNaive, 1)
	qs := buildGraph(nodes, fs, BuildQuickSort, 1)
	rt := buildGraph(nodes, fs, BuildRangeTree, 1)
	if naive.NumEdges() != qs.NumEdges() || naive.NumEdges() != rt.NumEdges() {
		t.Fatalf("edge counts differ: naive=%d quicksort=%d rangetree=%d",
			naive.NumEdges(), qs.NumEdges(), rt.NumEdges())
	}
	for i := range naive.Out {
		if len(naive.Out[i]) != len(qs.Out[i]) || len(naive.Out[i]) != len(rt.Out[i]) {
			t.Fatalf("node %d out-degree differs", i)
		}
		for k := range naive.Out[i] {
			if naive.Out[i][k] != qs.Out[i][k] || naive.Out[i][k] != rt.Out[i][k] {
				t.Fatalf("node %d edge %d differs", i, k)
			}
		}
	}
}

func TestGraphIsAcyclic(t *testing.T) {
	nodes := flightNodes(t)
	fs := computeFactors(nodes)
	g := buildGraph(nodes, fs, BuildNaive, 1)
	// DFS cycle detection.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(nodes))
	var visit func(v int) bool
	visit = func(v int) bool {
		color[v] = gray
		for _, u := range g.Out[v] {
			switch color[u] {
			case gray:
				return false
			case white:
				if !visit(int(u)) {
					return false
				}
			}
		}
		color[v] = black
		return true
	}
	for v := range nodes {
		if color[v] == white && !visit(v) {
			t.Fatal("dominance graph has a cycle")
		}
	}
}

func TestScoresExample6(t *testing.T) {
	// Reproduce the paper's Example 6 graph: 1(c) → 1(d), 5(d) → 1(d),
	// 5(c) → 5(b); sinks score 0.
	fs := []Factors{
		{M: 1.00, Q: 0.99976, W: 0.89},   // 0: Fig 1(c)
		{M: 0, Q: 0.99633, W: 0.52},      // 1: Fig 1(d)
		{M: 0.26, Q: 0.99633, W: 0.59},   // 2: Fig 5(d)
		{M: 0.028, Q: 0.99995, W: 0.74},  // 3: Fig 5(c) (pie)
		{M: 0.0001, Q: 0.99995, W: 0.74}, // 4: Fig 5(b) (bar)
	}
	// Use nil nodes: scoring only touches factors and adjacency.
	g := &Graph{
		Nodes:   make([]*vizql.Node, len(fs)),
		Factors: fs,
		Out:     make([][]int32, len(fs)),
		OutW:    make([][]float64, len(fs)),
	}
	g.addEdge(0, 1)
	g.addEdge(2, 1)
	g.addEdge(3, 4)
	s := g.Scores()
	if s[1] != 0 || s[4] != 0 {
		t.Errorf("sink scores = %v, %v", s[1], s[4])
	}
	if !(s[0] > s[2] && s[2] > s[3]) {
		t.Errorf("ranking = %v, want S(1c) > S(5d) > S(5c)", s)
	}
	top := g.TopK(3)
	if top[0] != 0 || top[1] != 2 || top[2] != 3 {
		t.Errorf("top-3 = %v, want [0 2 3]", top)
	}
}

func TestScoresAccumulateAlongPaths(t *testing.T) {
	fs := []Factors{
		{M: 1, Q: 1, W: 1},
		{M: 0.5, Q: 0.5, W: 0.5},
		{M: 0, Q: 0, W: 0},
	}
	g := buildGraph(make([]*vizql.Node, 3), fs, BuildNaive, 1)
	s := g.Scores()
	// 0 dominates 1 and 2; 1 dominates 2. S(2)=0, S(1)=w(1,2),
	// S(0)=w(0,1)+S(1)+w(0,2)+S(2).
	w12 := EdgeWeight(fs[1], fs[2])
	w01 := EdgeWeight(fs[0], fs[1])
	w02 := EdgeWeight(fs[0], fs[2])
	if diff := s[1] - w12; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("S(1) = %v, want %v", s[1], w12)
	}
	want0 := w01 + w12 + w02
	if diff := s[0] - want0; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("S(0) = %v, want %v", s[0], want0)
	}
}

func TestTopologicalOrderRanksSourcesFirst(t *testing.T) {
	fs := []Factors{
		{M: 1, Q: 1, W: 1},
		{M: 0.5, Q: 0.5, W: 0.5},
		{M: 0, Q: 0, W: 0},
	}
	g := buildGraph(make([]*vizql.Node, 3), fs, BuildNaive, 1)
	order := g.TopologicalOrder()
	if order[0] != 0 || order[2] != 2 {
		t.Errorf("topological order = %v", order)
	}
}

func TestQuickSortSavesComparisons(t *testing.T) {
	nodes := flightNodes(t)
	fs := computeFactors(nodes)
	naive := buildGraph(nodes, fs, BuildNaive, 1)
	qs := buildGraph(nodes, fs, BuildQuickSort, 1)
	if qs.Comparisons() >= naive.Comparisons() {
		t.Errorf("quicksort comparisons %d >= naive %d", qs.Comparisons(), naive.Comparisons())
	}
}

// Property: all three builders agree on random factor sets, including
// ties and duplicates.
func TestBuilderEquivalenceQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n%60) + 2
		fs := make([]Factors, m)
		for i := range fs {
			// Coarse grid to force ties.
			fs[i] = Factors{
				M: float64(rng.Intn(4)) / 3,
				Q: float64(rng.Intn(4)) / 3,
				W: float64(rng.Intn(4)) / 3,
			}
		}
		nodes := make([]*vizql.Node, m)
		a := buildGraph(nodes, fs, BuildNaive, 1)
		b := buildGraph(nodes, fs, BuildQuickSort, 1)
		c := buildGraph(nodes, fs, BuildRangeTree, 1)
		for i := 0; i < m; i++ {
			if len(a.Out[i]) != len(b.Out[i]) || len(a.Out[i]) != len(c.Out[i]) {
				return false
			}
			for k := range a.Out[i] {
				if a.Out[i][k] != b.Out[i][k] || a.Out[i][k] != c.Out[i][k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: TopK(k) is a prefix of TopK(k+1).
func TestTopKPrefixQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 20
		fs := make([]Factors, m)
		for i := range fs {
			fs[i] = Factors{M: rng.Float64(), Q: rng.Float64(), W: rng.Float64()}
		}
		g := buildGraph(make([]*vizql.Node, m), fs, BuildNaive, 1)
		for k := 1; k < m; k++ {
			a := g.TopK(k)
			b := g.TopK(k + 1)
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

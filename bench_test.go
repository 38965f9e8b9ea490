// Benchmarks regenerating every table and figure of the paper's
// evaluation (§VI), one testing.B benchmark per artifact, plus component
// ablations for the design choices DESIGN.md calls out (graph builders,
// rule pruning, progressive selection). Quality metrics (F1, NDCG,
// coverage k) are attached to the benchmark output via ReportMetric, so
// `go test -bench=. -benchmem` doubles as the experiment log;
// EXPERIMENTS.md records the paper-vs-measured comparison.
package deepeye_test

import (
	"context"
	"testing"

	deepeye "github.com/deepeye/deepeye"
	"github.com/deepeye/deepeye/internal/datagen"
	"github.com/deepeye/deepeye/internal/experiments"
	"github.com/deepeye/deepeye/internal/rank"
	"github.com/deepeye/deepeye/internal/rules"
	"github.com/deepeye/deepeye/internal/vizql"
)

// benchCfg sizes the experiment benchmarks: 5% data scale keeps a full
// -bench=. run in minutes while preserving every shape.
func benchCfg() experiments.Config {
	return experiments.Config{Scale: 0.05, Seed: 42, MaxPerTable: 200, LTRTrees: 40}
}

// BenchmarkFigure1Charts regenerates the paper's four walk-through charts
// (Fig. 1) on the FlyDelay table via the visualization language.
func BenchmarkFigure1Charts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vs, err := experiments.Figure1Charts(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(vs) != 4 {
			b.Fatalf("charts = %d", len(vs))
		}
	}
}

// BenchmarkTable3Corpus regenerates the 42-dataset corpus statistics
// (Table III).
func BenchmarkTable3Corpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if s.Datasets != 42 {
			b.Fatalf("datasets = %d", s.Datasets)
		}
	}
}

// BenchmarkTable4TestSets regenerates Table IV (testing datasets with
// their good-chart counts under the crowd oracle).
func BenchmarkTable4TestSets(b *testing.B) {
	var goodTotal int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		goodTotal = 0
		for _, r := range rows {
			goodTotal += r.Charts
		}
	}
	b.ReportMetric(float64(goodTotal), "good-charts")
}

// BenchmarkTable6Coverage regenerates Table VI (smallest top-k covering
// the real-use-case charts of D1–D9).
func BenchmarkTable6Coverage(b *testing.B) {
	var maxK int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Coverage(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		maxK = 0
		for _, r := range rows {
			if r.Covered != r.Real {
				b.Fatalf("%s: covered %d of %d", r.Dataset, r.Covered, r.Real)
			}
			if r.KNeeded > maxK {
				maxK = r.KNeeded
			}
		}
	}
	b.ReportMetric(float64(maxK), "max-k")
}

// BenchmarkFigure10Recognition regenerates Fig. 10 (average recognition
// effectiveness of Bayes vs SVM vs the decision tree on X1–X10).
func BenchmarkFigure10Recognition(b *testing.B) {
	var f1 []float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Recognition(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		_, _, f1 = res.Averages()
	}
	b.ReportMetric(f1[0]*100, "F1-Bayes-%")
	b.ReportMetric(f1[1]*100, "F1-SVM-%")
	b.ReportMetric(f1[2]*100, "F1-DT-%")
}

// BenchmarkTable7PerChartType regenerates Table VII (per-chart-type
// recognition effectiveness).
func BenchmarkTable7PerChartType(b *testing.B) {
	var f [][]float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Recognition(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		_, _, f = res.TypeAverages()
	}
	// Report the decision tree's per-type F1 (B, L, P, S).
	b.ReportMetric(f[0][2]*100, "F1-DT-bar-%")
	b.ReportMetric(f[1][2]*100, "F1-DT-line-%")
	b.ReportMetric(f[2][2]*100, "F1-DT-pie-%")
	b.ReportMetric(f[3][2]*100, "F1-DT-scatter-%")
}

// BenchmarkTable8PerDataset regenerates Table VIII (per-dataset,
// per-chart-type F-measure).
func BenchmarkTable8PerDataset(b *testing.B) {
	var cells int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Recognition(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		cells = 0
		for di := range res.PerType {
			for ct := range res.PerType[di] {
				for mi := range res.PerType[di][ct] {
					c := res.PerType[di][ct][mi]
					if c.TP+c.FP+c.TN+c.FN > 0 {
						cells++
					}
				}
			}
		}
	}
	b.ReportMetric(float64(cells), "table-cells")
}

// BenchmarkFigure11Selection regenerates Fig. 11 (NDCG of learning-to-
// rank vs partial order vs hybrid on X1–X10).
func BenchmarkFigure11Selection(b *testing.B) {
	var avg []float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Selection(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		avg = res.MethodAverages()
	}
	b.ReportMetric(avg[0], "NDCG-LTR")
	b.ReportMetric(avg[1], "NDCG-PO")
	b.ReportMetric(avg[2], "NDCG-Hybrid")
}

// BenchmarkFigure12Efficiency regenerates Fig. 12 (end-to-end runtime of
// the four enumeration × selection configurations) on three
// representative datasets.
func BenchmarkFigure12Efficiency(b *testing.B) {
	var rows []experiments.EfficiencyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Efficiency(benchCfg(), []int{0, 4, 9}) // X1, X5, X10
		if err != nil {
			b.Fatal(err)
		}
	}
	var el, rp float64
	for _, r := range rows {
		el += r.Total("EL").Seconds() * 1000
		rp += r.Total("RP").Seconds() * 1000
	}
	b.ReportMetric(el, "EL-ms")
	b.ReportMetric(rp, "RP-ms")
}

// BenchmarkTable_SearchSpace checks the Fig. 3 closed forms against the
// enumerator on the FlyDelay schema and times the enumeration.
func BenchmarkTable_SearchSpace(b *testing.B) {
	tab, err := datagen.TestSet(9, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	m := tab.NumCols()
	if vizql.SearchSpaceTwoColumns(m) != 528*m*(m-1) {
		b.Fatal("closed form mismatch")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qs := vizql.EnumerateQueries(tab)
		if len(qs) > vizql.SearchSpaceTwoColumns(m) {
			b.Fatal("enumeration exceeds bound")
		}
	}
}

// --- component ablations -------------------------------------------------

func ablationNodes(b *testing.B) []*vizql.Node {
	b.Helper()
	tab, err := datagen.TestSet(9, 0.02) // FlyDelay at 2%
	if err != nil {
		b.Fatal(err)
	}
	return vizql.Dedupe(executeRules(b, tab))
}

// The component ablations time the serial (one-worker) stages.

// executeRules enumerates and executes the rule-pruned candidates.
func executeRules(b *testing.B, tab *deepeye.Table) []*vizql.Node {
	b.Helper()
	qs, err := rules.EnumerateQueriesCtx(context.Background(), tab)
	if err != nil {
		b.Fatal(err)
	}
	return executeSerial(b, tab, qs)
}

func executeSerial(b *testing.B, tab *deepeye.Table, qs []vizql.Query) []*vizql.Node {
	b.Helper()
	nodes, err := vizql.ExecuteAllParallelCtx(context.Background(), tab, qs, 1)
	if err != nil {
		b.Fatal(err)
	}
	return nodes
}

func serialFactors(b *testing.B, nodes []*vizql.Node) []rank.Factors {
	b.Helper()
	fs, err := rank.ComputeFactorsWorkersCtx(context.Background(), nodes, rank.FactorOptions{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	return fs
}

func serialGraph(b *testing.B, nodes []*vizql.Node, fs []rank.Factors, method rank.BuildMethod) *rank.Graph {
	b.Helper()
	g, err := rank.BuildGraphCtx(context.Background(), nodes, fs, method, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkGraphBuildNaive / QuickSort / RangeTree compare the three
// dominance-graph construction algorithms of §IV-C.
func BenchmarkGraphBuildNaive(b *testing.B)     { benchGraphBuild(b, rank.BuildNaive) }
func BenchmarkGraphBuildQuickSort(b *testing.B) { benchGraphBuild(b, rank.BuildQuickSort) }
func BenchmarkGraphBuildRangeTree(b *testing.B) { benchGraphBuild(b, rank.BuildRangeTree) }

func benchGraphBuild(b *testing.B, method rank.BuildMethod) {
	nodes := ablationNodes(b)
	factors := serialFactors(b, nodes)
	b.ResetTimer()
	var comparisons int
	for i := 0; i < b.N; i++ {
		g := serialGraph(b, nodes, factors, method)
		comparisons = g.Comparisons()
	}
	b.ReportMetric(float64(comparisons), "comparisons")
}

// BenchmarkEnumerationExhaustive vs BenchmarkEnumerationRules isolates the
// §V-A rule pruning (the E vs R split of Fig. 12).
func BenchmarkEnumerationExhaustive(b *testing.B) {
	tab, err := datagen.TestSet(0, 1.0) // X1: 75 rows, 8 columns
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		executeSerial(b, tab, vizql.EnumerateQueries(tab))
	}
}

func BenchmarkEnumerationRules(b *testing.B) {
	tab, err := datagen.TestSet(0, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		executeRules(b, tab)
	}
}

// BenchmarkProgressiveTopK vs BenchmarkGraphTopK isolates the §V-B
// tournament against the full dominance-graph ranking.
func BenchmarkProgressiveTopK(b *testing.B) {
	tab, err := datagen.TestSet(2, 1.0) // X3: 23 columns
	if err != nil {
		b.Fatal(err)
	}
	sys := deepeye.New(deepeye.Options{Progressive: true, IncludeOneColumn: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.TopK(tab, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphTopK(b *testing.B) {
	tab, err := datagen.TestSet(2, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	sys := deepeye.New(deepeye.Options{IncludeOneColumn: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.TopK(tab, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransformSharing isolates §V-B optimization 1: the shared
// bucketing pass inside the batch executor versus executing each query
// alone.
func BenchmarkTransformSharing(b *testing.B) {
	tab, err := datagen.TestSet(9, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := rules.EnumerateQueriesCtx(context.Background(), tab)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			executeSerial(b, tab, qs)
		}
	})
	b.Run("individual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				_, _ = vizql.Execute(tab, q)
			}
		}
	})
}

// BenchmarkCrossValidation regenerates the paper's cross-validation
// check of §VI ("we also conducted cross validation and got similar
// results").
func BenchmarkCrossValidation(b *testing.B) {
	var mean []float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.MaxPerTable = 100
		res, err := experiments.CrossValidation(cfg, 3)
		if err != nil {
			b.Fatal(err)
		}
		mean, _ = res.MeanStd()
	}
	b.ReportMetric(mean[2]*100, "F1-DT-%")
}

// BenchmarkHasseReduce isolates the transitive reduction that turns the
// dominance closure into the scored Hasse diagram.
func BenchmarkHasseReduce(b *testing.B) {
	nodes := ablationNodes(b)
	g := serialGraph(b, nodes, serialFactors(b, nodes), rank.BuildQuickSort)
	b.ResetTimer()
	var edges int
	for i := 0; i < b.N; i++ {
		edges = g.Reduce().NumEdges()
	}
	b.ReportMetric(float64(g.NumEdges()), "closure-edges")
	b.ReportMetric(float64(edges), "hasse-edges")
}

// BenchmarkMultiSuggest measures the multi-column extension end to end.
func BenchmarkMultiSuggest(b *testing.B) {
	tab, err := datagen.TestSet(9, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	sys := deepeye.New(deepeye.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.SuggestMulti(tab, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeywordSearch measures the keyword-driven interface.
func BenchmarkKeywordSearch(b *testing.B) {
	tab, err := datagen.TestSet(9, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	sys := deepeye.New(deepeye.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Search(tab, "departure delay trend by hour", 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCandidatesSequential vs Parallel shows the §VI-D
// parallelizability of candidate materialization.
func BenchmarkCandidatesSequential(b *testing.B) { benchCandidates(b, 0) }
func BenchmarkCandidatesParallel(b *testing.B)   { benchCandidates(b, -1) }

func benchCandidates(b *testing.B, workers int) {
	tab, err := datagen.TestSet(9, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	sys := deepeye.New(deepeye.Options{Workers: workers})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Candidates(tab); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRanking compares the §IV-C weight-aware score against
// plain topological sorting (the design choice DESIGN.md calls out).
func BenchmarkAblationRanking(b *testing.B) {
	var wa, topo float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationRanking(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		wa, topo = res.Averages()
	}
	b.ReportMetric(wa, "NDCG-weight-aware")
	b.ReportMetric(topo, "NDCG-topological")
}

// BenchmarkFigure9FirstPage regenerates the Fig. 9 demo first page for D3.
func BenchmarkFigure9FirstPage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vs, err := experiments.Figure9FirstPage(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(vs) != 6 {
			b.Fatalf("charts = %d", len(vs))
		}
	}
}

// Package experiments regenerates every table and figure of DeepEye's
// evaluation (paper §VI) over the synthetic corpus: recognition quality
// (Fig. 10, Tables VII–VIII), selection quality (Fig. 11a–e), efficiency
// (Fig. 12), real-use-case coverage (Table VI), and the corpus statistics
// (Tables III–IV). cmd/deepeye-bench prints them; bench_test.go wraps
// them in testing.B benchmarks. EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	deepeye "github.com/deepeye/deepeye"
	"github.com/deepeye/deepeye/internal/chart"
	"github.com/deepeye/deepeye/internal/crowd"
	"github.com/deepeye/deepeye/internal/datagen"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/hybrid"
	"github.com/deepeye/deepeye/internal/metrics"
	"github.com/deepeye/deepeye/internal/ml"
	"github.com/deepeye/deepeye/internal/ml/bayes"
	"github.com/deepeye/deepeye/internal/ml/dtree"
	"github.com/deepeye/deepeye/internal/ml/lambdamart"
	"github.com/deepeye/deepeye/internal/ml/svm"
	"github.com/deepeye/deepeye/internal/rank"
	"github.com/deepeye/deepeye/internal/rules"
	"github.com/deepeye/deepeye/internal/vizql"
)

// Config scales the experiments. Scale shrinks dataset sizes (1.0 =
// paper-sized); MaxPerTable caps per-dataset candidates used for
// training/ranking labels (0 = unlimited).
type Config struct {
	Scale       float64
	Seed        int64
	MaxPerTable int
	LTRTrees    int
}

// Default returns a configuration sized for interactive runs: datasets at
// 10% scale, capped label sets.
func Default() Config {
	return Config{Scale: 0.1, Seed: 42, MaxPerTable: 400, LTRTrees: 60}
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.LTRTrees <= 0 {
		c.LTRTrees = 60
	}
	return c
}

// The experiments run every pipeline stage on one worker, so the Fig. 12
// timings measure the serial pipeline, and without cancellation, so no
// stage can fail (each fails only when its context does).

// ruleCandidates enumerates and executes the rule-pruned candidates.
func ruleCandidates(t *dataset.Table) []*vizql.Node {
	qs, _ := rules.EnumerateQueriesCtx(context.Background(), t)
	return execute(t, qs)
}

func execute(t *dataset.Table, qs []vizql.Query) []*vizql.Node {
	nodes, _ := vizql.ExecuteAllParallelCtx(context.Background(), t, qs, 1)
	return nodes
}

func factorsOf(nodes []*vizql.Node) []rank.Factors {
	fs, _ := rank.ComputeFactorsWorkersCtx(context.Background(), nodes, rank.FactorOptions{}, 1)
	return fs
}

// candidateSet enumerates rule-pruned candidates for a table, capped by a
// strided subsample so the cap does not bias toward the first columns'
// candidates (enumeration is column-ordered).
func candidateSet(t *dataset.Table, maxN int) []*vizql.Node {
	nodes := vizql.Dedupe(ruleCandidates(t))
	if maxN > 0 && len(nodes) > maxN {
		sampled := make([]*vizql.Node, 0, maxN)
		for i := 0; i < maxN; i++ {
			sampled = append(sampled, nodes[i*len(nodes)/maxN])
		}
		nodes = sampled
	}
	return nodes
}

// trainingCorpus builds labelled candidates over the 32 training sets.
type labelledSet struct {
	table  *dataset.Table
	nodes  []*vizql.Node
	labels []bool
	rel    []float64
}

func buildSets(cfg Config, gen func(i int, scale float64) (*dataset.Table, error), n int, o crowd.Oracle, withRel bool) ([]labelledSet, error) {
	out := make([]labelledSet, 0, n)
	for i := 0; i < n; i++ {
		t, err := gen(i, cfg.Scale)
		if err != nil {
			return nil, err
		}
		nodes := candidateSet(t, cfg.MaxPerTable)
		ls := labelledSet{table: t, nodes: nodes, labels: o.LabelAll(nodes)}
		if withRel {
			ls.rel = o.Relevance(nodes, 5)
		}
		out = append(out, ls)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Recognition (Fig. 10, Table VII, Table VIII)

// RecognitionResult holds confusion matrices per test dataset, chart
// type, and model.
type RecognitionResult struct {
	Models   []string // model names in order: Bayes, SVM, DT
	Datasets []string // X1..X10
	// Confusion[d][m] aggregates over all chart types;
	// PerType[d][ct][m] breaks down by chart type.
	Confusion [][]metrics.Confusion
	PerType   [][][]metrics.Confusion
}

// Recognition trains Bayes, SVM, and the decision tree on the 32-dataset
// corpus and evaluates them on X1–X10 (paper Fig. 10, Tables VII–VIII).
func Recognition(cfg Config) (*RecognitionResult, error) {
	cfg = cfg.withDefaults()
	o := crowd.Oracle{Seed: cfg.Seed}
	train, err := buildSets(cfg, datagen.TrainingSet, datagen.NumTrainingSets, o, false)
	if err != nil {
		return nil, err
	}
	var X [][]float64
	var y []bool
	for _, ls := range train {
		for j, n := range ls.nodes {
			X = append(X, n.Features.Slice())
			y = append(y, ls.labels[j])
		}
	}
	models := []ml.Classifier{bayes.New(), svm.New(svm.Options{}), dtree.New(dtree.Options{})}
	for _, m := range models {
		if err := m.Fit(X, y); err != nil {
			return nil, fmt.Errorf("fit %s: %w", m.Name(), err)
		}
	}

	test, err := buildSets(cfg, datagen.TestSet, len(datagen.TestSetNames), o, false)
	if err != nil {
		return nil, err
	}
	res := &RecognitionResult{
		Models:   []string{"Bayes", "SVM", "DT"},
		Datasets: datagen.TestSetNames,
	}
	for _, ls := range test {
		conf := make([]metrics.Confusion, len(models))
		perType := make([][]metrics.Confusion, len(chart.AllTypes))
		for ct := range perType {
			perType[ct] = make([]metrics.Confusion, len(models))
		}
		for j, n := range ls.nodes {
			feat := n.Features.Slice()
			actual := ls.labels[j]
			for mi, m := range models {
				pred := m.Predict(feat)
				conf[mi].Add(pred, actual)
				perType[int(n.Chart)][mi].Add(pred, actual)
			}
		}
		res.Confusion = append(res.Confusion, conf)
		res.PerType = append(res.PerType, perType)
	}
	return res, nil
}

// Averages returns the mean precision/recall/F1 per model over datasets
// (Fig. 10).
func (r *RecognitionResult) Averages() (precision, recall, f1 []float64) {
	nm := len(r.Models)
	precision = make([]float64, nm)
	recall = make([]float64, nm)
	f1 = make([]float64, nm)
	for mi := 0; mi < nm; mi++ {
		var p, rc, f float64
		for di := range r.Confusion {
			c := r.Confusion[di][mi]
			p += c.Precision()
			rc += c.Recall()
			f += c.F1()
		}
		n := float64(len(r.Confusion))
		precision[mi], recall[mi], f1[mi] = p/n, rc/n, f/n
	}
	return precision, recall, f1
}

// TypeAverages returns per-chart-type average precision/recall/F1 per
// model (Table VII). Indexed [chartType][model].
func (r *RecognitionResult) TypeAverages() (precision, recall, f1 [][]float64) {
	nct, nm := len(chart.AllTypes), len(r.Models)
	precision = mk2(nct, nm)
	recall = mk2(nct, nm)
	f1 = mk2(nct, nm)
	for ct := 0; ct < nct; ct++ {
		for mi := 0; mi < nm; mi++ {
			var p, rc, f float64
			n := 0
			for di := range r.PerType {
				c := r.PerType[di][ct][mi]
				if c.TP+c.FP+c.TN+c.FN == 0 {
					continue
				}
				p += c.Precision()
				rc += c.Recall()
				f += c.F1()
				n++
			}
			if n > 0 {
				precision[ct][mi], recall[ct][mi], f1[ct][mi] = p/float64(n), rc/float64(n), f/float64(n)
			}
		}
	}
	return precision, recall, f1
}

func mk2(a, b int) [][]float64 {
	out := make([][]float64, a)
	for i := range out {
		out[i] = make([]float64, b)
	}
	return out
}

// ---------------------------------------------------------------------------
// Selection quality (Fig. 11)

// SelectionResult holds NDCG per dataset per method, overall and per
// chart type.
type SelectionResult struct {
	Datasets []string
	Methods  []string // LearningToRank, PartialOrder, Hybrid
	// NDCG[d][m]; PerType[d][ct][m] (NaN-free: unavailable = -1)
	NDCG    [][]float64
	PerType [][][]float64
	Alpha   float64
}

// Selection trains LambdaMART on the 32 training datasets' crowd rankings
// and compares NDCG against the partial order and the hybrid on X1–X10
// (paper Fig. 11a, with per-chart-type breakdowns for 11b–e).
func Selection(cfg Config) (*SelectionResult, error) {
	cfg = cfg.withDefaults()
	o := crowd.Oracle{Seed: cfg.Seed}
	train, err := buildSets(cfg, datagen.TrainingSet, datagen.NumTrainingSets, o, true)
	if err != nil {
		return nil, err
	}
	// Split the 32 training sets: LambdaMART fits on the first 24 and the
	// hybrid weight α is learned on the held-out 8 — learning α on the
	// LTR-training sets would always favour the overfit LTR ranking.
	split := len(train) * 3 / 4
	if split < 1 {
		split = 1
	}
	var groups []lambdamart.Group
	for _, ls := range train[:split] {
		var g lambdamart.Group
		for j, n := range ls.nodes {
			g = append(g, lambdamart.Sample{Features: n.Features.Slice(), Relevance: ls.rel[j]})
		}
		groups = append(groups, g)
	}
	model := lambdamart.New(lambdamart.Options{Trees: cfg.LTRTrees, MaxDepth: 4})
	if err := model.Train(groups); err != nil {
		return nil, err
	}

	var hgroups []hybrid.TrainingGroup
	for _, ls := range train[split:] {
		if len(ls.nodes) < 2 {
			continue
		}
		hgroups = append(hgroups, hybrid.TrainingGroup{
			LTR:       model.Rank(featMatrix(ls.nodes)),
			PO:        poOrder(ls.nodes),
			Relevance: ls.rel,
		})
	}
	alpha, err := hybrid.LearnAlpha(hgroups, nil)
	if err != nil {
		return nil, err
	}

	test, err := buildSets(cfg, datagen.TestSet, len(datagen.TestSetNames), o, true)
	if err != nil {
		return nil, err
	}
	res := &SelectionResult{
		Datasets: datagen.TestSetNames,
		Methods:  []string{"LearningToRank", "PartialOrder", "Hybrid"},
		Alpha:    alpha,
	}
	for i := range test {
		// The paper's ranking ground truth exists only for charts the
		// crowd labelled good (§VI: pairwise comparisons are collected
		// "for good visualizations"), so ranking quality is measured over
		// the good subset.
		test[i] = goodSubset(test[i])
	}
	for _, ls := range test {
		ltrOrder := model.Rank(featMatrix(ls.nodes))
		po := poOrder(ls.nodes)
		hy, err := hybrid.Combine(ltrOrder, po, alpha)
		if err != nil {
			return nil, err
		}
		orders := [][]int{ltrOrder, po, hy}
		row := make([]float64, len(orders))
		for mi, ord := range orders {
			row[mi] = ndcgOfOrder(ord, ls.rel)
		}
		res.NDCG = append(res.NDCG, row)

		// Per chart type (Fig. 11b–e): rank within each type's subset.
		perType := make([][]float64, len(chart.AllTypes))
		for ct := range chart.AllTypes {
			var subset []int
			for i, n := range ls.nodes {
				if int(n.Chart) == ct {
					subset = append(subset, i)
				}
			}
			perType[ct] = []float64{-1, -1, -1}
			if len(subset) < 2 {
				continue
			}
			subNodes := make([]*vizql.Node, len(subset))
			subRel := make([]float64, len(subset))
			for k, i := range subset {
				subNodes[k] = ls.nodes[i]
				subRel[k] = ls.rel[i]
			}
			sLtr := model.Rank(featMatrix(subNodes))
			sPo := poOrder(subNodes)
			sHy, err := hybrid.Combine(sLtr, sPo, alpha)
			if err != nil {
				return nil, err
			}
			perType[ct] = []float64{
				ndcgOfOrder(sLtr, subRel),
				ndcgOfOrder(sPo, subRel),
				ndcgOfOrder(sHy, subRel),
			}
		}
		res.PerType = append(res.PerType, perType)
	}
	return res, nil
}

// MethodAverages returns the mean NDCG per method over datasets.
func (r *SelectionResult) MethodAverages() []float64 {
	out := make([]float64, len(r.Methods))
	for mi := range r.Methods {
		var s float64
		for di := range r.NDCG {
			s += r.NDCG[di][mi]
		}
		out[mi] = s / float64(len(r.NDCG))
	}
	return out
}

func featMatrix(nodes []*vizql.Node) [][]float64 {
	out := make([][]float64, len(nodes))
	for i, n := range nodes {
		out[i] = n.Features.Slice()
	}
	return out
}

// goodSubset restricts a labelled set to its crowd-approved charts (the
// population the paper collects ranking ground truth for). If fewer than
// two charts are good, the full set is kept so NDCG stays defined.
func goodSubset(ls labelledSet) labelledSet {
	out := labelledSet{table: ls.table}
	for j, n := range ls.nodes {
		if ls.labels[j] {
			out.nodes = append(out.nodes, n)
			out.labels = append(out.labels, true)
			if ls.rel != nil {
				out.rel = append(out.rel, ls.rel[j])
			}
		}
	}
	if len(out.nodes) < 2 {
		return ls
	}
	return out
}

func poOrder(nodes []*vizql.Node) []int {
	order, _, _ := rank.OrderCtx(context.Background(), nodes, factorsOf(nodes), rank.SelectOptions{Build: rank.BuildQuickSort})
	return order
}

func ndcgOfOrder(order []int, rel []float64) float64 {
	rels := make([]float64, len(order))
	for pos, idx := range order {
		rels[pos] = rel[idx]
	}
	return metrics.NDCGAt(rels)
}

// ---------------------------------------------------------------------------
// Efficiency (Fig. 12)

// EfficiencyRow is one dataset's timing under the four configurations of
// Fig. 12: {E, R} enumeration × {L, P} selection.
type EfficiencyRow struct {
	Dataset    string
	Candidates struct{ E, R int }
	// Durations: enumeration (shared per mode) and selection per method.
	EnumE, EnumR     time.Duration
	SelLofE, SelPofE time.Duration
	SelLofR, SelPofR time.Duration
}

// Total returns the end-to-end duration of a configuration ("EL", "EP",
// "RL", "RP").
func (r EfficiencyRow) Total(config string) time.Duration {
	switch config {
	case "EL":
		return r.EnumE + r.SelLofE
	case "EP":
		return r.EnumE + r.SelPofE
	case "RL":
		return r.EnumR + r.SelLofR
	case "RP":
		return r.EnumR + r.SelPofR
	default:
		return 0
	}
}

// Efficiency measures Fig. 12: end-to-end time per dataset for exhaustive
// vs rule-pruned enumeration crossed with learning-to-rank vs
// partial-order selection. Matching the paper's pipeline (Fig. 4 and the
// §VI-D explanation that "partial order can efficiently prune the bad
// ones while learning to rank must evaluate every visualization"), the
// partial-order path first drops candidates the recognition classifier
// rejects and ranks the survivors, while the LTR path scores the full
// candidate set.
func Efficiency(cfg Config, datasets []int) ([]EfficiencyRow, error) {
	cfg = cfg.withDefaults()
	o := crowd.Oracle{Seed: cfg.Seed}

	// Train a compact LTR model and the recognition tree on a few
	// training sets.
	train, err := buildSets(cfg, datagen.TrainingSet, 8, o, true)
	if err != nil {
		return nil, err
	}
	var groups []lambdamart.Group
	var X [][]float64
	var y []bool
	for _, ls := range train {
		var g lambdamart.Group
		for j, n := range ls.nodes {
			g = append(g, lambdamart.Sample{Features: n.Features.Slice(), Relevance: ls.rel[j]})
			X = append(X, n.Features.Slice())
			y = append(y, ls.labels[j])
		}
		groups = append(groups, g)
	}
	// The LTR side uses a production-size ensemble (RankLib-style
	// LambdaMART defaults run hundreds of trees), because Fig. 12's point
	// is that the LTR path must evaluate every candidate with the full
	// model while the partial order prunes first.
	model := lambdamart.New(lambdamart.Options{Trees: 600, MaxDepth: 6})
	if err := model.Train(groups); err != nil {
		return nil, err
	}
	recognizer := dtree.New(dtree.Options{})
	if err := recognizer.Fit(X, y); err != nil {
		return nil, err
	}

	if datasets == nil {
		datasets = make([]int, len(datagen.TestSetNames))
		for i := range datasets {
			datasets[i] = i
		}
	}
	selP := func(nodes []*vizql.Node) func() {
		return func() {
			kept := make([]*vizql.Node, 0, len(nodes)/4)
			for _, n := range nodes {
				if recognizer.Predict(n.Features.Slice()) {
					kept = append(kept, n)
				}
			}
			if len(kept) > 0 {
				// Selection wants a first page, not a total order; the
				// shortlist keeps the dominance graph small (§V-B's
				// second optimization in graph form).
				rank.OrderCtx(context.Background(), kept, factorsOf(kept), rank.SelectOptions{Build: rank.BuildQuickSort, MaxGraphNodes: 400})
			}
		}
	}
	var rows []EfficiencyRow
	for _, di := range datasets {
		t, err := datagen.TestSet(di, cfg.Scale)
		if err != nil {
			return nil, err
		}
		row := EfficiencyRow{Dataset: datagen.TestSetNames[di]}

		start := time.Now()
		eNodes := vizql.Dedupe(execute(t, vizql.EnumerateQueries(t)))
		row.EnumE = time.Since(start)
		row.Candidates.E = len(eNodes)

		start = time.Now()
		rNodes := vizql.Dedupe(ruleCandidates(t))
		row.EnumR = time.Since(start)
		row.Candidates.R = len(rNodes)

		row.SelLofE = timeIt(func() { model.Rank(featMatrix(eNodes)) })
		row.SelPofE = timeIt(selP(eNodes))
		row.SelLofR = timeIt(func() { model.Rank(featMatrix(rNodes)) })
		row.SelPofR = timeIt(selP(rNodes))
		rows = append(rows, row)
	}
	return rows, nil
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// ---------------------------------------------------------------------------
// Coverage (Table VI / Fig. 9)

// CoverageRow is one use case's result: how deep DeepEye's ranking must
// go to cover all the "real" charts of the use case.
type CoverageRow struct {
	Dataset    string
	Real       int // number of real-use-case charts
	Covered    int // how many the full ranking contains at all
	KNeeded    int // smallest k covering all real charts (0 if uncovered)
	Candidates int
}

// realCounts approximates Table V/VI's per-use-case chart counts (D3's 4
// charts and D1's 5 are stated in the paper; the rest are plausible
// dashboard sizes).
var realCounts = []int{5, 4, 4, 3, 4, 5, 4, 6, 3}

// Coverage measures Table VI: for each use case D1–D9, the "real" charts
// are the crowd's unanimous favourites (top hidden-score good charts);
// DeepEye ranks all candidates with the partial order, and we report the
// smallest k whose prefix covers every real chart.
func Coverage(cfg Config) ([]CoverageRow, error) {
	cfg = cfg.withDefaults()
	o := crowd.Oracle{Seed: cfg.Seed}
	var rows []CoverageRow
	for di := range datagen.UseCaseNames {
		t, err := datagen.UseCase(di, cfg.Scale)
		if err != nil {
			return nil, err
		}
		nodes := candidateSet(t, cfg.MaxPerTable)
		row := CoverageRow{Dataset: datagen.UseCaseNames[di], Candidates: len(nodes)}

		// Real charts: the crowd's favourites — the head of the merged
		// total order (the charts a practitioner actually published).
		crowdOrder := o.TotalOrder(nodes)
		nReal := realCounts[di]
		if nReal > len(crowdOrder) {
			nReal = len(crowdOrder)
		}
		row.Real = nReal
		realSet := make(map[int]bool, nReal)
		for _, idx := range crowdOrder[:nReal] {
			realSet[idx] = true
		}

		order := poOrder(nodes)
		kNeeded := 0
		found := 0
		for pos, idx := range order {
			if realSet[idx] {
				found++
				if found == nReal {
					kNeeded = pos + 1
					break
				}
			}
		}
		row.Covered = found
		row.KNeeded = kNeeded
		rows = append(rows, row)
	}
	return rows, nil
}

type scored struct {
	idx int
	s   float64
}

func sortScoredDesc(s []scored) {
	sort.SliceStable(s, func(a, b int) bool { return s[a].s > s[b].s })
}

// ---------------------------------------------------------------------------
// Corpus statistics (Tables III, IV)

// CorpusStats summarizes the 42-dataset corpus (Table III).
type CorpusStats struct {
	Datasets                         int
	MinTuples, MaxTuples             int
	AvgTuples                        float64
	MinColumns, MaxColumns           int
	Temporal, Categorical, Numerical int
}

// Table3 computes the corpus statistics at full (spec) size regardless of
// Scale, since Table III reports the corpus as collected.
func Table3() (*CorpusStats, error) {
	// Generate tiny instances to read schemas; tuple counts come from the
	// specs themselves via TestSetTuples/TrainingTuples.
	stats := &CorpusStats{MinTuples: 1 << 30, MinColumns: 1 << 30}
	add := func(tuples int, tab *dataset.Table) {
		stats.Datasets++
		if tuples < stats.MinTuples {
			stats.MinTuples = tuples
		}
		if tuples > stats.MaxTuples {
			stats.MaxTuples = tuples
		}
		stats.AvgTuples += float64(tuples)
		if c := tab.NumCols(); c < stats.MinColumns {
			stats.MinColumns = c
		}
		if c := tab.NumCols(); c > stats.MaxColumns {
			stats.MaxColumns = c
		}
		for _, col := range tab.Columns {
			switch col.Type {
			case dataset.Temporal:
				stats.Temporal++
			case dataset.Categorical:
				stats.Categorical++
			default:
				stats.Numerical++
			}
		}
	}
	for i := 0; i < datagen.NumTrainingSets; i++ {
		tab, err := datagen.TrainingSet(i, 0.01)
		if err != nil {
			return nil, err
		}
		add(datagen.TrainingTuples(i), tab)
	}
	for i := 0; i < len(datagen.TestSetNames); i++ {
		tab, err := datagen.TestSet(i, 0.01)
		if err != nil {
			return nil, err
		}
		add(datagen.TestSetTuples(i), tab)
	}
	stats.AvgTuples /= float64(stats.Datasets)
	return stats, nil
}

// Table4Row is one testing dataset's row of Table IV.
type Table4Row struct {
	Name    string
	Tuples  int
	Columns int
	Charts  int // crowd-labelled good charts
}

// Table4 regenerates Table IV: the 10 testing datasets with their
// good-chart counts under the crowd oracle.
func Table4(cfg Config) ([]Table4Row, error) {
	cfg = cfg.withDefaults()
	o := crowd.Oracle{Seed: cfg.Seed}
	var rows []Table4Row
	for i := range datagen.TestSetNames {
		t, err := datagen.TestSet(i, cfg.Scale)
		if err != nil {
			return nil, err
		}
		nodes := candidateSet(t, cfg.MaxPerTable)
		labels := o.LabelAll(nodes)
		good := 0
		for _, l := range labels {
			if l {
				good++
			}
		}
		rows = append(rows, Table4Row{
			Name:    datagen.TestSetNames[i],
			Tuples:  datagen.TestSetTuples(i),
			Columns: t.NumCols(),
			Charts:  good,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 1 walk-through

// Figure1Charts regenerates the paper's four walk-through charts over the
// FlyDelay table via the visualization language, returning the rendered
// nodes (used by the flightdelay example and a bench).
func Figure1Charts(cfg Config) ([]*deepeye.Visualization, error) {
	cfg = cfg.withDefaults()
	t, err := datagen.TestSet(9, cfg.Scale) // X10 FlyDelay
	if err != nil {
		return nil, err
	}
	sys := deepeye.New(deepeye.Options{})
	queries := []string{
		// Fig 1(a): arrival vs departure delay scatter.
		"VISUALIZE scatter SELECT departure_delay, arrival_delay FROM flights",
		// Fig 1(b): monthly passengers (stacking approximated by totals).
		"VISUALIZE bar SELECT scheduled, SUM(passengers) FROM flights BIN scheduled BY MONTH ORDER BY scheduled",
		// Fig 1(c): average departure delay by hour of day (Table II
		// reports |X'| = 24 for this chart).
		"VISUALIZE line SELECT scheduled, AVG(departure_delay) FROM flights BIN scheduled BY HOUR_OF_DAY ORDER BY scheduled",
		// Fig 1(d): average departure delay by day — the "bad" chart.
		"VISUALIZE line SELECT scheduled, AVG(departure_delay) FROM flights BIN scheduled BY DAY ORDER BY scheduled",
	}
	var out []*deepeye.Visualization
	for _, q := range queries {
		v, err := sys.Query(t, q)
		if err != nil {
			return nil, fmt.Errorf("figure 1 query %q: %w", q, err)
		}
		out = append(out, v)
	}
	return out, nil
}

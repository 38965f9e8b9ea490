package experiments

import (
	"context"
	"fmt"

	deepeye "github.com/deepeye/deepeye"

	"github.com/deepeye/deepeye/internal/crowd"
	"github.com/deepeye/deepeye/internal/datagen"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/metrics"
	"github.com/deepeye/deepeye/internal/ml"
	"github.com/deepeye/deepeye/internal/ml/bayes"
	"github.com/deepeye/deepeye/internal/ml/dtree"
	"github.com/deepeye/deepeye/internal/ml/svm"
	"github.com/deepeye/deepeye/internal/rank"
)

// CrossValResult holds k-fold recognition quality per model.
type CrossValResult struct {
	Models []string
	Folds  int
	// F1[fold][model]
	F1 [][]float64
}

// MeanStd returns the per-model mean and standard deviation of F1 across
// folds.
func (r *CrossValResult) MeanStd() (mean, std []float64) {
	nm := len(r.Models)
	mean = make([]float64, nm)
	std = make([]float64, nm)
	for mi := 0; mi < nm; mi++ {
		var s float64
		for _, fold := range r.F1 {
			s += fold[mi]
		}
		mean[mi] = s / float64(len(r.F1))
		var v float64
		for _, fold := range r.F1 {
			d := fold[mi] - mean[mi]
			v += d * d
		}
		if len(r.F1) > 1 {
			std[mi] = v / float64(len(r.F1)-1)
		}
	}
	return mean, std
}

// CrossValidation runs k-fold cross validation of the recognition
// classifiers over the full 42-dataset corpus (the paper's "we also
// conducted cross validation and got similar results", §VI). Folds are
// dataset-level: every dataset's candidates land entirely in one fold,
// so the evaluation measures cross-dataset generalization like Fig. 10.
func CrossValidation(cfg Config, folds int) (*CrossValResult, error) {
	cfg = cfg.withDefaults()
	if folds < 2 {
		folds = 5
	}
	o := crowd.Oracle{Seed: cfg.Seed}

	// Full 42-dataset corpus.
	var tables []*dataset.Table
	for i := 0; i < datagen.NumTrainingSets; i++ {
		t, err := datagen.TrainingSet(i, cfg.Scale)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	for i := 0; i < len(datagen.TestSetNames); i++ {
		t, err := datagen.TestSet(i, cfg.Scale)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	sets := make([]labelledSet, len(tables))
	for i, t := range tables {
		nodes := candidateSet(t, cfg.MaxPerTable)
		sets[i] = labelledSet{table: t, nodes: nodes, labels: o.LabelAll(nodes)}
	}
	if folds > len(sets) {
		folds = len(sets)
	}

	res := &CrossValResult{Models: []string{"Bayes", "SVM", "DT"}, Folds: folds}
	for f := 0; f < folds; f++ {
		var trainX [][]float64
		var trainY []bool
		var test []labelledSet
		for i, ls := range sets {
			if i%folds == f {
				test = append(test, ls)
				continue
			}
			for j, n := range ls.nodes {
				trainX = append(trainX, n.Features.Slice())
				trainY = append(trainY, ls.labels[j])
			}
		}
		if len(trainX) == 0 || len(test) == 0 {
			return nil, fmt.Errorf("experiments: fold %d is degenerate", f)
		}
		models := []ml.Classifier{bayes.New(), svm.New(svm.Options{}), dtree.New(dtree.Options{})}
		row := make([]float64, len(models))
		for mi, m := range models {
			if err := m.Fit(trainX, trainY); err != nil {
				return nil, fmt.Errorf("fold %d fit %s: %w", f, m.Name(), err)
			}
			var conf metrics.Confusion
			for _, ls := range test {
				for j, n := range ls.nodes {
					conf.Add(m.Predict(n.Features.Slice()), ls.labels[j])
				}
			}
			row[mi] = conf.F1()
		}
		res.F1 = append(res.F1, row)
	}
	return res, nil
}

// AblationRankingResult compares the §IV-C weight-aware recursive score
// S(v) against the unweighted topological-sort baseline the paper
// dismisses ("this method does not consider the weights on the edges").
type AblationRankingResult struct {
	Datasets                 []string
	WeightAware, Topological []float64 // NDCG per dataset
}

// Averages returns the mean NDCG of the two ranking strategies.
func (r *AblationRankingResult) Averages() (weightAware, topological float64) {
	for i := range r.WeightAware {
		weightAware += r.WeightAware[i]
		topological += r.Topological[i]
	}
	n := float64(len(r.WeightAware))
	return weightAware / n, topological / n
}

// AblationRanking measures the value of edge weights in the dominance
// graph: both strategies rank the same good-chart candidate sets of
// X1–X10 and are scored by NDCG against the crowd's relevance.
func AblationRanking(cfg Config) (*AblationRankingResult, error) {
	cfg = cfg.withDefaults()
	o := crowd.Oracle{Seed: cfg.Seed}
	test, err := buildSets(cfg, datagen.TestSet, len(datagen.TestSetNames), o, true)
	if err != nil {
		return nil, err
	}
	res := &AblationRankingResult{Datasets: datagen.TestSetNames}
	for i := range test {
		ls := goodSubset(test[i])
		built, _ := rank.BuildGraphCtx(context.Background(), ls.nodes, factorsOf(ls.nodes), rank.BuildQuickSort, 1)
		g := built.Reduce()
		res.WeightAware = append(res.WeightAware, ndcgOfOrder(g.TopK(len(ls.nodes)), ls.rel))
		res.Topological = append(res.Topological, ndcgOfOrder(g.TopologicalOrder(), ls.rel))
	}
	return res, nil
}

// Figure9FirstPage regenerates the paper's Fig. 9 screenshot analogue:
// DeepEye's first page (top-6) for the D3 Flight Statistics use case.
func Figure9FirstPage(cfg Config) ([]*deepeye.Visualization, error) {
	cfg = cfg.withDefaults()
	t, err := datagen.UseCase(2, cfg.Scale) // D3 Flight Statistics
	if err != nil {
		return nil, err
	}
	sys := deepeye.New(deepeye.Options{IncludeOneColumn: true})
	return sys.TopK(t, 6)
}

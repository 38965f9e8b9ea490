// Package metrics provides the evaluation measures used in DeepEye's
// experiments (§VI): precision, recall, and F-measure for visualization
// recognition, and NDCG for visualization selection, plus Kendall's τ as
// an auxiliary rank-agreement measure.
package metrics

import (
	"math"
	"sort"
)

// Confusion is a binary confusion matrix; the positive class is "good
// visualization".
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one prediction.
func (c *Confusion) Add(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && !actual:
		c.TN++
	default:
		c.FN++
	}
}

// Precision returns TP / (TP + FP), or 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP / (TP + FN), or 0 when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns the fraction of correct predictions.
func (c Confusion) Accuracy() float64 {
	n := c.TP + c.FP + c.TN + c.FN
	if n == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(n)
}

// DCG computes the discounted cumulative gain of a relevance sequence in
// ranked order, using the standard gain (2^rel − 1) / log2(i + 2).
func DCG(rels []float64, k int) float64 {
	if k <= 0 || k > len(rels) {
		k = len(rels)
	}
	var s float64
	for i := 0; i < k; i++ {
		s += (math.Pow(2, rels[i]) - 1) / math.Log2(float64(i)+2)
	}
	return s
}

// NDCG computes the normalized DCG@k of a ranked relevance sequence: DCG
// divided by the DCG of the ideal (descending) ordering, in [0, 1]. A
// list with no relevant items scores 1 by convention (nothing to get
// wrong).
func NDCG(rels []float64, k int) float64 {
	ideal := append([]float64(nil), rels...)
	sort.Sort(sort.Reverse(sort.Float64Slice(ideal)))
	idcg := DCG(ideal, k)
	if idcg == 0 {
		return 1
	}
	return DCG(rels, k) / idcg
}

// NDCGAt is NDCG over the full list (k = len).
func NDCGAt(rels []float64) float64 { return NDCG(rels, len(rels)) }

// KendallTau computes Kendall's τ-a between two rankings given as
// position slices: a[i] and b[i] are the positions of item i under the
// two rankings. Returns a value in [-1, 1]; 1 means identical order.
func KendallTau(a, b []int) float64 {
	n := len(a)
	if n != len(b) || n < 2 {
		return 0
	}
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			da := a[i] - a[j]
			db := b[i] - b[j]
			switch {
			case da*db > 0:
				concordant++
			case da*db < 0:
				discordant++
			}
		}
	}
	pairs := n * (n - 1) / 2
	return float64(concordant-discordant) / float64(pairs)
}

// MeanFloat returns the mean of a float slice (0 for empty input).
func MeanFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

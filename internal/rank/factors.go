// Package rank implements DeepEye's partial-order-based visualization
// ranking and selection (paper §IV): the three ranking factors —
// match quality M(v) (eq. 1–5), transformation quality Q(v) (eq. 6), and
// column importance W(v) (eq. 7–8) — the strict-dominance partial order
// (Def. 2), the dominance graph with edge weights (eq. 9) built naively,
// by quick-sort partitioning, or with a range tree, the weight-aware
// recursive score S(v), and top-k selection (Algorithm 1).
package rank

import (
	"context"
	"math"

	"github.com/deepeye/deepeye/internal/chart"
	"github.com/deepeye/deepeye/internal/pool"
	"github.com/deepeye/deepeye/internal/stats"
	"github.com/deepeye/deepeye/internal/transform"
	"github.com/deepeye/deepeye/internal/vizql"
)

// Factors are the per-node ranking factors, each normalized into [0, 1].
type Factors struct {
	M float64 // matching quality between data and chart (eq. 1–5)
	Q float64 // quality of the transformation (eq. 6)
	W float64 // importance of the node's columns (eq. 7–8)
}

// FactorOptions tunes factor computation.
type FactorOptions struct {
	// TrendThreshold is the minimum R² for a line chart's Y′ to count as
	// trending (eq. 4); default stats.DefaultTrendThreshold.
	TrendThreshold float64
	// PieMaxSlices is the distinct-count beyond which pie significance
	// decays (eq. 1); default 10.
	PieMaxSlices int
	// BarMaxBars is the distinct-count beyond which bar significance
	// decays (eq. 2); default 20.
	BarMaxBars int
}

func (o FactorOptions) withDefaults() FactorOptions {
	if o.TrendThreshold <= 0 {
		o.TrendThreshold = stats.DefaultTrendThreshold
	}
	if o.PieMaxSlices <= 0 {
		o.PieMaxSlices = 10
	}
	if o.BarMaxBars <= 0 {
		o.BarMaxBars = 20
	}
	return o
}

// rawM computes the un-normalized matching quality of eq. (1)–(4).
func rawM(n *vizql.Node, o FactorOptions) float64 {
	if n.Res == nil {
		return 0 // degenerate node: nothing was materialized
	}
	d := n.DistinctX()
	switch n.Chart {
	case chart.Pie:
		// Pie charts want part-to-whole: AVG breaks that, negatives are
		// undrawable, a single slice is vacuous; many slices decay; and
		// the slice distribution should be diverse (entropy term).
		if d <= 1 || n.Query.Spec.Agg == transform.AggAvg || n.MinY() < 0 {
			return 0
		}
		h := stats.NormalizedEntropy(n.Res.Y)
		if d <= o.PieMaxSlices {
			return h
		}
		return float64(o.PieMaxSlices) / float64(d) * h
	case chart.Bar:
		if d <= 1 {
			return 0
		}
		if d <= o.BarMaxBars {
			return 1
		}
		return float64(o.BarMaxBars) / float64(d)
	case chart.Scatter:
		// Scatter is only as good as the correlation it reveals (eq. 3);
		// with only a handful of points the fitted correlation is
		// meaningless (two points always correlate perfectly).
		if n.Res.Len() < 3 {
			return 0
		}
		return n.Corr
	case chart.Line:
		// Trend(Y) of eq. (4): the paper's binary "follows a
		// distribution" indicator, refined monotonically to the fitted R²
		// so equal-trending lines still separate; below the threshold the
		// R² is halved rather than zeroed, keeping weak trends ordered
		// (see DESIGN.md §4).
		if n.TrendR2 >= o.TrendThreshold {
			return n.TrendR2
		}
		return 0.5 * n.TrendR2
	default:
		return 0
	}
}

// rawQ computes the transformation quality of eq. (6):
// 1 − |X′|/|X| — aggressive, meaningful summarization scores high.
// Degenerate inputs (no materialized result, zero or negative row count)
// score 0 rather than escaping [0, 1] or panicking: a negative InputRows
// would flip the ratio's sign and yield q > 1.
func rawQ(n *vizql.Node) float64 {
	if n.Res == nil || n.InputRows <= 0 {
		return 0
	}
	q := 1 - float64(n.Res.Len())/float64(n.InputRows)
	if q < 0 {
		return 0
	}
	return q
}

// ComputeFactorsWorkersCtx computes normalized M, Q, W for a candidate
// set. The normalizations are set-relative (eq. 5 normalizes M per chart
// type, eq. 8 normalizes W over all nodes), so factors are only
// comparable within one candidate set.
//
// The raw per-node factor pass (the expensive part — rawM walks each
// node's transformed labels) fans out across at most workers goroutines
// (pool.Normalize) and re-checks ctx every 256 nodes. Each worker writes
// only its own index range and the normalizations run serially
// afterwards, so the result is bit-identical for every worker count.
func ComputeFactorsWorkersCtx(ctx context.Context, nodes []*vizql.Node, opts FactorOptions, workers int) ([]Factors, error) {
	o := opts.withDefaults()
	fs := make([]Factors, len(nodes))

	// Raw M and Q per node, one ctx check per 256-index block.
	err := pool.ForEachBlock(ctx, "factors", workers, len(nodes), 256, func(lo, hi int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			fs[i].M = rawM(nodes[i], o)
			fs[i].Q = rawQ(nodes[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Per-chart-type max normalization of M (eq. 5).
	maxM := map[chart.Type]float64{}
	for i, n := range nodes {
		if fs[i].M > maxM[n.Chart] {
			maxM[n.Chart] = fs[i].M
		}
	}
	for i, n := range nodes {
		if m := maxM[n.Chart]; m > 0 {
			fs[i].M /= m
		}
	}

	// Q (eq. 6) needs no normalization: it is already a ratio in [0, 1].

	// W: column importance (eq. 7) = share of candidate charts containing
	// the column; node weight sums its distinct columns, then max
	// normalization (eq. 8).
	colCount := map[string]int{}
	for _, n := range nodes {
		for _, c := range nodeColumns(n) {
			colCount[c]++
		}
	}
	total := float64(len(nodes))
	maxW := 0.0
	for i, n := range nodes {
		var w float64
		for _, c := range nodeColumns(n) {
			w += float64(colCount[c]) / total
		}
		fs[i].W = w
		if w > maxW {
			maxW = w
		}
	}
	if maxW > 0 {
		for i := range fs {
			fs[i].W /= maxW
		}
	}
	// Bound every factor into [0, 1]: a NaN correlation or other
	// degenerate input must never leak an out-of-range factor into the
	// dominance order, where it would break antisymmetry.
	for i := range fs {
		fs[i].M = clamp01(fs[i].M)
		fs[i].Q = clamp01(fs[i].Q)
		fs[i].W = clamp01(fs[i].W)
	}
	return fs, nil
}

// nodeColumns returns the distinct original columns of a node (one entry
// for one-column histograms where X == Y).
func nodeColumns(n *vizql.Node) []string {
	if n.XName == n.YName {
		return []string{n.XName}
	}
	return []string{n.XName, n.YName}
}

// Dominates reports a ⪰ b: a at least as good on every factor (Def. 2).
func Dominates(a, b Factors) bool {
	return a.M >= b.M && a.Q >= b.Q && a.W >= b.W
}

// StrictlyDominates reports a ≻ b: dominance with at least one strict
// inequality.
func StrictlyDominates(a, b Factors) bool {
	return Dominates(a, b) && (a.M > b.M || a.Q > b.Q || a.W > b.W)
}

// EdgeWeight is eq. (9): the mean factor advantage of u over v.
func EdgeWeight(u, v Factors) float64 {
	return ((u.M - v.M) + (u.Q - v.Q) + (u.W - v.W)) / 3
}

// equalFactors reports exact factor ties (used by the partition builder).
func equalFactors(a, b Factors) bool {
	return a.M == b.M && a.Q == b.Q && a.W == b.W
}

// clamp01 bounds a factor into [0, 1] against floating-point drift and
// degenerate inputs: NaN maps to 0 (math.Min/Max would propagate it,
// and a NaN factor is incomparable to everything, which breaks the
// partial order), +Inf to 1, −Inf to 0.
func clamp01(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return math.Max(0, math.Min(1, v))
}

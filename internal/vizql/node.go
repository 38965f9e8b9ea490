package vizql

import (
	"context"
	"fmt"
	"math"

	"github.com/deepeye/deepeye/internal/chart"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/feature"
	"github.com/deepeye/deepeye/internal/stats"
	"github.com/deepeye/deepeye/internal/transform"
)

// Node is a visualization node (paper Def. 1): the original data (X, Y),
// the transformed data (X′, Y′), the feature vector F, and the chart type
// T — everything recognition, ranking, and selection operate on.
type Node struct {
	Query Query
	Chart chart.Type

	// Original column metadata.
	XName, YName string
	XType, YType dataset.ColType
	InputRows    int // |X| of the original data

	// Transformed data (X′, Y′).
	Res *transform.Result
	// XOutType is the effective type of the X′ axis after transformation:
	// grouping keeps the input type, calendar binning keeps Temporal,
	// numeric binning keeps Numerical.
	XOutType dataset.ColType

	// Derived statistics.
	Corr      float64 // c(X′, Y′): max over the four correlation families
	TrendR2   float64 // best R² of the four trend fits of Y′ against X′
	TrendKind stats.TrendKind
	Features  feature.Vector

	// distinctX caches d(X′); 0 means "not yet computed" (a non-empty
	// result always has at least one distinct label). The batch executor
	// fills it at construction so the ranking workers never write it.
	distinctX int
}

// DistinctX returns d(X′).
func (n *Node) DistinctX() int {
	if n.distinctX == 0 {
		n.distinctX = distinctLabels(n.Res.XLabels)
	}
	return n.distinctX
}

// MinY returns min(Y′), or 0 for empty results.
func (n *Node) MinY() float64 {
	if len(n.Res.Y) == 0 {
		return 0
	}
	m := n.Res.Y[0]
	for _, v := range n.Res.Y[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Data materializes the node as a renderable chart.
func (n *Node) Data() *chart.Data {
	d := &chart.Data{
		Type:    n.Chart,
		Title:   fmt.Sprintf("%s vs %s", yTitle(n), n.XName),
		XName:   n.XName,
		YName:   yTitle(n),
		XLabels: n.Res.XLabels,
		Y:       n.Res.Y,
	}
	if n.XOutType != dataset.Categorical {
		ordered := true
		for _, o := range n.Res.XOrder {
			if math.IsNaN(o) {
				ordered = false
				break
			}
		}
		if ordered {
			d.XNums = n.Res.XOrder
		}
	}
	return d
}

func yTitle(n *Node) string {
	if n.Query.Spec.Agg == transform.AggNone {
		return n.YName
	}
	return fmt.Sprintf("%s(%s)", n.Query.Spec.Agg, n.YName)
}

// Execute runs a query over a table and materializes the visualization
// node. It validates column references and transform/type compatibility
// but deliberately does not judge chart quality — that is the job of the
// recognizer, the rules, and the ranking factors.
func Execute(t *dataset.Table, q Query) (*Node, error) {
	return ExecuteCtx(context.Background(), t, q)
}

// ExecuteCtx is Execute with cancellation. A query runs in three phases
// — the transform pass, the sort, and the derived statistics — each at
// most one sweep over the data; ctx is re-checked between phases so the
// longest uninterruptible stretch is a single sweep even on wide,
// high-cardinality tables.
func ExecuteCtx(ctx context.Context, t *dataset.Table, q Query) (*Node, error) {
	x := t.Column(q.X)
	if x == nil {
		return nil, fmt.Errorf("vizql: unknown column %q", q.X)
	}
	y := t.Column(q.Y)
	if y == nil {
		return nil, fmt.Errorf("vizql: unknown column %q", q.Y)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// WHERE predicates restrict the row set before the transform; the
	// original table columns are never mutated. SourceRows of a filtered
	// result index into the filtered row order.
	x, y, err := applyQueryFilters(t, q, x, y)
	if err != nil {
		return nil, err
	}
	res, err := transform.Apply(x, y, q.Spec)
	if err != nil {
		return nil, err
	}
	if res.Len() == 0 {
		return nil, fmt.Errorf("vizql: query produced no data")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	transform.OrderBy(res, q.Order)
	applyDescLimit(res, q)

	n := &Node{
		Query:     q,
		Chart:     q.Viz,
		XName:     q.X,
		YName:     q.Y,
		XType:     x.Type,
		YType:     y.Type,
		InputRows: res.InputRows,
		Res:       res,
		XOutType:  outType(x.Type, q.Spec.Kind),
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fillDerived(n)
	return n, nil
}

// applyDescLimit reverses the sorted bucket order (ORDER BY … DESC) and
// truncates to the LIMIT. Both operate on the result's own slices —
// ExecuteCtx materializes a fresh Result per call, so no sharing is at
// risk — and DESC without an ORDER BY axis is a no-op by construction
// (the grammar only admits DESC after ORDER BY).
func applyDescLimit(res *transform.Result, q Query) {
	if q.Desc && q.Order != transform.SortNone {
		for i, j := 0, res.Len()-1; i < j; i, j = i+1, j-1 {
			res.XLabels[i], res.XLabels[j] = res.XLabels[j], res.XLabels[i]
			res.XOrder[i], res.XOrder[j] = res.XOrder[j], res.XOrder[i]
			res.Y[i], res.Y[j] = res.Y[j], res.Y[i]
			if res.SourceRows != nil {
				res.SourceRows[i], res.SourceRows[j] = res.SourceRows[j], res.SourceRows[i]
			}
		}
	}
	if q.Limit > 0 && res.Len() > q.Limit {
		res.XLabels = res.XLabels[:q.Limit]
		res.XOrder = res.XOrder[:q.Limit]
		res.Y = res.Y[:q.Limit]
		if res.SourceRows != nil {
			res.SourceRows = res.SourceRows[:q.Limit]
		}
	}
}

// outType gives the effective type of X′ given the input type and the
// transform kind.
func outType(in dataset.ColType, kind transform.Kind) dataset.ColType {
	switch kind {
	case transform.KindBinUnit:
		return dataset.Temporal
	case transform.KindBinCount, transform.KindBinUDF:
		return dataset.Numerical
	default:
		return in
	}
}

// fillDerived computes correlation, trend, and the feature vector from the
// transformed series.
func fillDerived(n *Node) {
	xs := n.Res.XOrder
	ys := n.Res.Y
	if n.XOutType != dataset.Categorical {
		// Drop NaN order keys defensively.
		cx := make([]float64, 0, len(xs))
		cy := make([]float64, 0, len(ys))
		for i := range xs {
			if !math.IsNaN(xs[i]) {
				cx = append(cx, xs[i])
				cy = append(cy, ys[i])
			}
		}
		n.Corr, n.TrendKind, n.TrendR2 = feature.CorrelationTrend(cx, cy)
	} else {
		n.Corr = 0
		n.TrendKind, n.TrendR2 = stats.TrendSeries(ys)
	}
	fillFeatures(n)
}

// fillFeatures assembles the feature vector given already-computed Corr;
// it is the cheap part of fillDerived, reused by the batch executor when
// correlation and trend come from a cache.
func fillFeatures(n *Node) {
	var xi feature.ColumnInfo
	if n.XOutType != dataset.Categorical {
		xi = feature.FromSeries(nonNaN(n.Res.XOrder), n.XOutType)
	} else {
		xi = feature.FromLabels(n.Res.XLabels)
	}
	// |X′| must reflect the transformed cardinality even when some order
	// keys are NaN.
	xi.N = n.Res.Len()
	xi.Distinct = n.DistinctX()
	yi := feature.FromSeries(n.Res.Y, dataset.Numerical)
	n.Features = feature.Extract(xi, yi, n.Corr, n.Chart)
}

func nonNaN(vals []float64) []float64 {
	out := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// Package rules implements DeepEye's expert decision rules for meaningful
// visualizations (paper §V-A) and the rule-driven candidate enumerator of
// §V-B. The rules prune the search space before any ranking happens —
// visualizations "that humans will never generate" are never materialized.
//
// Three rule families, driven purely by column types and correlation:
//
//	Transformation: Cat → GROUP; Num → BIN; Tem → GROUP or BIN;
//	                AGG(Y) ∈ {SUM, AVG, CNT} when Y is numerical, else CNT.
//	Sorting:        ORDER BY X when X is Num/Tem; ORDER BY Y when Y is Num.
//	Visualization:  Cat×Num → bar/pie; Num×Num → line/bar (+scatter when
//	                correlated); Tem×Num → line.
package rules

import (
	"context"

	"github.com/deepeye/deepeye/internal/chart"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/stats"
	"github.com/deepeye/deepeye/internal/transform"
	"github.com/deepeye/deepeye/internal/vizql"
)

// CorrelationThreshold is the |c(X,Y)| above which two numerical columns
// count as correlated for the scatter-chart visualization rule.
const CorrelationThreshold = 0.5

// TransformSpecs returns the transformation rules' output for an (X, Y)
// column-type pair: every meaningful transform spec (paper §V-A.1). An
// empty slice means no rule fires (e.g. nothing can go on the y-axis).
func TransformSpecs(xt, yt dataset.ColType) []transform.Spec {
	aggs := []transform.Agg{transform.AggCnt}
	if yt == dataset.Numerical {
		aggs = []transform.Agg{transform.AggSum, transform.AggAvg, transform.AggCnt}
	}
	var kinds []transform.Spec
	switch xt {
	case dataset.Categorical:
		kinds = []transform.Spec{{Kind: transform.KindGroup}}
	case dataset.Numerical:
		kinds = []transform.Spec{
			{Kind: transform.KindBinCount, N: transform.DefaultBinCount},
			{Kind: transform.KindBinUDF, UDF: vizql.DefaultUDF},
		}
	case dataset.Temporal:
		kinds = []transform.Spec{{Kind: transform.KindGroup}}
		for _, u := range transform.AllBinUnits {
			kinds = append(kinds, transform.Spec{Kind: transform.KindBinUnit, Unit: u})
		}
		for _, u := range transform.PeriodicBinUnits {
			kinds = append(kinds, transform.Spec{Kind: transform.KindBinUnit, Unit: u})
		}
	}
	var out []transform.Spec
	for _, k := range kinds {
		for _, a := range aggs {
			s := k
			s.Agg = a
			out = append(out, s)
		}
	}
	// Raw pass-through is meaningful only for Num×Num (scatter/line over
	// raw points); the visualization rules gate the chart types.
	if xt == dataset.Numerical && yt == dataset.Numerical {
		out = append(out, transform.Spec{Kind: transform.KindNone, Agg: transform.AggNone})
	}
	return out
}

// SortAxes returns the sorting rules' output: which ORDER BY choices are
// meaningful for the (post-transform) x type and the y type (always
// numerical after aggregation). SortNone is always allowed.
func SortAxes(xOut dataset.ColType) []transform.SortAxis {
	axes := []transform.SortAxis{transform.SortNone}
	if xOut == dataset.Numerical || xOut == dataset.Temporal {
		axes = append(axes, transform.SortX)
	}
	// Y′ is numerical for every meaningful transform (aggregates and raw
	// numeric pass-through), so ORDER BY Y always fires.
	axes = append(axes, transform.SortY)
	return axes
}

// ChartTypes returns the visualization rules' output: the chart types that
// can meaningfully draw an x axis of type xOut against a numerical y.
// correlated reports whether |c(X,Y)| exceeds CorrelationThreshold, which
// additionally enables scatter for Num×Num (paper §V-A.3).
func ChartTypes(xOut dataset.ColType, correlated bool) []chart.Type {
	switch xOut {
	case dataset.Categorical:
		return []chart.Type{chart.Bar, chart.Pie}
	case dataset.Numerical:
		types := []chart.Type{chart.Line, chart.Bar}
		if correlated {
			types = append(types, chart.Scatter)
		}
		return types
	case dataset.Temporal:
		return []chart.Type{chart.Line}
	default:
		return nil
	}
}

// xOutType mirrors the executor's effective-type computation: grouping
// keeps the input type, calendar binning keeps Temporal, numeric binning
// yields ordered numeric buckets.
func xOutType(in dataset.ColType, kind transform.Kind) dataset.ColType {
	switch kind {
	case transform.KindBinUnit:
		return dataset.Temporal
	case transform.KindBinCount, transform.KindBinUDF:
		return dataset.Numerical
	default:
		return in
	}
}

// EnumerateQueriesCtx generates the rule-pruned candidate set — the "R"
// configuration of Fig. 12. It walks every ordered column pair (and
// every single column for one-column histograms), applies the
// transformation rules, the sorting rules, and the visualization rules,
// and emits only candidates all three families accept.
//
// Correlation gating for scatter requires data, not just types; the
// enumerator estimates c(X, Y) on the raw columns once per pair. ctx is
// checked once per ordered column pair, so wide tables return ctx.Err()
// promptly.
func EnumerateQueriesCtx(ctx context.Context, t *dataset.Table) ([]vizql.Query, error) {
	var out []vizql.Query
	for i, x := range t.Columns {
		for j, y := range t.Columns {
			if i == j {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out = append(out, enumeratePair(t, x, y)...)
		}
	}
	out = append(out, EnumerateOneColumnQueries(t)...)
	return out, nil
}

func enumeratePair(t *dataset.Table, x, y *dataset.Column) []vizql.Query {
	var out []vizql.Query
	specs := TransformSpecs(x.Type, y.Type)
	if len(specs) == 0 {
		return nil
	}
	var correlated bool
	if x.Type == dataset.Numerical && y.Type == dataset.Numerical {
		correlated = rawCorrelated(x, y)
	}
	for _, spec := range specs {
		xo := xOutType(x.Type, spec.Kind)
		for _, typ := range ChartTypes(xo, correlated) {
			// Raw pass-through drawing bar charts of thousands of points
			// is never meaningful; restrict raw to scatter/line. And the
			// scatter rule of §V-A reads raw correlated pairs — a scatter
			// of a handful of aggregated buckets shows nothing (two
			// points always "correlate" perfectly).
			if spec.Kind == transform.KindNone && typ == chart.Bar {
				continue
			}
			if spec.Kind != transform.KindNone && typ == chart.Scatter {
				continue
			}
			for _, axis := range SortAxes(xo) {
				out = append(out, vizql.Query{
					Viz: typ, X: x.Name, Y: y.Name, From: t.Name,
					Spec: spec, Order: axis,
				})
			}
		}
	}
	return out
}

// EnumerateOneColumnQueries applies the rules to single-column histograms:
// bucket the column per the transformation rules and count.
func EnumerateOneColumnQueries(t *dataset.Table) []vizql.Query {
	var out []vizql.Query
	for _, c := range t.Columns {
		specs := TransformSpecs(c.Type, c.Type)
		for _, spec := range specs {
			if spec.Agg != transform.AggCnt {
				continue
			}
			xo := xOutType(c.Type, spec.Kind)
			for _, typ := range ChartTypes(xo, false) {
				for _, axis := range SortAxes(xo) {
					out = append(out, vizql.Query{
						Viz: typ, X: c.Name, Y: c.Name, From: t.Name,
						Spec: spec, Order: axis,
					})
				}
			}
		}
	}
	return out
}

// rawCorrelated estimates whether two numerical columns are correlated,
// sampling long columns for speed (the estimate gates scatter charts
// only; the exact correlation is recomputed per node downstream).
func rawCorrelated(x, y *dataset.Column) bool {
	const maxSample = 2048
	xs := make([]float64, 0, maxSample)
	ys := make([]float64, 0, maxSample)
	n := x.Len()
	step := 1
	if n > maxSample {
		step = n / maxSample
	}
	xn, yn := x.NumsSlice(), y.NumsSlice()
	for i := 0; i < n; i += step {
		if x.IsNull(i) || y.IsNull(i) {
			continue
		}
		xs = append(xs, xn[i])
		ys = append(ys, yn[i])
	}
	if len(xs) < 3 {
		return false
	}
	c, _ := stats.Correlation(xs, ys)
	return c >= CorrelationThreshold
}

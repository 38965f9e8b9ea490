package deepeye

import (
	"sync"

	"github.com/deepeye/deepeye/internal/chart"
	"github.com/deepeye/deepeye/internal/rank"
	"github.com/deepeye/deepeye/internal/vizql"
)

// Visualization is one ranked chart: the query that produced it, its data,
// and renderers.
type Visualization struct {
	// Rank is the 1-based position in the returned top-k (0 for charts
	// produced directly by Query).
	Rank int
	// Query is the visualization-language text that regenerates the chart.
	Query string
	// Chart is the visualization type (bar, line, pie, scatter).
	Chart string
	// Score is the ranking score under the configured method.
	Score float64

	node *vizql.Node

	explainM, explainQ, explainW float64
	hasFactors                   bool

	// vega memoizes VegaLite: a Visualization does not change once it
	// is returned, so its spec is rendered at most once, however many
	// requests its cached answer serves.
	vegaOnce sync.Once
	vega     []byte
	vegaErr  error
}

func newVisualization(n *vizql.Node, score float64, rank int) *Visualization {
	return &Visualization{
		Rank:  rank,
		Query: n.Query.String(),
		Chart: n.Chart.String(),
		Score: score,
		node:  n,
	}
}

// XName returns the x-axis column.
func (v *Visualization) XName() string { return v.node.XName }

// YName returns the y-axis column.
func (v *Visualization) YName() string { return v.node.YName }

// Points returns the number of plotted points / bars / slices.
func (v *Visualization) Points() int { return v.node.Res.Len() }

// Data returns the materialized series: display labels and y values.
func (v *Visualization) Data() (labels []string, ys []float64) {
	return v.node.Res.XLabels, v.node.Res.Y
}

// RenderASCII renders the chart for a terminal.
func (v *Visualization) RenderASCII() string {
	return chart.RenderASCII(v.node.Data(), chart.RenderOptions{})
}

// RenderASCIISize renders with explicit dimensions.
func (v *Visualization) RenderASCIISize(width, height int) string {
	return chart.RenderASCII(v.node.Data(), chart.RenderOptions{Width: width, Height: height})
}

// VegaLite exports the chart as a Vega-Lite v5 JSON specification. The
// spec is rendered on the first call and every call returns the same
// bytes, so they are read-only, like every cached result.
func (v *Visualization) VegaLite() ([]byte, error) {
	v.vegaOnce.Do(func() { v.vega, v.vegaErr = chart.VegaLite(v.node.Data()) })
	return v.vega, v.vegaErr
}

// Node exposes the underlying visualization node for advanced callers
// (features, transformed series, correlation/trend diagnostics).
func (v *Visualization) Node() *vizql.Node { return v.node }

// Explanation reports why a chart ranked where it did: the paper's three
// ranking factors (when the partial order computed them) and the node's
// statistical diagnostics.
type Explanation struct {
	// M, Q, W are the §IV-B factors, normalized into [0, 1] relative to
	// this ranking's candidate set; HasFactors reports whether the
	// configured method computed them (false for pure learning-to-rank).
	M, Q, W    float64
	HasFactors bool
	// Correlation is c(X′, Y′), the max over the four correlation
	// families; TrendR2 and Trend describe the best trend fit of eq. (4).
	Correlation float64
	TrendR2     float64
	Trend       string
}

func (v *Visualization) attachFactors(f rank.Factors) {
	v.explainM, v.explainQ, v.explainW = f.M, f.Q, f.W
	v.hasFactors = true
}

// Explain returns the ranking explanation for this chart.
func (v *Visualization) Explain() Explanation {
	return Explanation{
		M: v.explainM, Q: v.explainQ, W: v.explainW,
		HasFactors:  v.hasFactors,
		Correlation: v.node.Corr,
		TrendR2:     v.node.TrendR2,
		Trend:       v.node.TrendKind.String(),
	}
}

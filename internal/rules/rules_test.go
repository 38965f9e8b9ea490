package rules

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/deepeye/deepeye/internal/chart"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/transform"
	"github.com/deepeye/deepeye/internal/vizql"
)

func mixedTable(t *testing.T) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	n := 300
	base := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	cats := make([]string, n)
	times := make([]time.Time, n)
	a := make([]float64, n)
	b := make([]float64, n)
	noise := make([]float64, n)
	for i := 0; i < n; i++ {
		cats[i] = []string{"UA", "AA", "MQ"}[rng.Intn(3)]
		times[i] = base.Add(time.Duration(rng.Intn(300*24)) * time.Hour)
		a[i] = rng.Float64() * 100
		b[i] = 2*a[i] + rng.NormFloat64() // strongly correlated with a
		noise[i] = rng.Float64() * 100
	}
	tab, err := dataset.New("mix", []*dataset.Column{
		dataset.CatColumn("carrier", cats),
		dataset.TimeColumn("when", times),
		dataset.NumColumn("a", a),
		dataset.NumColumn("b", b),
		dataset.NumColumn("noise", noise),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestTransformSpecsCategorical(t *testing.T) {
	specs := TransformSpecs(dataset.Categorical, dataset.Numerical)
	if len(specs) != 3 {
		t.Fatalf("specs = %d, want 3 (GROUP × {SUM,AVG,CNT})", len(specs))
	}
	for _, s := range specs {
		if s.Kind != transform.KindGroup {
			t.Errorf("categorical x must group, got %v", s.Kind)
		}
	}
	// Non-numeric y: only CNT.
	specs = TransformSpecs(dataset.Categorical, dataset.Categorical)
	if len(specs) != 1 || specs[0].Agg != transform.AggCnt {
		t.Errorf("cat×cat = %v", specs)
	}
}

func TestTransformSpecsNumerical(t *testing.T) {
	specs := TransformSpecs(dataset.Numerical, dataset.Numerical)
	// 2 bin kinds × 3 aggs + raw = 7.
	if len(specs) != 7 {
		t.Fatalf("specs = %d, want 7", len(specs))
	}
	for _, s := range specs {
		if s.Kind == transform.KindGroup || s.Kind == transform.KindBinUnit {
			t.Errorf("numerical x cannot %v", s.Kind)
		}
	}
}

func TestTransformSpecsTemporal(t *testing.T) {
	specs := TransformSpecs(dataset.Temporal, dataset.Numerical)
	// (1 group + 7 absolute units + 3 periodic units) × 3 aggs = 33.
	if len(specs) != 33 {
		t.Fatalf("specs = %d, want 33", len(specs))
	}
}

func TestSortAxes(t *testing.T) {
	if axes := SortAxes(dataset.Categorical); len(axes) != 2 {
		t.Errorf("categorical axes = %v (no ORDER BY X on categories)", axes)
	}
	if axes := SortAxes(dataset.Numerical); len(axes) != 3 {
		t.Errorf("numerical axes = %v", axes)
	}
	if axes := SortAxes(dataset.Temporal); len(axes) != 3 {
		t.Errorf("temporal axes = %v", axes)
	}
}

func TestChartTypes(t *testing.T) {
	ct := ChartTypes(dataset.Categorical, false)
	if len(ct) != 2 || ct[0] != chart.Bar || ct[1] != chart.Pie {
		t.Errorf("cat charts = %v", ct)
	}
	ct = ChartTypes(dataset.Numerical, false)
	if len(ct) != 2 {
		t.Errorf("num charts = %v", ct)
	}
	ct = ChartTypes(dataset.Numerical, true)
	if len(ct) != 3 || ct[2] != chart.Scatter {
		t.Errorf("correlated num charts = %v", ct)
	}
	ct = ChartTypes(dataset.Temporal, false)
	if len(ct) != 1 || ct[0] != chart.Line {
		t.Errorf("tem charts = %v", ct)
	}
}

func TestEnumerateQueriesAllExecutable(t *testing.T) {
	tab := mixedTable(t)
	qs := enumerate(t, tab)
	if len(qs) == 0 {
		t.Fatal("no candidates")
	}
	for _, q := range qs {
		if err := vizql.ValidateQuery(tab, q); err != nil {
			t.Fatalf("rule-generated query invalid: %s: %v", q.Key(), err)
		}
		if _, err := vizql.Execute(tab, q); err != nil {
			t.Fatalf("rule-generated query failed: %s: %v", q.Key(), err)
		}
	}
}

func TestEnumerateSmallerThanExhaustive(t *testing.T) {
	tab := mixedTable(t)
	ruleQs := enumerate(t, tab)
	fullQs := vizql.EnumerateQueries(tab)
	if len(ruleQs) >= len(fullQs) {
		t.Errorf("rules should prune: %d vs %d", len(ruleQs), len(fullQs))
	}
}

func TestScatterGatedOnCorrelation(t *testing.T) {
	tab := mixedTable(t)
	qs := enumerate(t, tab)
	sawCorrelatedScatter := false
	for _, q := range qs {
		if q.Viz != chart.Scatter {
			continue
		}
		if q.X == "a" && q.Y == "b" {
			sawCorrelatedScatter = true
		}
		if (q.X == "a" && q.Y == "noise") || (q.X == "noise" && q.Y == "a") {
			t.Errorf("scatter emitted for uncorrelated pair %s-%s", q.X, q.Y)
		}
	}
	if !sawCorrelatedScatter {
		t.Error("no scatter for strongly correlated pair a-b")
	}
}

func TestTemporalOnlyLineCharts(t *testing.T) {
	tab := mixedTable(t)
	for _, q := range enumerate(t, tab) {
		if q.X == "when" && q.Spec.Kind == transform.KindBinUnit && q.Viz != chart.Line {
			t.Errorf("temporal x must draw line, got %v (%s)", q.Viz, q.Key())
		}
	}
}

func TestAcceptsAgreesWithEnumerator(t *testing.T) {
	tab := mixedTable(t)
	accepted := make(map[string]bool)
	for _, q := range enumerate(t, tab) {
		accepted[q.Key()] = true
		if !Accepts(tab, q) {
			t.Fatalf("enumerated query rejected by Accepts: %s", q.Key())
		}
	}
	// Completeness (§V-C): every exhaustive candidate Accepts passes is in
	// the enumerated set (same DefaultBinCount/UDF parameterization).
	for _, q := range vizql.EnumerateQueries(tab) {
		if Accepts(tab, q) && !accepted[q.Key()] {
			t.Fatalf("Accepts passes but enumerator missed: %s", q.Key())
		}
	}
}

func TestAcceptsRejectsBadQueries(t *testing.T) {
	tab := mixedTable(t)
	bad := []vizql.Query{
		// Pie of temporal bins.
		{Viz: chart.Pie, X: "when", Y: "a", Spec: transform.Spec{Kind: transform.KindBinUnit, Unit: transform.ByMonth, Agg: transform.AggSum}},
		// Grouping a numerical column.
		{Viz: chart.Bar, X: "a", Y: "b", Spec: transform.Spec{Kind: transform.KindGroup, Agg: transform.AggSum}},
		// Sorting categories on the x-axis is fine, but unknown column is not.
		{Viz: chart.Bar, X: "nope", Y: "a", Spec: transform.Spec{Kind: transform.KindGroup, Agg: transform.AggSum}},
		// Scatter on uncorrelated columns.
		{Viz: chart.Scatter, X: "noise", Y: "a", Spec: transform.Spec{Kind: transform.KindNone, Agg: transform.AggNone}},
		// SUM over a categorical y.
		{Viz: chart.Bar, X: "carrier", Y: "carrier", Spec: transform.Spec{Kind: transform.KindGroup, Agg: transform.AggSum}},
	}
	for _, q := range bad {
		if Accepts(tab, q) {
			t.Errorf("Accepts(%s) = true, want false", q.Key())
		}
	}
}

func TestOneColumnQueriesAreHistograms(t *testing.T) {
	tab := mixedTable(t)
	for _, q := range EnumerateOneColumnQueries(tab) {
		if q.X != q.Y {
			t.Errorf("one-column query with X != Y: %s", q.Key())
		}
		if q.Spec.Agg != transform.AggCnt {
			t.Errorf("one-column query must CNT: %s", q.Key())
		}
		if _, err := vizql.Execute(tab, q); err != nil {
			t.Errorf("one-column query failed: %s: %v", q.Key(), err)
		}
	}
}

func enumerate(t *testing.T, tab *dataset.Table) []vizql.Query {
	t.Helper()
	qs, err := EnumerateQueriesCtx(context.Background(), tab)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// Accepts reports whether a single query conforms to all three rule
// families — the rule-based analogue of the ML recognizer, and the
// oracle of the enumerator's completeness (§V-C).
func Accepts(t *dataset.Table, q vizql.Query) bool {
	x := t.Column(q.X)
	y := t.Column(q.Y)
	if x == nil || y == nil {
		return false
	}
	// Transformation rules.
	okSpec := false
	for _, s := range TransformSpecs(x.Type, y.Type) {
		if sameSpec(s, q.Spec) {
			okSpec = true
			break
		}
	}
	if !okSpec {
		return false
	}
	if q.X == q.Y && q.Spec.Agg != transform.AggCnt {
		return false
	}
	xo := xOutType(x.Type, q.Spec.Kind)
	// Visualization rules.
	correlated := x.Type == dataset.Numerical && y.Type == dataset.Numerical && rawCorrelated(x, y)
	okType := false
	for _, typ := range ChartTypes(xo, correlated) {
		if typ == q.Viz {
			okType = true
			break
		}
	}
	if !okType {
		return false
	}
	if q.Spec.Kind == transform.KindNone && q.Viz == chart.Bar {
		return false
	}
	if q.Spec.Kind != transform.KindNone && q.Viz == chart.Scatter {
		return false
	}
	// Sorting rules.
	for _, axis := range SortAxes(xo) {
		if axis == q.Order {
			return true
		}
	}
	return false
}

func sameSpec(a, b transform.Spec) bool {
	if a.Kind != b.Kind || a.Agg != b.Agg {
		return false
	}
	switch a.Kind {
	case transform.KindBinUnit:
		return a.Unit == b.Unit
	case transform.KindBinCount:
		return a.N == b.N
	case transform.KindBinUDF:
		return a.UDF == b.UDF
	default:
		return true
	}
}

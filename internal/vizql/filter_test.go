package vizql

import (
	"context"
	"strings"
	"testing"

	"github.com/deepeye/deepeye/internal/chart"
	"github.com/deepeye/deepeye/internal/transform"
)

func TestParseWhereLimitDescRoundTrip(t *testing.T) {
	srcs := []string{
		"VISUALIZE bar\nSELECT carrier, SUM(passengers)\nFROM flights\nWHERE carrier != \"MQ\"\nGROUP BY carrier",
		"VISUALIZE line\nSELECT scheduled, AVG(departure_delay)\nFROM flights\nWHERE YEAR(scheduled) != 2019\nBIN scheduled BY MONTH\nORDER BY scheduled",
		"VISUALIZE bar\nSELECT carrier, SUM(passengers)\nFROM flights\nWHERE passengers > 100 AND carrier = \"UA\"\nGROUP BY carrier\nORDER BY SUM(passengers) DESC\nLIMIT 3",
		"VISUALIZE scatter\nSELECT departure_delay, arrival_delay\nFROM flights\nWHERE departure_delay >= -5\nLIMIT 50",
	}
	for _, src := range srcs {
		q, err := Parse(src, nil)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		q2, err := Parse(q.String(), nil)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", q.String(), err)
		}
		if q.Key() != q2.Key() {
			t.Errorf("round trip changed key: %q -> %q", q.Key(), q2.Key())
		}
	}
}

func TestParseWhereRejects(t *testing.T) {
	bad := []string{
		"VISUALIZE bar\nSELECT carrier, CNT(carrier)\nFROM flights\nWHERE carrier ~ \"UA\"\nGROUP BY carrier",
		"VISUALIZE bar\nSELECT carrier, CNT(carrier)\nFROM flights\nWHERE carrier =\nGROUP BY carrier",
		"VISUALIZE bar\nSELECT carrier, CNT(carrier)\nFROM flights\nWHERE YEAR(scheduled) = soon\nGROUP BY carrier",
		"VISUALIZE bar\nSELECT carrier, CNT(carrier)\nFROM flights\nGROUP BY carrier\nLIMIT 0",
		"VISUALIZE bar\nSELECT carrier, CNT(carrier)\nFROM flights\nGROUP BY carrier\nLIMIT many",
	}
	for _, src := range bad {
		if _, err := Parse(src, nil); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		}
	}
}

// TestUndecoratedTextUnchanged pins that the extended grammar leaves the
// legacy rendering and key of plain queries byte-identical.
func TestUndecoratedTextUnchanged(t *testing.T) {
	q := Query{
		Viz: chart.Line, X: "scheduled", Y: "departure_delay", From: "flights",
		Spec:  transform.Spec{Kind: transform.KindBinUnit, Unit: transform.ByHour, Agg: transform.AggAvg},
		Order: transform.SortX,
	}
	wantStr := "VISUALIZE line\nSELECT scheduled, AVG(departure_delay)\nFROM flights\nBIN scheduled BY HOUR\nORDER BY scheduled"
	if got := q.String(); got != wantStr {
		t.Errorf("String() = %q, want %q", got, wantStr)
	}
	if got, want := q.Key(), "line|scheduled|departure_delay|BIN BY HOUR,AVG|X"; got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
}

func TestExecuteFilters(t *testing.T) {
	tab := flightTable(t, 400)

	// Categorical equality: only UA rows survive, so grouping by carrier
	// yields exactly one bucket.
	q := Query{
		Viz: chart.Bar, X: "carrier", Y: "passengers", From: "flights",
		Spec:    transform.Spec{Kind: transform.KindGroup, Agg: transform.AggSum},
		Filters: []Filter{{Col: "carrier", Op: FilterEq, Str: "UA"}},
	}
	n, err := Execute(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	if n.Res.Len() != 1 || n.Res.XLabels[0] != "UA" {
		t.Errorf("filtered group = %v", n.Res.XLabels)
	}

	// Numeric comparison shrinks the input row count.
	q = Query{
		Viz: chart.Bar, X: "carrier", Y: "passengers", From: "flights",
		Spec:    transform.Spec{Kind: transform.KindGroup, Agg: transform.AggCnt},
		Filters: []Filter{{Col: "passengers", Op: FilterGe, Str: "150"}},
	}
	n, err = Execute(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	if n.InputRows >= 400 || n.InputRows == 0 {
		t.Errorf("InputRows = %d, want a strict non-empty subset of 400", n.InputRows)
	}

	// Year exclusion on the single-year fixture empties the result.
	q = Query{
		Viz: chart.Line, X: "scheduled", Y: "departure_delay", From: "flights",
		Spec:    transform.Spec{Kind: transform.KindBinUnit, Unit: transform.ByMonth, Agg: transform.AggAvg},
		Filters: []Filter{{Col: "scheduled", Op: FilterNe, Str: "2015", Num: 2015, Year: true}},
	}
	if _, err = Execute(tab, q); err == nil || !strings.Contains(err.Error(), "no data") {
		t.Errorf("excluding the only year: err = %v, want no-data", err)
	}
	// …while keeping it is a no-op on the bucket count.
	q.Filters[0].Op = FilterEq
	n, err = Execute(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	if n.Res.Len() != 12 {
		t.Errorf("months = %d, want 12", n.Res.Len())
	}

	// Invalid combinations are errors, not silent misreads.
	for _, f := range []Filter{
		{Col: "nope", Op: FilterEq, Str: "x"},
		{Col: "carrier", Op: FilterEq, Str: "2015", Year: true},
		{Col: "passengers", Op: FilterGt, Str: "many"},
	} {
		q := Query{
			Viz: chart.Bar, X: "carrier", Y: "passengers", From: "flights",
			Spec:    transform.Spec{Kind: transform.KindGroup, Agg: transform.AggCnt},
			Filters: []Filter{f},
		}
		if _, err := Execute(tab, q); err == nil {
			t.Errorf("filter %+v unexpectedly executed", f)
		}
	}
}

func TestExecuteDescLimit(t *testing.T) {
	tab := flightTable(t, 400)
	q := Query{
		Viz: chart.Bar, X: "carrier", Y: "passengers", From: "flights",
		Spec:  transform.Spec{Kind: transform.KindGroup, Agg: transform.AggSum},
		Order: transform.SortY, Desc: true, Limit: 2,
	}
	n, err := Execute(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	if n.Res.Len() != 2 {
		t.Fatalf("limited buckets = %d, want 2", n.Res.Len())
	}
	if n.Res.Y[0] < n.Res.Y[1] {
		t.Errorf("DESC order violated: %v", n.Res.Y)
	}
	// The top bucket must be the true maximum over the unlimited run.
	full := q
	full.Desc, full.Limit = false, 0
	fn, err := Execute(tab, full)
	if err != nil {
		t.Fatal(err)
	}
	if max := fn.Res.Y[fn.Res.Len()-1]; n.Res.Y[0] != max {
		t.Errorf("top-1 = %v, want max %v", n.Res.Y[0], max)
	}
}

// TestExecuteAllDecoratedBypass pins that the batch executor produces
// the same node for a decorated query as the standalone executor, and
// that decorated and plain variants of one transform do not contaminate
// each other through the shared caches.
func TestExecuteAllDecoratedBypass(t *testing.T) {
	tab := flightTable(t, 400)
	plain := Query{
		Viz: chart.Bar, X: "carrier", Y: "passengers", From: "flights",
		Spec: transform.Spec{Kind: transform.KindGroup, Agg: transform.AggSum},
	}
	filtered := plain
	filtered.Filters = []Filter{{Col: "carrier", Op: FilterNe, Str: "UA"}}

	nodes, err := ExecuteAllParallelCtx(context.Background(), tab, []Query{plain, filtered, plain}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("got %d nodes, want 3", len(nodes))
	}
	if nodes[0].Res.Len() != nodes[2].Res.Len() {
		t.Errorf("plain variants disagree: %d vs %d", nodes[0].Res.Len(), nodes[2].Res.Len())
	}
	if nodes[1].Res.Len() != nodes[0].Res.Len()-1 {
		t.Errorf("filtered buckets = %d, want %d", nodes[1].Res.Len(), nodes[0].Res.Len()-1)
	}
	want, err := Execute(tab, filtered)
	if err != nil {
		t.Fatal(err)
	}
	if nodes[1].Res.Len() != want.Res.Len() || nodes[1].InputRows != want.InputRows {
		t.Errorf("batch decorated node differs from standalone execution")
	}
}

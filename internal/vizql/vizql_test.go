package vizql

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/deepeye/deepeye/internal/chart"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/transform"
)

// flightTable builds a small analogue of the paper's Table I.
func flightTable(t *testing.T, rows int) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	base := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	carriers := []string{"UA", "AA", "MQ", "OO"}
	times := make([]time.Time, rows)
	carrier := make([]string, rows)
	dep := make([]float64, rows)
	arr := make([]float64, rows)
	pax := make([]float64, rows)
	for i := 0; i < rows; i++ {
		times[i] = base.Add(time.Duration(rng.Intn(365*24*60)) * time.Minute)
		carrier[i] = carriers[rng.Intn(len(carriers))]
		hour := float64(times[i].Hour())
		dep[i] = hour*1.5 - 10 + rng.NormFloat64()*3
		arr[i] = dep[i] + rng.NormFloat64()*2
		pax[i] = float64(80 + rng.Intn(150))
	}
	tab, err := dataset.New("flights", []*dataset.Column{
		dataset.TimeColumn("scheduled", times),
		dataset.CatColumn("carrier", carrier),
		dataset.NumColumn("departure_delay", dep),
		dataset.NumColumn("arrival_delay", arr),
		dataset.NumColumn("passengers", pax),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestParseQ1(t *testing.T) {
	// The paper's Q1 (Example 2).
	q, err := Parse(`VISUALIZE line
SELECT scheduled, AVG(departure_delay)
FROM flights
BIN scheduled BY HOUR
ORDER BY scheduled`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.Viz != chart.Line || q.X != "scheduled" || q.Y != "departure_delay" {
		t.Errorf("q = %+v", q)
	}
	if q.Spec.Kind != transform.KindBinUnit || q.Spec.Unit != transform.ByHour || q.Spec.Agg != transform.AggAvg {
		t.Errorf("spec = %+v", q.Spec)
	}
	if q.Order != transform.SortX {
		t.Errorf("order = %v", q.Order)
	}
}

func TestParseGroupBy(t *testing.T) {
	q, err := Parse("VISUALIZE pie SELECT carrier, SUM(passengers) FROM flights GROUP BY carrier", nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.Spec.Kind != transform.KindGroup || q.Spec.Agg != transform.AggSum {
		t.Errorf("spec = %+v", q.Spec)
	}
}

func TestParseBinInto(t *testing.T) {
	q, err := Parse("VISUALIZE bar SELECT delay, CNT(delay) FROM t BIN delay INTO 10", nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.Spec.Kind != transform.KindBinCount || q.Spec.N != 10 {
		t.Errorf("spec = %+v", q.Spec)
	}
}

func TestParseUDF(t *testing.T) {
	udfs := map[string]*transform.UDF{"sign": DefaultUDF}
	q, err := Parse("VISUALIZE pie SELECT delay, CNT(delay) FROM t BIN delay BY UDF(sign)", udfs)
	if err != nil {
		t.Fatal(err)
	}
	if q.Spec.Kind != transform.KindBinUDF || q.Spec.UDF != DefaultUDF {
		t.Errorf("spec = %+v", q.Spec)
	}
	if _, err := Parse("VISUALIZE pie SELECT d, CNT(d) FROM t BIN d BY UDF(nope)", udfs); err == nil {
		t.Error("unknown UDF should fail")
	}
}

func TestParseTransformDefaultsToCount(t *testing.T) {
	q, err := Parse("VISUALIZE bar SELECT carrier, carrier FROM t GROUP BY carrier", nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.Spec.Agg != transform.AggCnt {
		t.Errorf("agg = %v, want CNT", q.Spec.Agg)
	}
}

func TestParseOrderByY(t *testing.T) {
	q, err := Parse("VISUALIZE bar SELECT c, SUM(v) FROM t GROUP BY c ORDER BY SUM(v)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.Order != transform.SortY {
		t.Errorf("order = %v", q.Order)
	}
}

func TestParseQuotedColumn(t *testing.T) {
	q, err := Parse(`VISUALIZE bar SELECT "departure delay", CNT("departure delay") FROM t BIN "departure delay" INTO 5`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.X != "departure delay" {
		t.Errorf("x = %q", q.X)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"VISUALIZE treemap SELECT a, b FROM t",
		"VISUALIZE bar SELECT a b FROM t",       // missing comma
		"VISUALIZE bar SELECT a, SUM(b) FROM t", // agg without transform
		"VISUALIZE bar SELECT a, b FROM t GROUP BY c",          // group col mismatch
		"VISUALIZE bar SELECT a, b FROM t BIN c INTO 5",        // bin col mismatch
		"VISUALIZE bar SELECT a, b FROM t BIN a INTO zero",     // bad count
		"VISUALIZE bar SELECT a, b FROM t BIN a BY FORTNIGHT",  // bad unit
		"VISUALIZE bar SELECT a, b FROM t ORDER BY c",          // order col mismatch
		"VISUALIZE bar SELECT a, b FROM t GROUP BY a trailing", // trailing tokens
		"VISUALIZE bar SELECT a, b FROM t BIN a",               // BIN without BY/INTO
	}
	for _, src := range bad {
		if _, err := Parse(src, nil); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	srcs := []string{
		"VISUALIZE line SELECT a, AVG(b) FROM t BIN a BY HOUR ORDER BY a",
		"VISUALIZE pie SELECT c, SUM(v) FROM t GROUP BY c",
		"VISUALIZE bar SELECT x, CNT(x) FROM t BIN x INTO 10 ORDER BY CNT(x)",
		"VISUALIZE scatter SELECT a, b FROM t",
	}
	for _, src := range srcs {
		q1, err := Parse(src, nil)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		q2, err := Parse(q1.String(), nil)
		if err != nil {
			t.Fatalf("re-parse of %q: %v", q1.String(), err)
		}
		if q1.Key() != q2.Key() {
			t.Errorf("round trip: %q != %q", q1.Key(), q2.Key())
		}
	}
}

func TestExecuteQ1(t *testing.T) {
	tab := flightTable(t, 2000)
	q, err := Parse(`VISUALIZE line SELECT scheduled, AVG(departure_delay) FROM flights BIN scheduled BY HOUR ORDER BY scheduled`, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Execute(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	if n.Res.Len() == 0 {
		t.Fatal("no buckets")
	}
	if n.InputRows != 2000 {
		t.Errorf("input rows = %d", n.InputRows)
	}
	if n.XOutType != dataset.Temporal {
		t.Errorf("x out type = %v", n.XOutType)
	}
	// feature sanity: |X'| = #buckets, chart type recorded
	if int(n.Features[1]) != n.Res.Len() || n.Features[13] != float64(chart.Line) {
		t.Errorf("features = %v", n.Features)
	}
}

func TestExecuteGroupPie(t *testing.T) {
	tab := flightTable(t, 500)
	q, _ := Parse("VISUALIZE pie SELECT carrier, SUM(passengers) FROM flights GROUP BY carrier", nil)
	n, err := Execute(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	if n.DistinctX() != 4 {
		t.Errorf("distinct carriers = %d", n.DistinctX())
	}
	d := n.Data()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.XNums != nil {
		t.Error("categorical axis should not be numeric")
	}
}

func TestExecuteScatterRaw(t *testing.T) {
	tab := flightTable(t, 300)
	q, _ := Parse("VISUALIZE scatter SELECT departure_delay, arrival_delay FROM flights", nil)
	n, err := Execute(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	if n.Corr < 0.9 {
		t.Errorf("corr = %v, want high (delays are correlated by construction)", n.Corr)
	}
	if n.Data().XNums == nil {
		t.Error("numeric axis should be numeric")
	}
}

func TestExecuteErrors(t *testing.T) {
	tab := flightTable(t, 50)
	cases := []string{
		"VISUALIZE bar SELECT nope, CNT(nope) FROM flights GROUP BY nope",
		"VISUALIZE bar SELECT carrier, CNT(nope2) FROM flights GROUP BY carrier",
		"VISUALIZE bar SELECT carrier, SUM(carrier) FROM flights GROUP BY carrier", // SUM of categorical
		"VISUALIZE line SELECT carrier, carrier FROM flights",                      // raw needs numeric y
	}
	for _, src := range cases {
		q, err := Parse(src, nil)
		if err != nil {
			continue // parse-level rejection also acceptable
		}
		if _, err := Execute(tab, q); err == nil {
			t.Errorf("Execute(%q) should fail", src)
		}
	}
}

func TestValidateQueryMatchesExecute(t *testing.T) {
	tab := flightTable(t, 60)
	for _, q := range EnumerateQueries(tab) {
		vErr := ValidateQuery(tab, q)
		_, eErr := Execute(tab, q)
		if vErr == nil && eErr != nil && !strings.Contains(eErr.Error(), "no data") {
			t.Errorf("validate ok but execute failed for %s: %v", q.Key(), eErr)
		}
		if vErr != nil && eErr == nil {
			t.Errorf("validate rejected but execute succeeded for %s: %v", q.Key(), vErr)
		}
	}
}

func TestEnumerateQueriesCount(t *testing.T) {
	tab := flightTable(t, 10)
	qs := EnumerateQueries(tab)
	m := tab.NumCols()
	// 40 meaningful transform/agg combos per ordered pair (1 raw + 13
	// kinds × 3 aggs), × 3 sorts × 4 chart types.
	want := m * (m - 1) * 40 * 3 * 4
	if len(qs) != want {
		t.Errorf("enumerated %d queries, want %d", len(qs), want)
	}
	// All within the paper's upper bound.
	if len(qs) > SearchSpaceTwoColumns(m) {
		t.Errorf("enumeration exceeds Fig. 3 bound: %d > %d", len(qs), SearchSpaceTwoColumns(m))
	}
}

func TestEnumerateOneColumnCount(t *testing.T) {
	tab := flightTable(t, 10)
	qs := EnumerateOneColumnQueries(tab)
	m := tab.NumCols()
	// 13 bucket kinds × CNT × 3 sorts × 4 chart types per column.
	want := m * 13 * 3 * 4
	if len(qs) != want {
		t.Errorf("enumerated %d one-column queries, want %d", len(qs), want)
	}
	if len(qs) > SearchSpaceOneColumn(m) {
		t.Errorf("one-column enumeration exceeds bound")
	}
}

func TestSearchSpaceFormulaTwoColumns(t *testing.T) {
	// Paper: 528·m(m−1); for the 6-column FlyDelay table that is 15,840.
	if got := SearchSpaceTwoColumns(6); got != 15840 {
		t.Errorf("SearchSpaceTwoColumns(6) = %d, want 15840", got)
	}
	if got := SearchSpaceTwoColumns(2); got != 1056 {
		t.Errorf("SearchSpaceTwoColumns(2) = %d, want 1056", got)
	}
}

func TestSearchSpaceFormulaOneColumn(t *testing.T) {
	if got := SearchSpaceOneColumn(6); got != 1584 {
		t.Errorf("SearchSpaceOneColumn(6) = %d, want 1584", got)
	}
}

func TestSearchSpaceFormulaThreeColumns(t *testing.T) {
	if got := SearchSpaceThreeColumns(6); got != 704*216 {
		t.Errorf("SearchSpaceThreeColumns(6) = %d", got)
	}
}

func TestSearchSpaceMultiY(t *testing.T) {
	// m=3: only z=2 → 3 × 11 × C(2,2) × 4² × 4 × 4 = 8448.
	if got := SearchSpaceMultiY(3); got != 8448 {
		t.Errorf("SearchSpaceMultiY(3) = %d, want 8448", got)
	}
	if SearchSpaceMultiY(2) != 0 {
		t.Error("m=2 has no multi-Y candidates")
	}
	// Monotone in m.
	prev := int64(0)
	for m := 3; m <= 12; m++ {
		v := SearchSpaceMultiY(m)
		if v <= prev {
			t.Errorf("SearchSpaceMultiY(%d) = %d not increasing", m, v)
		}
		prev = v
	}
}

func TestExecuteAllSharesTransforms(t *testing.T) {
	tab := flightTable(t, 400)
	qs := EnumerateQueries(tab)
	nodes := executeAll(tab, qs, 1)
	if len(nodes) == 0 {
		t.Fatal("no executable nodes")
	}
	// All nodes structurally valid.
	for _, n := range nodes {
		if n.Res.Len() == 0 {
			t.Fatalf("node %s has empty result", n.Query.Key())
		}
		if n.Features[7] != float64(n.Res.Len()) {
			t.Fatalf("node %s features out of sync", n.Query.Key())
		}
	}
	// Executing one-by-one yields the same count.
	count := 0
	for _, q := range qs {
		if _, err := Execute(tab, q); err == nil {
			count++
		}
	}
	if count != len(nodes) {
		t.Errorf("batch = %d nodes, individual = %d", len(nodes), count)
	}
}

func TestExecuteAllConsistentWithExecute(t *testing.T) {
	tab := flightTable(t, 200)
	qs := EnumerateQueries(tab)[:2000]
	nodes := executeAll(tab, qs, 1)
	byKey := make(map[string]*Node)
	for _, n := range nodes {
		byKey[n.Query.Key()] = n
	}
	for _, q := range qs {
		single, err := Execute(tab, q)
		if err != nil {
			continue
		}
		batch := byKey[q.Key()]
		if batch == nil {
			t.Fatalf("batch missing %s", q.Key())
		}
		if single.Res.Len() != batch.Res.Len() {
			t.Errorf("%s: len %d vs %d", q.Key(), single.Res.Len(), batch.Res.Len())
		}
		if diff := single.Corr - batch.Corr; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: corr %v vs %v", q.Key(), single.Corr, batch.Corr)
		}
	}
}

func TestDedupe(t *testing.T) {
	tab := flightTable(t, 100)
	q1, _ := Parse("VISUALIZE bar SELECT carrier, CNT(carrier) FROM flights GROUP BY carrier", nil)
	n1, err := Execute(tab, q1)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := Execute(tab, q1)
	if err != nil {
		t.Fatal(err)
	}
	q3, _ := Parse("VISUALIZE pie SELECT carrier, CNT(carrier) FROM flights GROUP BY carrier", nil)
	n3, err := Execute(tab, q3)
	if err != nil {
		t.Fatal(err)
	}
	out := Dedupe([]*Node{n1, n2, n3})
	if len(out) != 2 {
		t.Errorf("dedupe kept %d, want 2", len(out))
	}
}

// Property: Query.String always re-parses to the same key, for enumerated
// queries over a random table.
func TestQueryStringRoundTripQuick(t *testing.T) {
	tab := flightTable(t, 20)
	qs := EnumerateQueries(tab)
	udfs := map[string]*transform.UDF{"sign": DefaultUDF}
	f := func(idx uint16) bool {
		q := qs[int(idx)%len(qs)]
		q2, err := Parse(q.String(), udfs)
		if err != nil {
			return false
		}
		return q.Key() == q2.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExecuteAllParallelSmallBatchFallsBack(t *testing.T) {
	tab := flightTable(t, 50)
	q, err := Parse("VISUALIZE bar SELECT carrier, CNT(carrier) FROM flights GROUP BY carrier", nil)
	if err != nil {
		t.Fatal(err)
	}
	out := executeAll(tab, []Query{q, q, q}, 8)
	if len(out) != 3 {
		t.Fatalf("nodes = %d, want 3", len(out))
	}
}

// executeAll runs the batch executor with the given worker count.
func executeAll(tab *dataset.Table, qs []Query, workers int) []*Node {
	nodes, _ := ExecuteAllParallelCtx(context.Background(), tab, qs, workers)
	return nodes
}

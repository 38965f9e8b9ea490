package progressive

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/rank"
	"github.com/deepeye/deepeye/internal/rules"
	"github.com/deepeye/deepeye/internal/transform"
	"github.com/deepeye/deepeye/internal/vizql"
)

func testTable(t *testing.T, rows int) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	base := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	times := make([]time.Time, rows)
	cats := make([]string, rows)
	a := make([]float64, rows)
	b := make([]float64, rows)
	idlike := make([]float64, rows)
	for i := 0; i < rows; i++ {
		times[i] = base.Add(time.Duration(rng.Intn(365*24)) * time.Hour)
		cats[i] = []string{"north", "south", "east", "west"}[rng.Intn(4)]
		h := float64(times[i].Hour())
		a[i] = 3*h + rng.NormFloat64()
		b[i] = a[i]*1.5 + rng.NormFloat64()
		idlike[i] = float64(i) // near-unique: grouping it is useless
	}
	tab, err := dataset.New("sales", []*dataset.Column{
		dataset.TimeColumn("when", times),
		dataset.CatColumn("region", cats),
		dataset.NumColumn("amount", a),
		dataset.NumColumn("profit", b),
		dataset.NumColumn("row_id", idlike),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestTopKReturnsKResults(t *testing.T) {
	tab := testTable(t, 500)
	res, st, err := TopKCtx(context.Background(), tab, 5, Options{IncludeOneColumn: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	if st.NodesEmitted != 5 {
		t.Errorf("stats emitted = %d", st.NodesEmitted)
	}
	// Scores descend.
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score+1e-9 {
			t.Errorf("scores not descending: %v then %v", res[i-1].Score, res[i].Score)
		}
	}
	// Every result is a valid chart.
	for _, r := range res {
		if err := r.Node.Data().Validate(); err != nil {
			t.Errorf("invalid chart %s: %v", r.Node.Query.Key(), err)
		}
	}
}

func TestKExceedsCandidates(t *testing.T) {
	tab := testTable(t, 100)
	res, _, err := TopKCtx(context.Background(), tab, 100000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
}

func TestInvalidK(t *testing.T) {
	tab := testTable(t, 50)
	if _, _, err := TopKCtx(context.Background(), tab, 0, Options{}); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestPruningSkipsWork(t *testing.T) {
	tab := testTable(t, 500)
	_, st, err := TopKCtx(context.Background(), tab, 3, Options{IncludeOneColumn: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.SpecsMaterialized >= st.SpecsTotal {
		t.Errorf("no pruning: materialized %d of %d", st.SpecsMaterialized, st.SpecsTotal)
	}
}

func TestMatchesExhaustiveScoring(t *testing.T) {
	// The progressive top-k must agree with scoring every rule-accepted
	// candidate by the same leaf score and taking the best k.
	tab := testTable(t, 300)
	k := 5
	res, _, err := TopKCtx(context.Background(), tab, k, Options{})
	if err != nil {
		t.Fatal(err)
	}

	qs, err := rules.EnumerateQueriesCtx(context.Background(), tab)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := vizql.ExecuteAllParallelCtx(context.Background(), tab, qs, 1)
	if err != nil {
		t.Fatal(err)
	}
	type scored struct {
		key   string
		score float64
	}
	var all []scored
	for _, n := range nodes {
		if n.Query.Order != transform.SortNone {
			continue // progressive scores unsorted variants
		}
		s := (rank.RawM(n, rank.FactorOptions{}) + rank.RawQ(n)) / 2
		all = append(all, scored{n.Query.Key(), s})
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].score > all[b].score })
	// Score multiset of the top-k must match (keys may differ on ties).
	for i := 0; i < k; i++ {
		diff := res[i].Score - all[i].score
		if diff > 1e-9 || diff < -1e-9 {
			t.Errorf("rank %d: progressive score %v, exhaustive %v", i, res[i].Score, all[i].score)
		}
	}
}

func TestSharedBucketingMatchesDirectTransform(t *testing.T) {
	tab := testTable(t, 400)
	sel := newSelectorCtx(context.Background(), tab, Options{})
	x := tab.Column("when")
	y := tab.Column("amount")
	for _, agg := range []transform.Agg{transform.AggSum, transform.AggAvg, transform.AggCnt} {
		spec := transform.Spec{Kind: transform.KindBinUnit, Unit: transform.ByMonth, Agg: agg}
		shared := sel.sharedApply(x, y, spec)
		direct, err := transform.Apply(x, y, spec)
		if err != nil {
			t.Fatal(err)
		}
		if shared.Len() != direct.Len() {
			t.Fatalf("%v: len %d vs %d", agg, shared.Len(), direct.Len())
		}
		for i := range direct.Y {
			diff := shared.Y[i] - direct.Y[i]
			if diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%v bucket %d: %v vs %v", agg, i, shared.Y[i], direct.Y[i])
			}
		}
	}
}

func TestFinalOrderApplied(t *testing.T) {
	tab := testTable(t, 300)
	res, _, err := TopKCtx(context.Background(), tab, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		n := r.Node
		if n.XOutType == dataset.Categorical {
			for i := 1; i < n.Res.Len(); i++ {
				if n.Res.Y[i] > n.Res.Y[i-1]+1e-9 {
					t.Errorf("categorical winner not value-sorted: %s", n.Query.Key())
					break
				}
			}
		} else {
			for i := 1; i < n.Res.Len(); i++ {
				if n.Res.XOrder[i] < n.Res.XOrder[i-1] {
					t.Errorf("ordered-axis winner not x-sorted: %s", n.Query.Key())
					break
				}
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	tab := testTable(t, 300)
	r1, _, err := TopKCtx(context.Background(), tab, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := TopKCtx(context.Background(), tab, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i].Node.Query.Key() != r2[i].Node.Query.Key() {
			t.Errorf("run differs at %d: %s vs %s", i, r1[i].Node.Query.Key(), r2[i].Node.Query.Key())
		}
	}
}

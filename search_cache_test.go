package deepeye

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/deepeye/deepeye/internal/chart"
	"github.com/deepeye/deepeye/internal/datagen"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/obs"
	"github.com/deepeye/deepeye/internal/transform"
	"github.com/deepeye/deepeye/internal/vizql"
)

// searchRecomputed is the keyword search that regenerates candidates
// and ranks them on every call, without the rank cache entry or any
// answer cache. It is the oracle the cached Search must match.
func (s *System) searchRecomputed(ctx context.Context, t *Table, query string, k int) ([]*Visualization, error) {
	if k <= 0 {
		return nil, fmt.Errorf("deepeye: k must be positive, got %d", k)
	}
	intent := parseIntent(searchWords(query), t)
	if len(intent.columns) == 0 && len(intent.charts) == 0 && intent.unit == "" {
		return nil, fmt.Errorf("deepeye: query %q matches no columns or chart intents: %w", query, ErrNoIntent)
	}
	nodes, err := s.CandidatesCtx(ctx, t)
	if err != nil {
		return nil, err
	}
	order, scores, _, err := s.rankNodesExplainedCtx(ctx, nodes)
	if err != nil {
		return nil, err
	}
	pos := make([]int, len(nodes))
	for p, idx := range order {
		pos[idx] = p
	}
	type scored struct {
		idx      int
		affinity float64
	}
	var cands []scored
	for i, n := range nodes {
		a := intent.affinity(n)
		if a <= 0 {
			continue
		}
		cands = append(cands, scored{i, a - 0.001*float64(pos[i])})
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("deepeye: no visualization matches %q", query)
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].affinity > cands[b].affinity })
	seen := map[string]bool{}
	var out []*Visualization
	for _, c := range cands {
		n := nodes[c.idx]
		key := fmt.Sprintf("%s|%s|%s|%d|%d", n.Chart, n.XName, n.YName, n.Query.Spec.Kind, n.Query.Spec.Unit)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, newVisualization(n, scores[c.idx], len(out)+1))
		if len(out) == k {
			break
		}
	}
	return out, nil
}

// goldenTables loads the five golden CSVs in name order.
func goldenTables(t *testing.T) []*Table {
	t.Helper()
	csvs, err := filepath.Glob(filepath.Join("testdata", "golden", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(csvs)
	var out []*Table
	for _, p := range csvs {
		tab, err := LoadCSVFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tab)
	}
	if len(out) != 5 {
		t.Fatalf("expected 5 golden CSVs, found %d", len(out))
	}
	return out
}

// keywordQueries derives keyword queries from a table's columns: single
// columns, column pairs, and chart-intent and granularity words, plus
// one query that matches nothing.
func keywordQueries(t *Table) []string {
	c := func(i int) string { return t.Columns[i%len(t.Columns)].Name }
	return []string{
		c(0),
		c(1) + " " + c(2),
		"trend of " + c(2) + " over " + c(1),
		c(2) + " share by " + c(0),
		"pie",
		"monthly " + c(3),
		c(2) + " versus " + c(3),
		"Distribution of " + strings.ToUpper(c(3)) + "!",
		"zorp blimfle",
	}
}

// assertSameSearchAnswer fails unless two answers agree on every
// exported field bit for bit, on the data, on the Vega-Lite bytes and
// on the explanation.
func assertSameSearchAnswer(t *testing.T, label string, want, got []*Visualization, wantErr, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error %v, want %v", label, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() || errors.Is(gotErr, ErrNoIntent) != errors.Is(wantErr, ErrNoIntent) {
			t.Fatalf("%s: error %q, want %q", label, gotErr, wantErr)
		}
		return
	}
	assertSameVisualizations(t, want, got, label)
	for i := range want {
		w, g := want[i], got[i]
		if w.XName() != g.XName() || w.YName() != g.YName() {
			t.Fatalf("%s: result %d columns (%s, %s), want (%s, %s)", label, i, g.XName(), g.YName(), w.XName(), w.YName())
		}
		wl, wy := w.Data()
		gl, gy := g.Data()
		if !reflect.DeepEqual(wl, gl) || len(wy) != len(gy) {
			t.Fatalf("%s: result %d data differs", label, i)
		}
		for j := range wy {
			if math.Float64bits(wy[j]) != math.Float64bits(gy[j]) {
				t.Fatalf("%s: result %d y[%d] = %v, want %v", label, i, j, gy[j], wy[j])
			}
		}
		ws, werr := w.VegaLite()
		gs, gerr := g.VegaLite()
		if (werr == nil) != (gerr == nil) || !bytes.Equal(ws, gs) {
			t.Fatalf("%s: result %d Vega-Lite differs", label, i)
		}
		if w.Explain() != g.Explain() {
			t.Fatalf("%s: result %d explanation %+v, want %+v", label, i, g.Explain(), w.Explain())
		}
	}
}

// TestSearchCachedMatchesRecomputed: Search's answers, read from the
// shared rank cache entry and then from its own answer cache, are bit
// for bit the answers of a search that recomputes candidates and
// ranking, on every golden table and under every ranking method.
func TestSearchCachedMatchesRecomputed(t *testing.T) {
	trained, _ := trainSmall(t, ClassifierDecisionTree)
	var models bytes.Buffer
	if err := trained.SaveModels(&models); err != nil {
		t.Fatal(err)
	}
	system := func(opts Options) *System {
		s := New(opts)
		if err := s.LoadModels(bytes.NewReader(models.Bytes())); err != nil {
			t.Fatal(err)
		}
		return s
	}
	ctx := context.Background()
	for _, method := range []RankMethod{MethodPartialOrder, MethodLearningToRank, MethodHybrid} {
		oracle := system(Options{IncludeOneColumn: true, Method: method})
		for _, tab := range goldenTables(t) {
			// One system meets each search cold, the other after a TopK
			// filled the rank cache entry; both then answer again from
			// the search answer cache.
			cold := system(Options{IncludeOneColumn: true, Method: method, CacheSize: 64 << 20})
			warm := system(Options{IncludeOneColumn: true, Method: method, CacheSize: 64 << 20})
			if _, err := warm.TopK(tab, 5); err != nil {
				t.Fatal(err)
			}
			for _, q := range keywordQueries(tab) {
				for _, k := range []int{1, 3, 8} {
					want, wantErr := oracle.searchRecomputed(ctx, tab, q, k)
					for _, sys := range []*System{cold, warm, cold, warm} {
						got, err := sys.SearchCtx(ctx, tab, q, k)
						label := fmt.Sprintf("method %d, %s, %q, k=%d", method, tab.Name, q, k)
						assertSameSearchAnswer(t, label, want, got, wantErr, err)
					}
				}
			}
		}
	}
}

// stageCounts reads how many times each selection stage has run.
func stageCounts() map[string]uint64 {
	out := map[string]uint64{}
	for _, st := range []string{obs.StageEnumerate, obs.StageExecute, obs.StageRank} {
		out[st] = obs.Default.Histogram(obs.StageMetric, "", nil, "stage", st).Count()
	}
	return out
}

// TestSearchAfterTopKRunsNoPipelineStage: a Search on a table TopK has
// ranked reads the rank cache entry, so no selection stage runs, and
// repeating it is an answer cache hit.
func TestSearchAfterTopKRunsNoPipelineStage(t *testing.T) {
	tab := smallFlights(t)
	// Each of the cache's 16 shards gets 1/16 of the budget, and this
	// table's ranked set needs more than 4 MiB of it.
	sys := New(Options{CacheSize: 256 << 20})
	if _, err := sys.TopK(tab, 5); err != nil {
		t.Fatal(err)
	}
	stages := stageCounts()
	st0, _ := sys.CacheStats()
	first, err := sys.Search(tab, "departure delay trend by hour", 3)
	if err != nil {
		t.Fatal(err)
	}
	st1, _ := sys.CacheStats()
	if st1.Hits <= st0.Hits {
		t.Errorf("search after top-k recorded no cache hit: %+v -> %+v", st0, st1)
	}
	again, err := sys.Search(tab, "  Departure DELAY trend, by hour!", 3)
	if err != nil {
		t.Fatal(err)
	}
	st2, _ := sys.CacheStats()
	if st2.Misses != st1.Misses || st2.Hits <= st1.Hits {
		t.Errorf("repeated search was not an answer cache hit: %+v -> %+v", st1, st2)
	}
	if len(again) != len(first) || again[0] != first[0] {
		t.Error("repeated search did not return the cached answer")
	}
	if got := stageCounts(); !reflect.DeepEqual(got, stages) {
		t.Errorf("search after top-k ran pipeline stages: %v -> %v", stages, got)
	}
}

// TestVegaLiteConcurrentMemo calls VegaLite on one cached visualization
// from many goroutines (run it under -race): every call returns the one
// memoized rendering, byte-identical to a fresh render.
func TestVegaLiteConcurrentMemo(t *testing.T) {
	sys := New(Options{CacheSize: 64 << 20})
	vs, err := sys.TopK(smallFlights(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	v := vs[0]
	want, err := chart.VegaLite(v.node.Data())
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	specs := make([][]byte, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			spec, err := v.VegaLite()
			if err != nil {
				t.Error(err)
			}
			specs[g] = spec
		}(g)
	}
	wg.Wait()
	for g, spec := range specs {
		if !bytes.Equal(spec, want) {
			t.Fatalf("goroutine %d rendered a different spec", g)
		}
		if &spec[0] != &specs[0][0] {
			t.Fatalf("goroutine %d got its own rendering, not the memo", g)
		}
	}
}

// servingTable builds a dataset the way the serving benchmark and the
// load harness do: a skewed category, a timestamp, a uniform metric, a
// metric derived from it, then normal and heavy-tailed metrics.
func servingTable(t testing.TB, name string, rows, cols int, seed int64) *Table {
	t.Helper()
	cs := []datagen.Col{
		{Name: "region", Kind: datagen.KindCategory, K: 6},
		{Name: "when", Kind: datagen.KindTime},
		{Name: "metric1", Kind: datagen.KindUniform, Lo: 0, Hi: 1000},
	}
	for j := 3; j < cols; j++ {
		c := datagen.Col{Name: "metric" + strconv.Itoa(j-1)}
		switch (j - 3) % 3 {
		case 0:
			c.Kind, c.Base, c.Scale, c.Noise = datagen.KindDerived, "metric1", 2, 25
		case 1:
			c.Kind, c.Mu, c.Sigma = datagen.KindNormal, 50, 12
		default:
			c.Kind, c.Lo, c.Hi = datagen.KindHeavyTail, 0, 500
		}
		cs = append(cs, c)
	}
	gen, err := datagen.Generate(datagen.Spec{Name: name, Tuples: rows, Cols: cs, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gen.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	tab, err := dataset.FromCSV(name, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestVizSizeCountsRenderedSpec: the size every cache entry charges for
// a visualization bounds its memoized Vega-Lite spec, for every
// candidate chart of the golden tables and of the serving benchmark's
// table shapes, and for the benchmark's queries and questions.
func TestVizSizeCountsRenderedSpec(t *testing.T) {
	tables := goldenTables(t)
	for _, shape := range []struct{ rows, cols int }{{500, 5}, {200, 5}, {2000, 6}, {200, 4}, {150, 4}} {
		tables = append(tables, servingTable(t, fmt.Sprintf("s%dx%d", shape.rows, shape.cols), shape.rows, shape.cols, int64(shape.rows)))
	}
	sys := New(Options{IncludeOneColumn: true})
	checked := 0
	check := func(v *Visualization) {
		spec, err := v.VegaLite()
		if err != nil {
			t.Fatalf("%s: %v", v.Query, err)
		}
		if bound := chart.VegaLiteSizeBound(v.node.Data()); bound < int64(len(spec)) {
			t.Fatalf("%s: bound %d < rendered %d bytes", v.Query, bound, len(spec))
		}
		if size := vizSize(v); size < nodeSize(v.node)+int64(len(spec)) {
			t.Fatalf("%s: vizSize %d does not count the %d-byte spec", v.Query, size, len(spec))
		}
		checked++
	}
	for _, tab := range tables {
		nodes, err := sys.Candidates(tab)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			check(newVisualization(n, 0, 0))
		}
		if !strings.HasPrefix(tab.Name, "s") || tab.Columns[0].Name != "region" {
			continue
		}
		for _, src := range []string{
			"VISUALIZE bar SELECT region, SUM(metric1) FROM t GROUP BY region",
			"VISUALIZE line SELECT when, AVG(metric1) FROM t BIN when BY MONTH ORDER BY when",
			"VISUALIZE scatter SELECT metric1, metric2 FROM t",
		} {
			v, err := sys.Query(tab, src)
			if err != nil {
				t.Fatal(err)
			}
			check(v)
		}
		for _, q := range []string{"total metric1 by region", "monthly average metric1", "metric1 share by region", "metric1 versus metric2"} {
			a, err := sys.Ask(tab, q, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range a.Results {
				check(r.Visualization)
			}
		}
	}
	if checked < 1000 {
		t.Errorf("checked only %d charts", checked)
	}
}

// TestDiversityKeySeparatesBinCounts: TopK and Search share one
// diversity key, and it tells apart bucketings that differ only in
// their bin count.
func TestDiversityKeySeparatesBinCounts(t *testing.T) {
	q := vizql.Query{Viz: chart.Bar, X: "fare", Y: "fare",
		Spec: transform.Spec{Kind: transform.KindBinCount, N: transform.DefaultBinCount}}
	a := &vizql.Node{Query: q, Chart: chart.Bar, XName: "fare", YName: "fare"}
	b := *a
	b.Query.Spec.N = transform.DefaultBinCount * 2
	if diversityKey(a) == diversityKey(&b) {
		t.Errorf("nodes with bin counts %d and %d share diversity key %q",
			a.Query.Spec.N, b.Query.Spec.N, diversityKey(a))
	}
	if c := *a; diversityKey(&c) != diversityKey(a) {
		t.Error("identical nodes have different diversity keys")
	}
}

// TestRankedSetCountsSharedResultsOnce checks the rank| entry's size:
// every node pays its fixed overhead, and each distinct Result — shared
// by chart-type siblings and, under a count, by every Y column — is
// charged once, not once per node.
func TestRankedSetCountsSharedResultsOnce(t *testing.T) {
	tab := servingTable(t, "s200x5", 200, 5, 200)
	nodes, err := New(Options{IncludeOneColumn: true}).Candidates(tab)
	if err != nil {
		t.Fatal(err)
	}
	rs := rankedSet{nodes: nodes}
	perNode := int64(0)
	want := int64(len(nodes)) * nodeOverhead
	ys := make(map[*transform.Result]map[string]bool)
	for _, n := range nodes {
		perNode += nodeSize(n)
		if ys[n.Res] == nil {
			ys[n.Res] = make(map[string]bool)
			want += resultSize(n.Res)
		}
		ys[n.Res][n.YName] = true
	}
	if got := rs.sizeBytes(); got != want {
		t.Fatalf("sizeBytes = %d, want %d (%d nodes over %d Results)", got, want, len(nodes), len(ys))
	}
	acrossY := 0
	for _, set := range ys {
		if len(set) > 1 {
			acrossY++
		}
	}
	if acrossY == 0 || want >= perNode {
		t.Fatalf("%d Results shared across Y columns; size %d, per-node sum %d: nothing shared", acrossY, want, perNode)
	}
}

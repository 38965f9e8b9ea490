package deepeye

import (
	"strings"
	"testing"
	"time"

	"github.com/deepeye/deepeye/internal/datagen"
	"github.com/deepeye/deepeye/internal/metrics"
)

// smallFlights generates a scaled-down FlyDelay table.
func smallFlights(t *testing.T) *Table {
	t.Helper()
	tab, err := datagen.TestSet(9, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func trainTables(t *testing.T, n int) []*Table {
	t.Helper()
	var out []*Table
	for i := 0; i < n; i++ {
		tab, err := datagen.TrainingSet(i, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tab)
	}
	return out
}

func TestTopKPartialOrderUntrained(t *testing.T) {
	sys := New(Options{})
	vs, err := sys.TopK(smallFlights(t), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 5 {
		t.Fatalf("got %d visualizations", len(vs))
	}
	for i, v := range vs {
		if v.Rank != i+1 {
			t.Errorf("rank[%d] = %d", i, v.Rank)
		}
		if v.Query == "" || v.Chart == "" {
			t.Errorf("viz %d missing metadata: %+v", i, v)
		}
		if v.Points() == 0 {
			t.Errorf("viz %d has no data", i)
		}
		if out := v.RenderASCII(); !strings.Contains(out, "[") {
			t.Errorf("viz %d render empty", i)
		}
		if _, err := v.VegaLite(); err != nil {
			t.Errorf("viz %d vega export: %v", i, err)
		}
	}
	// Scores descend.
	for i := 1; i < len(vs); i++ {
		if vs[i].Score > vs[i-1].Score+1e-9 {
			t.Errorf("scores not descending at %d", i)
		}
	}
}

func TestTopKExhaustiveMode(t *testing.T) {
	sys := New(Options{Enum: EnumExhaustive})
	vs, err := sys.TopK(smallFlights(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 {
		t.Fatalf("got %d", len(vs))
	}
}

func TestTopKErrors(t *testing.T) {
	sys := New(Options{})
	if _, err := sys.TopK(smallFlights(t), 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := sys.TopK(nil, 3); err == nil {
		t.Error("nil table should fail")
	}
	ltr := New(Options{Method: MethodLearningToRank})
	if _, err := ltr.TopK(smallFlights(t), 3); err == nil {
		t.Error("untrained LTR should fail")
	}
	hyb := New(Options{Method: MethodHybrid})
	if _, err := hyb.TopK(smallFlights(t), 3); err == nil {
		t.Error("untrained hybrid should fail")
	}
	rec := New(Options{UseRecognizer: true})
	if _, err := rec.TopK(smallFlights(t), 3); err == nil {
		t.Error("untrained recognizer should fail")
	}
}

func TestQueryAndRecognize(t *testing.T) {
	tab := smallFlights(t)
	sys := New(Options{})
	v, err := sys.Query(tab, "VISUALIZE line SELECT scheduled, AVG(departure_delay) FROM flights BIN scheduled BY HOUR ORDER BY scheduled")
	if err != nil {
		t.Fatal(err)
	}
	if v.Chart != "line" || v.Points() == 0 {
		t.Errorf("viz = %+v", v)
	}
	if _, err := sys.Recognize(tab, "VISUALIZE bar SELECT carrier, CNT(carrier) FROM f GROUP BY carrier"); err == nil {
		t.Error("untrained recognizer should error")
	}
}

func TestFullTrainingPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("training pipeline is slow")
	}
	tables := trainTables(t, 8)
	sys := New(Options{})
	corpus, err := sys.TrainFromOracle(tables, CrowdOracle(1), ClassifierDecisionTree, 150)
	if err != nil {
		t.Fatal(err)
	}
	if corpus.NumExamples() == 0 {
		t.Fatal("empty corpus")
	}
	if sys.Recognizer() == nil {
		t.Fatal("no recognizer")
	}
	if sys.Alpha() <= 0 {
		t.Errorf("alpha = %v", sys.Alpha())
	}

	// Recognition quality on a held-out table.
	test := smallFlights(t)
	nodes, err := sys.Candidates(test)
	if err != nil {
		t.Fatal(err)
	}
	oracle := CrowdOracle(1)
	labels := oracle.LabelAll(nodes)
	var conf metrics.Confusion
	for i, n := range nodes {
		conf.Add(sys.Recognizer().Predict(n.Features.Slice()), labels[i])
	}
	if acc := conf.Accuracy(); acc < 0.8 {
		t.Errorf("held-out recognition accuracy = %v, want >= 0.8", acc)
	}

	// All three ranking methods now work.
	for _, m := range []RankMethod{MethodPartialOrder, MethodLearningToRank, MethodHybrid} {
		sys.opts.Method = m
		vs, err := sys.TopK(test, 3)
		if err != nil {
			t.Fatalf("method %d: %v", m, err)
		}
		if len(vs) != 3 {
			t.Fatalf("method %d returned %d", m, len(vs))
		}
	}

	// Recognizer-filtered candidate path.
	sys.opts.Method = MethodPartialOrder
	sys.opts.UseRecognizer = true
	if _, err := sys.TopK(test, 3); err != nil {
		t.Fatalf("recognizer-filtered topk: %v", err)
	}
}

func TestLoadCSVIntegration(t *testing.T) {
	csv := "city,population,founded\nSpringfield,30000,1850-05-01\nShelbyville,21000,1855-02-01\nCapital City,150000,1820-08-01\nOgdenville,12000,1890-03-01\n"
	tab, err := LoadCSV("cities", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	sys := New(Options{IncludeOneColumn: true})
	vs, err := sys.TopK(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("no charts for a simple csv")
	}
}

func TestBuildCorpusBounds(t *testing.T) {
	sys := New(Options{})
	tables := trainTables(t, 2)
	c, err := sys.BuildCorpus(tables, CrowdOracle(2), 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range c.Nodes {
		if len(nodes) > 20 {
			t.Errorf("per-table cap violated: %d", len(nodes))
		}
	}
	if _, err := sys.BuildCorpus(tables, nil, 0); err == nil {
		t.Error("nil oracle should fail")
	}
}

func TestTopKParallelWorkers(t *testing.T) {
	tab := smallFlights(t)
	seq := New(Options{})
	par := New(Options{Workers: -1})
	a, err := seq.TopK(tab, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.TopK(tab, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Query != b[i].Query {
			t.Errorf("rank %d differs: %q vs %q", i, a[i].Query, b[i].Query)
		}
	}
}

func TestFullScaleFlyDelaySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale table")
	}
	// The paper's headline workflow on the full 99,527-row FlyDelay table:
	// the served dominance-graph path must return a first page in seconds.
	tab, err := datagen.TestSet(9, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 99527 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	sys := New(Options{IncludeOneColumn: true})
	start := time.Now()
	vs, err := sys.TopK(tab, 6)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(vs) != 6 {
		t.Fatalf("got %d charts", len(vs))
	}
	t.Logf("full-scale top-6 in %v", elapsed)
	if elapsed > 60*time.Second {
		t.Errorf("took %v, want seconds-scale", elapsed)
	}
}

func TestLoadCSVWithTypesPublic(t *testing.T) {
	csv := "year_code,sales\n2015,9\n2016,12\n2017,15\n"
	tab, err := LoadCSVWithTypes("t", strings.NewReader(csv), map[string]ColType{"year_code": Categorical})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Column("year_code").Type != Categorical {
		t.Errorf("override ignored: %v", tab.Column("year_code").Type)
	}
}

func TestExplain(t *testing.T) {
	tab := smallFlights(t)
	sys := New(Options{})
	vs, err := sys.TopK(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		e := v.Explain()
		if !e.HasFactors {
			t.Fatalf("partial-order ranking should attach factors: %+v", e)
		}
		if e.M < 0 || e.M > 1+1e-9 || e.Q < 0 || e.Q > 1+1e-9 || e.W < 0 || e.W > 1+1e-9 {
			t.Errorf("factors out of range: %+v", e)
		}
		if e.Trend == "" {
			t.Error("missing trend name")
		}
	}
	// A direct query has no ranking context, so no factors.
	v, err := sys.Query(tab, "VISUALIZE bar SELECT carrier, CNT(carrier) FROM f GROUP BY carrier")
	if err != nil {
		t.Fatal(err)
	}
	if v.Explain().HasFactors {
		t.Error("direct query should not claim factors")
	}
}

package vizql_test

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"testing"

	"github.com/deepeye/deepeye/internal/datagen"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/rules"
	"github.com/deepeye/deepeye/internal/vizql"
)

// corpusTable is one table of the test corpus; exhaustive marks the 5
// golden CSVs, whose exhaustive candidate space is small enough to run.
type corpusTable struct {
	name       string
	tab        *dataset.Table
	exhaustive bool
}

// corpus loads the 5 golden CSVs and X1–X10 at scale 0.02.
func corpus(t *testing.T) []corpusTable {
	t.Helper()
	csvs, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(csvs) != 5 {
		t.Fatalf("expected 5 golden CSVs, found %d", len(csvs))
	}
	sort.Strings(csvs)
	var tables []corpusTable
	for _, p := range csvs {
		tab, err := dataset.FromCSVFile(p)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, corpusTable{filepath.Base(p), tab, true})
	}
	for i := 0; i < 10; i++ {
		tab, err := datagen.TestSet(i, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, corpusTable{fmt.Sprintf("X%d", i+1), tab, false})
	}
	return tables
}

func ruleQueries(t *testing.T, tab *dataset.Table) []vizql.Query {
	t.Helper()
	qs, err := rules.EnumerateQueriesCtx(context.Background(), tab)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

func execute(t *testing.T, tab *dataset.Table, qs []vizql.Query, workers int) []*vizql.Node {
	t.Helper()
	nodes, err := vizql.ExecuteAllParallelCtx(context.Background(), tab, qs, workers)
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

// TestDedupeMatchesFormattedOnCorpus runs Dedupe and the formatted-body
// oracle over the executed candidates of the 5 golden CSVs (rule and
// exhaustive enumeration) and of X1–X10 at scale 0.02 (rule
// enumeration), and requires the same nodes, in the same order.
func TestDedupeMatchesFormattedOnCorpus(t *testing.T) {
	for _, tc := range corpus(t) {
		t.Run(tc.name, func(t *testing.T) {
			sets := [][]vizql.Query{ruleQueries(t, tc.tab)}
			if tc.exhaustive {
				sets = append(sets, vizql.EnumerateQueries(tc.tab))
			}
			for _, qs := range sets {
				nodes := execute(t, tc.tab, qs, 1)
				got, want := vizql.Dedupe(nodes), vizql.FormattedDedupe(nodes)
				if len(got) != len(want) {
					t.Fatalf("%d queries: Dedupe kept %d of %d nodes, the formatted-body oracle %d",
						len(qs), len(got), len(nodes), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("node %d: Dedupe kept %s, the oracle %s", i, got[i].Query.Key(), want[i].Query.Key())
					}
				}
				if len(got) == len(nodes) {
					t.Errorf("%d nodes, none a duplicate: the corpus no longer exercises Dedupe", len(nodes))
				}
			}
		})
	}
}

// TestExecuteAllParallelMatchesSequential requires every worker count to
// return the one-worker sequence, node for node and bit for bit, over
// the rule-enumerated queries (pairs and the one-column tail) of the
// corpus and over a batch mixing them with decorated (WHERE, DESC,
// LIMIT) variants.
func TestExecuteAllParallelMatchesSequential(t *testing.T) {
	tables := corpus(t)
	for _, tc := range tables {
		t.Run(tc.name, func(t *testing.T) {
			checkWorkers(t, tc.tab, ruleQueries(t, tc.tab))
		})
	}
	t.Run("decorated", func(t *testing.T) {
		tab := tables[0].tab
		var qs []vizql.Query
		for i, q := range ruleQueries(t, tab) {
			qs = append(qs, q)
			switch i % 3 {
			case 1:
				q.Desc, q.Limit = true, 3
			case 2:
				c := tab.Columns[i%len(tab.Columns)]
				q.Filters = []vizql.Filter{{Col: c.Name, Op: vizql.FilterNe, Str: c.RawAt(0)}}
			default:
				continue
			}
			qs = append(qs, q)
		}
		checkWorkers(t, tab, qs)
	})
}

func checkWorkers(t *testing.T, tab *dataset.Table, qs []vizql.Query) {
	t.Helper()
	want := execute(t, tab, qs, 1)
	if len(want) == 0 {
		t.Fatalf("%d queries executed to no node", len(qs))
	}
	for _, workers := range []int{2, 8, -1} {
		got := execute(t, tab, qs, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d nodes, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if err := sameNode(want[i], got[i]); err != nil {
				t.Fatalf("workers=%d: node %d (%s): %v", workers, i, want[i].Query.Key(), err)
			}
		}
	}
}

// sameNode reports the first difference between two nodes: query,
// chart, column metadata, transformed data, statistics, or features,
// comparing floats by their bits.
func sameNode(a, b *vizql.Node) error {
	switch {
	case a.Query.Key() != b.Query.Key():
		return fmt.Errorf("query %s", b.Query.Key())
	case a.Chart != b.Chart:
		return fmt.Errorf("chart %s, want %s", b.Chart, a.Chart)
	case a.XName != b.XName || a.YName != b.YName || a.XType != b.XType || a.YType != b.YType ||
		a.XOutType != b.XOutType || a.InputRows != b.InputRows:
		return fmt.Errorf("column metadata differs")
	case !sameBits(a.Corr, b.Corr) || !sameBits(a.TrendR2, b.TrendR2) || a.TrendKind != b.TrendKind:
		return fmt.Errorf("corr/trend (%v, %v, %v), want (%v, %v, %v)", b.Corr, b.TrendR2, b.TrendKind, a.Corr, a.TrendR2, a.TrendKind)
	case a.DistinctX() != b.DistinctX():
		return fmt.Errorf("d(X′) %d, want %d", b.DistinctX(), a.DistinctX())
	}
	for i := range a.Features {
		if !sameBits(a.Features[i], b.Features[i]) {
			return fmt.Errorf("feature %d = %v, want %v", i, b.Features[i], a.Features[i])
		}
	}
	ra, rb := a.Res, b.Res
	if ra.Len() != rb.Len() || ra.InputRows != rb.InputRows || len(ra.XOrder) != len(rb.XOrder) {
		return fmt.Errorf("result shape differs")
	}
	for i := range ra.XLabels {
		if ra.XLabels[i] != rb.XLabels[i] || !sameBits(ra.Y[i], rb.Y[i]) {
			return fmt.Errorf("bucket %d = (%q, %v), want (%q, %v)", i, rb.XLabels[i], rb.Y[i], ra.XLabels[i], ra.Y[i])
		}
	}
	for i := range ra.XOrder {
		if !sameBits(ra.XOrder[i], rb.XOrder[i]) {
			return fmt.Errorf("x order %d = %v, want %v", i, rb.XOrder[i], ra.XOrder[i])
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

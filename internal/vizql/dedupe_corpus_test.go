package vizql_test

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"github.com/deepeye/deepeye/internal/datagen"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/rules"
	"github.com/deepeye/deepeye/internal/vizql"
)

// TestDedupeMatchesFormattedOnCorpus runs Dedupe and the formatted-body
// oracle over the executed candidates of the 5 golden CSVs (rule and
// exhaustive enumeration) and of X1–X10 at scale 0.02 (rule
// enumeration), and requires the same nodes, in the same order.
func TestDedupeMatchesFormattedOnCorpus(t *testing.T) {
	csvs, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(csvs) != 5 {
		t.Fatalf("expected 5 golden CSVs, found %d", len(csvs))
	}
	sort.Strings(csvs)
	type table struct {
		name       string
		tab        *dataset.Table
		exhaustive bool
	}
	var tables []table
	for _, p := range csvs {
		tab, err := dataset.FromCSVFile(p)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, table{filepath.Base(p), tab, true})
	}
	for i := 0; i < 10; i++ {
		tab, err := datagen.TestSet(i, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, table{fmt.Sprintf("X%d", i+1), tab, false})
	}
	for _, tc := range tables {
		t.Run(tc.name, func(t *testing.T) {
			sets := [][]vizql.Query{rules.EnumerateQueries(tc.tab)}
			if tc.exhaustive {
				sets = append(sets, vizql.EnumerateQueries(tc.tab))
			}
			for _, qs := range sets {
				nodes := vizql.ExecuteAll(tc.tab, qs)
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

// Layer benchmarks for the cold top-k miss. All run over one fixed
// candidate set: the rule-enumerated queries of a 300×5 table with the
// column mix the serving benchmark registers (see servingTable), and
// their executed candidates. CI's benchdiff gates their ns/op, B/op and
// allocs/op, so a Dedupe that formats values as text again, a Hasse
// reduction that sorts and allocates per node, or a parallel executor
// split that loses the batch caches' sharing shows up as a regression.
package deepeye

import (
	"context"
	"testing"

	"github.com/deepeye/deepeye/internal/rank"
	"github.com/deepeye/deepeye/internal/rules"
	"github.com/deepeye/deepeye/internal/vizql"
)

// coldMissQueries returns the 300×5 table and its rule-enumerated
// queries.
func coldMissQueries(b *testing.B) (*Table, []vizql.Query) {
	b.Helper()
	tab := servingTable(b, "coldmiss", 300, 5, 1)
	qs, err := rules.EnumerateQueriesCtx(context.Background(), tab)
	if err != nil {
		b.Fatal(err)
	}
	return tab, qs
}

// coldMissNodes returns the executed candidates of the 300×5 table.
func coldMissNodes(b *testing.B) []*vizql.Node {
	b.Helper()
	tab, qs := coldMissQueries(b)
	nodes, err := vizql.ExecuteAllParallelCtx(context.Background(), tab, qs, 1)
	if err != nil {
		b.Fatal(err)
	}
	return nodes
}

// BenchmarkExecute times vizql.ExecuteAllParallelCtx over the queries on
// one worker and on two. Each X column's queries share one set of batch
// caches at every worker count, so w2 costs no more work than serial.
func BenchmarkExecute(b *testing.B) {
	tab, qs := coldMissQueries(b)
	for _, w := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"w2", 2}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := vizql.ExecuteAllParallelCtx(context.Background(), tab, qs, w.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDedupe times vizql.Dedupe over the executed candidates.
func BenchmarkDedupe(b *testing.B) {
	nodes := coldMissNodes(b)
	kept := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kept = len(vizql.Dedupe(nodes))
	}
	b.ReportMetric(float64(kept), "kept")
}

// BenchmarkRankOrder times rank.OrderCtx — shortlist, dominance graph,
// Hasse reduction and scores — over the deduplicated candidates.
func BenchmarkRankOrder(b *testing.B) {
	nodes := vizql.Dedupe(coldMissNodes(b))
	ctx := context.Background()
	factors, err := rank.ComputeFactorsWorkersCtx(ctx, nodes, rank.FactorOptions{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rank.OrderCtx(ctx, nodes, factors, rank.SelectOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

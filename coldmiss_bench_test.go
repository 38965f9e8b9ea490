// Layer benchmarks for the cold top-k miss. Both run over one fixed
// candidate set: the rule-enumerated, executed candidates of a 300×5
// table with the column mix the serving benchmark registers (see
// servingTable). CI's benchdiff gates their ns/op, B/op and allocs/op,
// so a Dedupe that formats values as text again, or a Hasse reduction
// that sorts and allocates per node, shows up as a regression.
package deepeye

import (
	"context"
	"testing"

	"github.com/deepeye/deepeye/internal/rank"
	"github.com/deepeye/deepeye/internal/rules"
	"github.com/deepeye/deepeye/internal/vizql"
)

// coldMissNodes returns the executed candidates of the 300×5 table.
func coldMissNodes(b *testing.B) []*vizql.Node {
	b.Helper()
	tab := servingTable(b, "coldmiss", 300, 5, 1)
	qs, err := rules.EnumerateQueriesCtx(context.Background(), tab)
	if err != nil {
		b.Fatal(err)
	}
	nodes, err := vizql.ExecuteAllCtx(context.Background(), tab, qs)
	if err != nil {
		b.Fatal(err)
	}
	return nodes
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
	factors := rank.ComputeFactors(nodes, rank.FactorOptions{})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rank.OrderCtx(ctx, nodes, factors, rank.SelectOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Explore demonstrates the optimized selection paths on a wide table
// (many columns → a large Fig. 3 search space): the progressive
// tournament selector of §V-B against the full dominance-graph ranking,
// with the work saved by rule pruning and bound pruning printed along
// the way.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	deepeye "github.com/deepeye/deepeye"
	"github.com/deepeye/deepeye/internal/datagen"
	"github.com/deepeye/deepeye/internal/progressive"
	"github.com/deepeye/deepeye/internal/rules"
	"github.com/deepeye/deepeye/internal/vizql"
)

func main() {
	// X3 (McDonald's Menu): 23 columns — 528·23·22 = 267,168 two-column
	// candidates in the full search space.
	tab, err := datagen.TestSet(2, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	m := tab.NumCols()
	fmt.Printf("table: %d rows × %d columns\n", tab.NumRows(), m)
	fmt.Printf("Fig. 3 search space: %d two-column + %d one-column candidates\n\n",
		vizql.SearchSpaceTwoColumns(m), vizql.SearchSpaceOneColumn(m))

	// Rule pruning (§V-A).
	start := time.Now()
	ruleQueries, err := rules.EnumerateQueriesCtx(context.Background(), tab)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rule-pruned candidates: %d (%.1f%% of the two-column bound) in %v\n",
		len(ruleQueries),
		100*float64(len(ruleQueries))/float64(vizql.SearchSpaceTwoColumns(m)),
		time.Since(start).Round(time.Millisecond))

	// Full pipeline: materialize + dominance graph + top-k.
	start = time.Now()
	sys := deepeye.New(deepeye.Options{})
	topGraph, err := sys.TopK(tab, 5)
	if err != nil {
		log.Fatal(err)
	}
	graphTime := time.Since(start)

	// Progressive tournament (§V-B): same table, same k.
	start = time.Now()
	results, stats, err := progressive.TopKCtx(context.Background(), tab, 5, progressive.Options{IncludeOneColumn: true})
	if err != nil {
		log.Fatal(err)
	}
	progTime := time.Since(start)

	fmt.Printf("\nfull graph ranking:       %v\n", graphTime.Round(time.Millisecond))
	fmt.Printf("progressive tournament:   %v (materialized %d of %d specs, %.1f%% pruned)\n\n",
		progTime.Round(time.Millisecond),
		stats.SpecsMaterialized, stats.SpecsTotal,
		100*(1-float64(stats.SpecsMaterialized)/float64(stats.SpecsTotal)))

	fmt.Println("top-5 (dominance graph):")
	for _, v := range topGraph {
		fmt.Printf("  #%d %-7s %s vs %s\n", v.Rank, v.Chart, v.YName(), v.XName())
	}
	fmt.Println("\ntop-5 (progressive):")
	for i, r := range results {
		fmt.Printf("  #%d %-7s %s vs %s (score %.3f)\n",
			i+1, r.Node.Chart, r.Node.YName, r.Node.XName, r.Score)
	}
	fmt.Println("\nbest chart, rendered:")
	fmt.Println(topGraph[0].RenderASCIISize(60, 12))
}

// Explore demonstrates selection on a wide table (many columns → a
// large Fig. 3 search space): the work saved by rule pruning, then the
// dominance-graph top-5.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	deepeye "github.com/deepeye/deepeye"
	"github.com/deepeye/deepeye/internal/datagen"
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
	fmt.Printf("full graph ranking:     %v\n\n", time.Since(start).Round(time.Millisecond))

	fmt.Println("top-5 (dominance graph):")
	for _, v := range topGraph {
		fmt.Printf("  #%d %-7s %s vs %s\n", v.Rank, v.Chart, v.YName(), v.XName())
	}
	fmt.Println("\nbest chart, rendered:")
	fmt.Println(topGraph[0].RenderASCIISize(60, 12))
}

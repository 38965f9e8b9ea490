package vizql

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/transform"
)

// TestCountSharedAcrossY checks the executor's count sharing: every
// bucketed count node of the exhaustive two- and one-column enumeration
// equals a standalone Execute of its query (labels, order keys, Y bits,
// derived statistics, features, column types), the count nodes of one
// (X, bucketing, sort class) share a single *Result across their Y
// columns and chart types, and a count naming an unknown Y is dropped.
func TestCountSharedAcrossY(t *testing.T) {
	for _, tab := range []*dataset.Table{flightTable(t, 300), nullsTable(t, 300)} {
		t.Run(tab.Name, func(t *testing.T) { checkCountSharing(t, tab) })
	}
}

// nullsTable is a mixed-type table with null cells in every column, so
// the buckets a count keeps differ from those SUM/AVG keep.
func nullsTable(t *testing.T, rows int) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var sb strings.Builder
	sb.WriteString("day,region,a,b\n")
	cell := func(s string) string {
		if rng.Intn(6) == 0 {
			return ""
		}
		return s
	}
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%s,%s,%s,%s\n",
			cell(fmt.Sprintf("2020-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))),
			cell([]string{"north", "south", "east"}[rng.Intn(3)]),
			cell(strconv.FormatFloat(rng.NormFloat64()*10, 'f', 2, 64)),
			cell(strconv.Itoa(rng.Intn(50)-10)))
	}
	tab, err := dataset.FromCSV("nulls", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func checkCountSharing(t *testing.T, tab *dataset.Table) {
	qs := append(EnumerateQueries(tab), EnumerateOneColumnQueries(tab)...)
	var unknownY Query
	for _, q := range qs {
		if countsOnly(q.Spec) {
			unknownY = q
			unknownY.Y = "no_such_column"
			break
		}
	}
	qs = append(qs, unknownY)
	nodes := executeAll(tab, qs, 1)

	type sibling struct {
		x    string
		spec specKey
		sort transform.SortAxis
	}
	shared := make(map[sibling]*transform.Result)
	ys := make(map[sibling]map[string]bool)
	checked := 0
	for _, n := range nodes {
		q := n.Query
		if q.Y == unknownY.Y {
			t.Fatalf("%s names an unknown Y column but was executed", q.Key())
		}
		if !countsOnly(q.Spec) {
			continue
		}
		single, err := Execute(tab, q)
		if err != nil {
			t.Fatalf("%s: batch executed it, Execute failed: %v", q.Key(), err)
		}
		assertSameNode(t, n, single)
		checked++

		sc := q.Order
		if sc == transform.SortX {
			sc = transform.SortNone
		}
		k := sibling{q.X, keyOf(q.Spec), sc}
		if r, ok := shared[k]; !ok {
			shared[k] = n.Res
			ys[k] = make(map[string]bool)
		} else if r != n.Res {
			t.Fatalf("%s: count does not share its siblings' Result", q.Key())
		}
		ys[k][q.Y] = true
	}
	acrossY := 0
	for _, set := range ys {
		if len(set) > 1 {
			acrossY++
		}
	}
	if checked == 0 || acrossY == 0 {
		t.Fatalf("checked %d count nodes, %d groups span several Y columns: nothing shared", checked, acrossY)
	}
}

// assertSameNode compares a batch node with a standalone one bit for bit.
func assertSameNode(t *testing.T, got, want *Node) {
	t.Helper()
	key := got.Query.Key()
	if got.XName != want.XName || got.YName != want.YName || got.XType != want.XType ||
		got.YType != want.YType || got.XOutType != want.XOutType || got.InputRows != want.InputRows {
		t.Fatalf("%s: metadata %s/%s %v/%v/%v rows %d, want %s/%s %v/%v/%v rows %d", key,
			got.XName, got.YName, got.XType, got.YType, got.XOutType, got.InputRows,
			want.XName, want.YName, want.XType, want.YType, want.XOutType, want.InputRows)
	}
	g, w := got.Res, want.Res
	if g.Len() != w.Len() {
		t.Fatalf("%s: %d buckets, want %d", key, g.Len(), w.Len())
	}
	for i := 0; i < g.Len(); i++ {
		if g.XLabels[i] != w.XLabels[i] || !sameBits(g.XOrder[i], w.XOrder[i]) || !sameBits(g.Y[i], w.Y[i]) {
			t.Fatalf("%s: bucket %d is (%q, %v, %v), want (%q, %v, %v)", key, i,
				g.XLabels[i], g.XOrder[i], g.Y[i], w.XLabels[i], w.XOrder[i], w.Y[i])
		}
	}
	if !sameBits(got.Corr, want.Corr) || !sameBits(got.TrendR2, want.TrendR2) || got.TrendKind != want.TrendKind {
		t.Fatalf("%s: corr %v trend %v/%v, want %v %v/%v", key,
			got.Corr, got.TrendKind, got.TrendR2, want.Corr, want.TrendKind, want.TrendR2)
	}
	if got.DistinctX() != want.DistinctX() {
		t.Fatalf("%s: d(X') %d, want %d", key, got.DistinctX(), want.DistinctX())
	}
	for i := range got.Features {
		if !sameBits(got.Features[i], want.Features[i]) {
			t.Fatalf("%s: feature %d is %v, want %v", key, i, got.Features[i], want.Features[i])
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

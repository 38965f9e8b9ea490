package vizql

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/deepeye/deepeye/internal/chart"
	"github.com/deepeye/deepeye/internal/transform"
)

// fmtDataFingerprint is the historical fmt.Fprintf encoding of the dedupe
// key, kept verbatim as the reference for the strconv implementation.
func fmtDataFingerprint(n *Node) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s|%d|", n.Chart, n.XName, n.YName, n.Res.Len())
	for i := 0; i < n.Res.Len(); i++ {
		fmt.Fprintf(h, "%s=%.9g;", n.Res.XLabels[i], roundSig(n.Res.Y[i]))
	}
	return fmt.Sprintf("%x", h.Sum64())
}

// TestDataFingerprintMatchesFmt pins the strconv-built dedupe stream to
// the fmt encoding it replaced, over adversarial values (every %g shape:
// fixed, exponent, subnormal, ±Inf, NaN, ±0) and labels (separator
// bytes, NUL, unicode, empties), plus every node the real enumeration
// produces for a mixed-type table.
func TestDataFingerprintMatchesFmt(t *testing.T) {
	ys := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.5,
		123456789, 1234567891, 12345678912, // crosses the 9-sig-digit edge
		1e-10, -1e-10, 1e21, -1e21, 1e-21,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		3.141592653589793, 2.5, 3.5, // round-to-even candidates
		1.0000000005, 0.999999999499, 99999999.95,
	}
	labels := []string{
		"", "a", "=", ";", "|", "a=b;c|d", "a\x00b", "héllo", "0", "-1",
		"[10, 20)", "wk 2024-01-01", "00:00",
	}
	var nodes []*Node
	for i, y := range ys {
		nodes = append(nodes, &Node{
			Chart: chart.Type(i % 4),
			XName: labels[i%len(labels)],
			YName: labels[(i+7)%len(labels)],
			Res: &transform.Result{
				XLabels: []string{labels[i%len(labels)], labels[(i+3)%len(labels)]},
				Y:       []float64{y, ys[(i+11)%len(ys)]},
			},
		})
	}
	// Empty result and a long mixed series.
	nodes = append(nodes, &Node{Chart: chart.Bar, XName: "x", YName: "y", Res: &transform.Result{}})
	long := &transform.Result{}
	for i, y := range ys {
		long.XLabels = append(long.XLabels, labels[i%len(labels)])
		long.Y = append(long.Y, y)
	}
	nodes = append(nodes, &Node{Chart: chart.Line, XName: "x", YName: "y", Res: long})

	// Real enumeration output for a mixed categorical/temporal/numerical table.
	tab := flightTable(t, 60)
	nodes = append(nodes, executeAll(tab, EnumerateQueries(tab), 1)...)

	for i, n := range nodes {
		if got, want := dataFingerprint(n), fmtDataFingerprint(n); got != want {
			t.Errorf("node %d (%s|%s|%s len=%d): strconv fingerprint %s != fmt reference %s",
				i, n.Chart, n.XName, n.YName, n.Res.Len(), got, want)
		}
	}
}

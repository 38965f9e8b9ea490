package vizql

import (
	"hash/maphash"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"github.com/deepeye/deepeye/internal/chart"
	"github.com/deepeye/deepeye/internal/transform"
)

// formattedDedupe is Dedupe as it was before bodies were keyed without
// formatting: each distinct Result's body is formatted
// ("label=%.9g;" per bucket) and hashed. It is the oracle the numeric
// keys must agree with node for node.
func formattedDedupe(nodes []*Node) []*Node {
	type dedupeKey struct{ header, body uint64 }
	seen := make(map[dedupeKey]bool, len(nodes))
	bodies := make(map[*transform.Result]uint64, len(nodes))
	var out []*Node
	for _, n := range nodes {
		bh, ok := bodies[n.Res]
		if !ok {
			bh = maphash.Bytes(dedupeSeed, appendFingerprintBody(nil, n.Res))
			bodies[n.Res] = bh
		}
		var hdr [64]byte
		key := dedupeKey{header: maphash.Bytes(dedupeSeed, appendFingerprintHeader(hdr[:0], n)), body: bh}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, n)
	}
	return out
}

// FormattedDedupe exposes the oracle to the corpus test in vizql_test,
// which needs the rule enumerator (an importer of this package).
var FormattedDedupe = formattedDedupe

// adversarialValues returns the inputs where a numeric key could part
// from the formatted text: both sides of every decade from 1e-25 to
// 1e25 (where log10 can be off by one and roundSig's scale leaves the
// exact powers of ten at 1e22), both sides of a 9-digit rounding tie in
// each decade, signed zeros, NaN payloads, infinities, integers around
// ±1e9 (the end of the integer fast path), subnormals, and random values
// over 61 decades.
func adversarialValues() []float64 {
	const ulps = 2000
	var vs []float64
	around := func(c float64, n int) {
		for _, s := range []float64{1, -1} {
			v := s * c
			for i := 0; i < n; i++ {
				vs = append(vs, v)
				v = math.Nextafter(v, math.Inf(1))
			}
			v = s * c
			for i := 0; i < n; i++ {
				v = math.Nextafter(v, math.Inf(-1))
				vs = append(vs, v)
			}
		}
	}
	for e := -25; e <= 25; e++ {
		p := math.Pow(10, float64(e))
		around(p, ulps)
		around(1.234567885*p, 200) // a tie at the 9th digit
		around(9.999999995*p, 200) // rounds up into the next decade
	}
	around(1e9, ulps)
	for _, c := range []float64{999999999, 1000000001, 999999999.5, 1e9 + 0.5} {
		around(c, 20)
	}
	vs = append(vs, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0xFFF8000000000000),
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0x7FFFFFFFFFFFFFFF), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64)
	for _, c := range []float64{math.SmallestNonzeroFloat64, 1e-320, 1e-310, 2.2250738585072009e-308, 1e-300} {
		around(c, 50)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		vs = append(vs, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(61)-30)))
	}
	return vs
}

// TestDedupeKeyMatchesFormattedBody checks that Dedupe's numeric value
// key is equal exactly when the formatted texts are, over adversarial
// values, and that Dedupe agrees with the formatted-body oracle node for
// node on bodies built from them (with and without separator bytes in
// the labels). The golden CSVs and X1–X10 are compared in
// TestDedupeMatchesFormattedOnCorpus.
func TestDedupeKeyMatchesFormattedBody(t *testing.T) {
	vs := adversarialValues()
	textOf := func(v float64) string { return strconv.FormatFloat(roundSig(v), 'g', 9, 64) }
	keyText := make(map[uint64]string)
	textKey := make(map[string]uint64)
	paths := make(map[string]int) // bit 0: a value took roundSig's bits, bit 1: its parsed text
	for _, v := range vs {
		if !math.IsNaN(v) && math.IsNaN(roundSig(v)) {
			t.Fatalf("roundSig(%v) (bits %#x) is NaN", v, math.Float64bits(v))
		}
		k, s := valueKey(v), textOf(v)
		if prev, ok := keyText[k]; ok && prev != s {
			t.Fatalf("value %v (bits %#x): key %#x is shared by texts %q and %q", v, math.Float64bits(v), k, prev, s)
		}
		if prev, ok := textKey[s]; ok && prev != k {
			t.Fatalf("value %v (bits %#x): text %q has keys %#x and %#x", v, math.Float64bits(v), s, prev, k)
		}
		keyText[k], textKey[s] = s, k
		if _, nearest := roundSigNearest(v); nearest {
			paths[s] |= 1
		} else {
			paths[s] |= 2
		}
	}
	// Both paths must be exercised, and must meet on some text (1e+09,
	// say, reached from 1e9 itself and from values just above it).
	met := 0
	for _, p := range paths {
		if p == 3 {
			met++
		}
	}
	if met == 0 {
		t.Fatalf("no text is reached by both key paths over %d values (%d texts)", len(vs), len(paths))
	}

	// One-bucket and two-bucket bodies over every 4th value, with clean
	// labels and with labels holding the separators, deduplicated both
	// ways; the two-bucket bodies pair a value with its neighbour.
	for _, labels := range [][]string{{"a", "b"}, {"x>=0", "a;b"}} {
		var nodes []*Node
		for i := 0; i < len(vs); i += 4 {
			nodes = append(nodes,
				&Node{Chart: chart.Bar, XName: "x", YName: "y", Res: &transform.Result{XLabels: labels[:1], Y: []float64{vs[i]}}},
				&Node{Chart: chart.Bar, XName: "x", YName: "y", Res: &transform.Result{XLabels: labels, Y: []float64{vs[i], vs[(i+1)%len(vs)]}}},
			)
		}
		assertSameNodes(t, Dedupe(nodes), formattedDedupe(nodes))
	}

	// Labels whose separators let different buckets format alike.
	ambiguous := []*Node{
		{Chart: chart.Bar, XName: "x", YName: "y", Res: &transform.Result{XLabels: []string{"p", "q=1;r"}, Y: []float64{1, 2}}},
		{Chart: chart.Bar, XName: "x", YName: "y", Res: &transform.Result{XLabels: []string{"p=1;q", "r"}, Y: []float64{1, 2}}},
		{Chart: chart.Bar, XName: "x", YName: "y", Res: &transform.Result{XLabels: []string{"p", "q"}, Y: []float64{1, 2}}},
	}
	if got := Dedupe(ambiguous); len(got) != 2 {
		t.Fatalf("Dedupe kept %d of the ambiguous bodies, want 2 (the first two format alike)", len(got))
	}
	assertSameNodes(t, Dedupe(ambiguous), formattedDedupe(ambiguous))
}

// TestRoundSigNearestScalesAreExact pins the premise of roundSigNearest:
// the scales 10^0 … 10^22 it trusts are the exact powers of ten.
func TestRoundSigNearestScalesAreExact(t *testing.T) {
	for e := 0; e <= 22; e++ {
		want, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		if got := pow10tab[e+350]; got != want {
			t.Errorf("pow10tab[10^%d] = %v, want %v", e, got, want)
		}
	}
}

func assertSameNodes(t *testing.T, got, want []*Node) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("Dedupe kept %d nodes, the formatted-body oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("node %d: Dedupe kept %s (%v), the oracle %s (%v)", i,
				got[i].Query.Key(), got[i].Res.Y, want[i].Query.Key(), want[i].Res.Y)
		}
	}
}

package rank

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/deepeye/deepeye/internal/chart"
	"github.com/deepeye/deepeye/internal/transform"
	"github.com/deepeye/deepeye/internal/vizql"
)

// degenerateNode builds a vizql.Node straight from fuzz inputs, skipping
// the loader and transform layers entirely — the adversarial shapes they
// would normally prevent (nil results, negative row counts, NaN
// correlations) are exactly what the factor computations must survive.
func degenerateNode(chartByte uint8, inputRows int, resLen uint8, hasRes bool, y, corr, trend float64) *vizql.Node {
	n := &vizql.Node{
		Chart:     chart.Type(int(chartByte % 6)), // includes out-of-range types
		XName:     "x",
		YName:     "y",
		InputRows: inputRows,
		Corr:      corr,
		TrendR2:   trend,
	}
	if hasRes {
		res := &transform.Result{InputRows: inputRows}
		for i := 0; i < int(resLen%32); i++ {
			res.XLabels = append(res.XLabels, fmt.Sprintf("l%d", i%5))
			res.XOrder = append(res.XOrder, float64(i))
			res.Y = append(res.Y, y*float64(i-3))
		}
		n.Res = res
	}
	return n
}

// FuzzRawQ: the transformation-quality factor (eq. 6) must stay inside
// [0, 1] and never panic for any node shape — including nil results,
// zero or negative InputRows (which would flip the ratio's sign), and
// result sets larger than the claimed input.
func FuzzRawQ(f *testing.F) {
	f.Add(uint8(0), 0, uint8(0), false)
	f.Add(uint8(1), -5, uint8(3), true)
	f.Add(uint8(2), 100, uint8(7), true)
	f.Add(uint8(3), 1, uint8(31), true)
	f.Add(uint8(4), math.MinInt, uint8(1), true)
	f.Fuzz(func(t *testing.T, chartByte uint8, inputRows int, resLen uint8, hasRes bool) {
		n := degenerateNode(chartByte, inputRows, resLen, hasRes, 1, 0, 0)
		q := rawQ(n)
		if math.IsNaN(q) || q < 0 || q > 1 {
			t.Fatalf("rawQ = %v out of [0,1] for inputRows=%d resLen=%d hasRes=%t", q, inputRows, resLen, hasRes)
		}
	})
}

// FuzzComputeFactors: the full factor pipeline must never panic and must
// emit factors inside [0, 1] for arbitrary candidate sets, including
// nodes with NaN/±Inf statistics — and the parallel fan-out must agree
// with the serial pass bit for bit on whatever the fuzzer finds.
func FuzzComputeFactors(f *testing.F) {
	f.Add(int64(1), uint8(5), 0, 1.0, 0.5, 0.5)
	f.Add(int64(2), uint8(1), -10, math.Inf(1), math.NaN(), -1.0)
	f.Add(int64(3), uint8(20), 1000, -2.5, math.Inf(-1), 2.0)
	f.Add(int64(4), uint8(0), 0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, count uint8, inputRows int, y, corr, trend float64) {
		rng := rand.New(rand.NewSource(seed))
		nodes := make([]*vizql.Node, int(count%24)+1)
		for i := range nodes {
			nodes[i] = degenerateNode(
				uint8(rng.Intn(256)), inputRows+rng.Intn(7)-3, uint8(rng.Intn(256)),
				rng.Intn(4) != 0, y, corr, trend)
		}
		fs := computeFactors(nodes)
		if len(fs) != len(nodes) {
			t.Fatalf("got %d factor triples for %d nodes", len(fs), len(nodes))
		}
		for i, fa := range fs {
			for name, v := range map[string]float64{"M": fa.M, "Q": fa.Q, "W": fa.W} {
				if math.IsNaN(v) || v < 0 || v > 1 {
					t.Fatalf("node %d: factor %s = %v out of [0,1]", i, name, v)
				}
			}
		}
		par, err := ComputeFactorsWorkersCtx(context.Background(), nodes, FactorOptions{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fs {
			if math.Float64bits(fs[i].M) != math.Float64bits(par[i].M) ||
				math.Float64bits(fs[i].Q) != math.Float64bits(par[i].Q) ||
				math.Float64bits(fs[i].W) != math.Float64bits(par[i].W) {
				t.Fatalf("node %d: parallel factors %+v != serial %+v", i, par[i], fs[i])
			}
		}
	})
}

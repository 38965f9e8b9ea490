// Benchmarks for the parallel ranking engine: serial-vs-N-worker
// dominance-graph construction over a 2k-candidate synthetic factor set
// (the selection pipeline's super-linear hot spot). The serial/w* shapes
// share one factor set, so the benchdiff gate tracks both the serial
// baseline and the parallel speedup across PRs. On a multi-core box the
// naive O(n²) build is embarrassingly parallel — w8 targets ≥3× over
// serial at 8 cores; single-core runners report ~1× by construction.
package deepeye_test

import (
	"context"
	"math/rand"
	"testing"

	"github.com/deepeye/deepeye/internal/rank"
	"github.com/deepeye/deepeye/internal/vizql"
)

// benchFactors mirrors the differential suite's generator: a half-coarse
// half-continuous factor distribution that exercises dominance chains,
// ties, and incomparable pairs.
func benchFactors(n int) []rank.Factors {
	rng := rand.New(rand.NewSource(1234))
	fs := make([]rank.Factors, n)
	for i := range fs {
		if rng.Intn(2) == 0 {
			fs[i] = rank.Factors{
				M: float64(rng.Intn(5)) / 4,
				Q: float64(rng.Intn(5)) / 4,
				W: float64(rng.Intn(5)) / 4,
			}
		} else {
			fs[i] = rank.Factors{M: rng.Float64(), Q: rng.Float64(), W: rng.Float64()}
		}
	}
	return fs
}

func benchBuildGraphParallel(b *testing.B, method rank.BuildMethod, workers int) {
	const n = 2000
	fs := benchFactors(n)
	nodes := make([]*vizql.Node, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := rank.BuildGraphCtx(context.Background(), nodes, fs, method, workers)
		if err != nil || len(g.Out) != n {
			b.Fatal("bad graph")
		}
	}
}

func BenchmarkBuildGraphParallel(b *testing.B) {
	methods := []struct {
		name   string
		method rank.BuildMethod
	}{
		{"naive", rank.BuildNaive},
		{"quicksort", rank.BuildQuickSort},
		{"rangetree", rank.BuildRangeTree},
	}
	for _, m := range methods {
		b.Run(m.name+"/serial", func(b *testing.B) { benchBuildGraphParallel(b, m.method, 1) })
		for _, w := range []int{2, 4, 8} {
			w := w
			b.Run(m.name+"/w"+string(rune('0'+w)), func(b *testing.B) { benchBuildGraphParallel(b, m.method, w) })
		}
	}
}

// BenchmarkComputeFactorsParallel measures the factor fan-out on the
// same synthetic scale (nodes here are degenerate, so this isolates the
// pool dispatch overhead floor rather than rawM's work).
func BenchmarkComputeFactorsParallel(b *testing.B) {
	const n = 2000
	nodes := make([]*vizql.Node, n)
	for i := range nodes {
		nodes[i] = &vizql.Node{XName: "x", YName: "y", InputRows: 100}
	}
	for _, w := range []int{1, 4} {
		name := "serial"
		if w != 1 {
			name = "w4"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rank.ComputeFactorsWorkersCtx(context.Background(), nodes, rank.FactorOptions{}, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

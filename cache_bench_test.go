// Benchmarks for the result cache: cold runs the full selection
// pipeline every iteration, warm serves repeated TopK calls on the same
// content from the fingerprint-keyed cache, and the parallel variant
// measures contended warm reads across GOMAXPROCS goroutines. The CI
// bench-regression gate compares the medians of these against main.
package deepeye_test

import (
	"testing"

	deepeye "github.com/deepeye/deepeye"
	"github.com/deepeye/deepeye/internal/datagen"
)

// benchCacheSize matches the server's -cache-size default: at 256 MiB
// the 16 MiB per-shard budget comfortably holds the ~13 MiB ranked
// candidate set for the benchmark table, so rank-level reuse is live.
const benchCacheSize = 256 << 20

// benchCacheTable returns the FlyDelay test set at 2% scale, the same
// table BenchmarkGraphTopK uses, so cold-vs-warm deltas are comparable
// to the uncached pipeline numbers.
func benchCacheTable(b *testing.B) *deepeye.Table {
	b.Helper()
	tab, err := datagen.TestSet(9, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	return tab
}

// BenchmarkTopKCachedCold measures the miss path: every iteration purges
// the cache, so TopK pays fingerprinting plus the full pipeline.
func BenchmarkTopKCachedCold(b *testing.B) {
	tab := benchCacheTable(b)
	sys := deepeye.New(deepeye.Options{IncludeOneColumn: true, CacheSize: benchCacheSize})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.PurgeCache()
		if _, err := sys.TopK(tab, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopKCachedWarm measures the hit path: one priming call, then
// every iteration is a fingerprint lookup plus a cache read.
func BenchmarkTopKCachedWarm(b *testing.B) {
	tab := benchCacheTable(b)
	sys := deepeye.New(deepeye.Options{IncludeOneColumn: true, CacheSize: benchCacheSize})
	if _, err := sys.TopK(tab, 5); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.TopK(tab, 5); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st, _ := sys.CacheStats()
	b.ReportMetric(float64(st.Hits)/float64(b.N), "hits/op")
}

// BenchmarkTopKCachedWarmParallel hammers the warm path from all procs,
// exercising shard-lock contention on the hot read side.
func BenchmarkTopKCachedWarmParallel(b *testing.B) {
	tab := benchCacheTable(b)
	sys := deepeye.New(deepeye.Options{IncludeOneColumn: true, CacheSize: benchCacheSize})
	if _, err := sys.TopK(tab, 5); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := sys.TopK(tab, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTopKCachedRankReuse alternates k so the final-result entry
// always misses but the ranked candidate set is reused — the middle
// ground between cold and warm.
func BenchmarkTopKCachedRankReuse(b *testing.B) {
	tab := benchCacheTable(b)
	sys := deepeye.New(deepeye.Options{IncludeOneColumn: true, CacheSize: benchCacheSize})
	if _, err := sys.TopK(tab, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// k cycles 2..9: each k caches its own result, all share one rank set.
		if _, err := sys.TopK(tab, 2+i%8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchCachedWarm measures a Search after a TopK on the same
// table: the first search blends keyword affinity into the ranked set
// TopK cached, and every later one is an answer cache hit. A Search
// that re-ranked the table, or stopped caching its answer, would show
// here as a multiple of this figure.
func BenchmarkSearchCachedWarm(b *testing.B) {
	tab := benchCacheTable(b)
	sys := deepeye.New(deepeye.Options{IncludeOneColumn: true, CacheSize: benchCacheSize})
	if _, err := sys.TopK(tab, 5); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Search(tab, "departure delay trend by hour", 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVegaLiteCached measures a warm render of a cached 500-point
// scatter: a query cache hit plus the memoized Vega-Lite spec, which
// costs about 0.8 ms on a 2-vCPU Xeon when it is rendered anew.
func BenchmarkVegaLiteCached(b *testing.B) {
	gen, err := datagen.Generate(datagen.Spec{Name: "pts", Tuples: 500, Seed: 1, Cols: []datagen.Col{
		{Name: "metric1", Kind: datagen.KindUniform, Lo: 0, Hi: 1000},
		{Name: "metric2", Kind: datagen.KindDerived, Base: "metric1", Scale: 2, Noise: 25},
	}})
	if err != nil {
		b.Fatal(err)
	}
	sys := deepeye.New(deepeye.Options{CacheSize: benchCacheSize})
	const src = "VISUALIZE scatter SELECT metric1, metric2 FROM pts"
	v, err := sys.Query(gen, src)
	if err != nil {
		b.Fatal(err)
	}
	if v.Points() != 500 {
		b.Fatalf("scatter has %d points, want 500", v.Points())
	}
	if _, err := v.VegaLite(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := sys.Query(gen, src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.VegaLite(); err != nil {
			b.Fatal(err)
		}
	}
}

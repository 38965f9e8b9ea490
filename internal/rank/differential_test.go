package rank

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/deepeye/deepeye/internal/vizql"
)

// randFactors generates a seeded factor set on a coarse grid (forcing
// ties, strict dominance, and incomparable pairs — every branch of the
// builders) mixed with fine-grained values (deep dominance chains).
func randFactors(seed int64, n int) []Factors {
	rng := rand.New(rand.NewSource(seed))
	fs := make([]Factors, n)
	for i := range fs {
		if rng.Intn(2) == 0 {
			fs[i] = Factors{
				M: float64(rng.Intn(5)) / 4,
				Q: float64(rng.Intn(5)) / 4,
				W: float64(rng.Intn(5)) / 4,
			}
		} else {
			fs[i] = Factors{M: rng.Float64(), Q: rng.Float64(), W: rng.Float64()}
		}
	}
	return fs
}

// assertGraphsBitIdentical fails unless the two graphs agree exactly:
// same comparison count, same edge sets with bitwise-equal weights, and
// bitwise-equal scores.
func assertGraphsBitIdentical(t *testing.T, want, got *Graph, label string) {
	t.Helper()
	if want.Comparisons() != got.Comparisons() {
		t.Errorf("%s: comparisons = %d, want %d", label, got.Comparisons(), want.Comparisons())
	}
	if want.NumEdges() != got.NumEdges() {
		t.Errorf("%s: edges = %d, want %d", label, got.NumEdges(), want.NumEdges())
	}
	for i := range want.Out {
		if len(want.Out[i]) != len(got.Out[i]) {
			t.Fatalf("%s: row %d has %d edges, want %d", label, i, len(got.Out[i]), len(want.Out[i]))
		}
		for k := range want.Out[i] {
			if want.Out[i][k] != got.Out[i][k] {
				t.Fatalf("%s: row %d edge %d targets %d, want %d", label, i, k, got.Out[i][k], want.Out[i][k])
			}
			if math.Float64bits(want.OutW[i][k]) != math.Float64bits(got.OutW[i][k]) {
				t.Fatalf("%s: row %d edge %d weight %v != %v (bitwise)", label, i, k, got.OutW[i][k], want.OutW[i][k])
			}
		}
	}
	ws, gs := want.Scores(), got.Scores()
	for i := range ws {
		if math.Float64bits(ws[i]) != math.Float64bits(gs[i]) {
			t.Fatalf("%s: score[%d] = %v, want %v (bitwise)", label, i, gs[i], ws[i])
		}
	}
}

// TestParallelGraphMatchesSerial is the core differential guarantee: for
// every build method and worker count, BuildGraphCtx output is
// bit-identical to its one-worker serial oracle — edge sets, weights,
// comparison counts, scores, and top-k order.
func TestParallelGraphMatchesSerial(t *testing.T) {
	methods := []BuildMethod{BuildNaive, BuildQuickSort, BuildRangeTree}
	names := []string{"naive", "quicksort", "rangetree"}
	for _, n := range []int{48, 63, 200, 500} {
		for seed := int64(1); seed <= 4; seed++ {
			fs := randFactors(seed, n)
			nodes := make([]*vizql.Node, n)
			for mi, method := range methods {
				serial, err := BuildGraphCtx(context.Background(), nodes, fs, method, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 3, 4, 8} {
					par, err := BuildGraphCtx(context.Background(), nodes, fs, method, workers)
					if err != nil {
						t.Fatal(err)
					}
					label := names[mi]
					assertGraphsBitIdentical(t, serial, par, label)
					for _, k := range []int{1, 5, n / 2, n} {
						sk, pk := serial.TopK(k), par.TopK(k)
						if len(sk) != len(pk) {
							t.Fatalf("%s n=%d seed=%d workers=%d k=%d: top-k lengths differ", label, n, seed, workers, k)
						}
						for i := range sk {
							if sk[i] != pk[i] {
								t.Fatalf("%s n=%d seed=%d workers=%d k=%d: top-k[%d] = %d, want %d",
									label, n, seed, workers, k, i, pk[i], sk[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestParallelSmallFallsBackToSerial pins the small-set fast path: below
// parMinNodes the parallel entry point must hand off to the serial
// builder (trivially identical, and no pool overhead).
func TestParallelSmallFallsBackToSerial(t *testing.T) {
	fs := randFactors(7, parMinNodes-1)
	nodes := make([]*vizql.Node, len(fs))
	serial := buildGraph(nodes, fs, BuildNaive, 1)
	par := buildGraph(nodes, fs, BuildNaive, 8)
	assertGraphsBitIdentical(t, serial, par, "small-set")
}

// TestParallelOrderMatchesSerial runs the whole selection pipeline
// (shortlist, graph, Hasse reduction, scoring) through SelectOptions for
// each worker count and compares against the serial oracle.
func TestParallelOrderMatchesSerial(t *testing.T) {
	fs := randFactors(42, 400)
	nodes := make([]*vizql.Node, len(fs))
	for _, method := range []BuildMethod{BuildNaive, BuildQuickSort, BuildRangeTree} {
		wantOrder, wantScores, _ := OrderCtx(context.Background(), nodes, fs, SelectOptions{Build: method})
		for _, workers := range []int{2, 4, 8} {
			gotOrder, gotScores, _ := OrderCtx(context.Background(), nodes, fs, SelectOptions{Build: method, Workers: workers})
			if len(gotOrder) != len(wantOrder) {
				t.Fatalf("method=%d workers=%d: order length %d, want %d", method, workers, len(gotOrder), len(wantOrder))
			}
			for i := range wantOrder {
				if wantOrder[i] != gotOrder[i] {
					t.Fatalf("method=%d workers=%d: order[%d] = %d, want %d", method, workers, i, gotOrder[i], wantOrder[i])
				}
			}
			for i := range wantScores {
				if math.Float64bits(wantScores[i]) != math.Float64bits(gotScores[i]) {
					t.Fatalf("method=%d workers=%d: score[%d] = %v, want %v", method, workers, i, gotScores[i], wantScores[i])
				}
			}
		}
	}
}

// countdownCtx cancels itself after its Err method has been consulted a
// fixed number of times — a deterministic way to hit cancellation at
// arbitrary points inside the builders (which poll Err on a stride)
// without time-based flakiness.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(calls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(calls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

// TestParallelCancellationPoints drives every builder, serial and
// parallel, through a spread of cancellation points: each run must
// either complete with the exact serial result or fail cleanly with
// context.Canceled and a nil graph — never a partial graph, a panic, or
// a leaked goroutine (the race detector and pool join cover the rest).
func TestParallelCancellationPoints(t *testing.T) {
	const n = 300
	fs := randFactors(3, n)
	nodes := make([]*vizql.Node, n)
	for _, method := range []BuildMethod{BuildNaive, BuildQuickSort, BuildRangeTree} {
		oracle, err := BuildGraphCtx(context.Background(), nodes, fs, method, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			for _, budget := range []int64{0, 1, 2, 5, 17, 50, 1 << 40} {
				g, err := BuildGraphCtx(newCountdownCtx(budget), nodes, fs, method, workers)
				switch {
				case err != nil:
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("method=%d workers=%d budget=%d: err = %v, want context.Canceled", method, workers, budget, err)
					}
					if g != nil {
						t.Fatalf("method=%d workers=%d budget=%d: non-nil graph alongside error", method, workers, budget)
					}
				case g == nil:
					t.Fatalf("method=%d workers=%d budget=%d: nil graph without error", method, workers, budget)
				default:
					assertGraphsBitIdentical(t, oracle, g, "post-cancel-complete")
				}
			}
		}
	}
}

// TestParallelFactorsMatchSerial checks the factor fan-out against the
// serial oracle on real materialized nodes (the flights table).
func TestParallelFactorsMatchSerial(t *testing.T) {
	nodes := flightNodes(t)
	want, err := ComputeFactorsWorkersCtx(context.Background(), nodes, FactorOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := ComputeFactorsWorkersCtx(context.Background(), nodes, FactorOptions{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(want[i].M) != math.Float64bits(got[i].M) ||
				math.Float64bits(want[i].Q) != math.Float64bits(got[i].Q) ||
				math.Float64bits(want[i].W) != math.Float64bits(got[i].W) {
				t.Fatalf("workers=%d: factors[%d] = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestParallelFactorsCancellation: a pre-cancelled context fails fast
// with no partial result for any worker count.
func TestParallelFactorsCancellation(t *testing.T) {
	nodes := flightNodes(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		fs, err := ComputeFactorsWorkersCtx(ctx, nodes, FactorOptions{}, workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if fs != nil {
			t.Fatalf("workers=%d: non-nil factors alongside error", workers)
		}
	}
}

package deepeye

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/deepeye/deepeye/internal/datagen"
	"github.com/deepeye/deepeye/internal/rank"
)

// diffTables returns a few seeded tables with different shapes (the
// datagen catalog is deterministic per index/scale).
func diffTables(t *testing.T) []*Table {
	t.Helper()
	var out []*Table
	for _, i := range []int{3, 6, 9} {
		tab, err := datagen.TestSet(i, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tab)
	}
	return out
}

// assertSameVisualizations fails unless the two top-k lists agree on
// query text, chart, rank, and bitwise score.
func assertSameVisualizations(t *testing.T, want, got []*Visualization, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Query != got[i].Query || want[i].Chart != got[i].Chart || want[i].Rank != got[i].Rank {
			t.Fatalf("%s: result %d = (%q, %s, #%d), want (%q, %s, #%d)",
				label, i, got[i].Query, got[i].Chart, got[i].Rank, want[i].Query, want[i].Chart, want[i].Rank)
		}
		if math.Float64bits(want[i].Score) != math.Float64bits(got[i].Score) {
			t.Fatalf("%s: result %d score %v != %v (bitwise)", label, i, got[i].Score, want[i].Score)
		}
	}
}

// TestDifferentialTopKWorkers is the end-to-end differential guarantee
// on the public API: for every table, k, and graph-build method, TopK
// with Workers=N is byte-identical to the serial Workers=1 oracle, and
// so is the candidate sequence (one-column histograms included) that
// Candidates returns.
func TestDifferentialTopKWorkers(t *testing.T) {
	for _, tab := range diffTables(t) {
		want, err := New(Options{Workers: 1, IncludeOneColumn: true}).Candidates(tab)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8, -1} {
			got, err := New(Options{Workers: workers, IncludeOneColumn: true}).Candidates(tab)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d: %d candidates, want %d", workers, len(got), len(want))
			}
			for i := range want {
				if got[i].Query.Key() != want[i].Query.Key() {
					t.Fatalf("workers=%d: candidate %d = %s, want %s", workers, i, got[i].Query.Key(), want[i].Query.Key())
				}
			}
		}
	}
	for ti, tab := range diffTables(t) {
		for _, build := range []rank.BuildMethod{rank.BuildNaive, rank.BuildQuickSort, rank.BuildRangeTree} {
			serial := New(Options{Workers: 1, GraphBuild: build})
			for _, k := range []int{1, 8} {
				want, err := serial.TopK(tab, k)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 8} {
					par := New(Options{Workers: workers, GraphBuild: build})
					got, err := par.TopK(tab, k)
					if err != nil {
						t.Fatal(err)
					}
					assertSameVisualizations(t, want, got, "differential")
					_ = ti
				}
			}
		}
	}
}

// TestDifferentialProgressiveWorkers: the progressive tournament with
// parallel per-column passes matches its serial oracle.
func TestDifferentialProgressiveWorkers(t *testing.T) {
	for _, tab := range diffTables(t) {
		serial := New(Options{Progressive: true, IncludeOneColumn: true, Workers: 1})
		want, err := serial.TopK(tab, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8, -1} {
			par := New(Options{Progressive: true, IncludeOneColumn: true, Workers: workers})
			got, err := par.TopK(tab, 5)
			if err != nil {
				t.Fatal(err)
			}
			assertSameVisualizations(t, want, got, "progressive")
		}
	}
}

// TestDifferentialRankWorkers: the explicit Rank entry point agrees
// across worker counts on the same materialized candidate set.
func TestDifferentialRankWorkers(t *testing.T) {
	tab := diffTables(t)[0]
	serial := New(Options{Workers: 1})
	nodes, err := serial.Candidates(tab)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Rank(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par := New(Options{Workers: workers})
		got, err := par.Rank(nodes)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("workers=%d: order length %d, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("workers=%d: order[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestDifferentialCancellation: a pre-cancelled context fails fast with
// context.Canceled for every worker count — the parallel engine must not
// turn cancellation into a partial result or a different error.
func TestDifferentialCancellation(t *testing.T) {
	tab := diffTables(t)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 8, -1} {
		sys := New(Options{Workers: workers})
		if _, err := sys.TopKCtx(ctx, tab, 5); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		prog := New(Options{Progressive: true, Workers: workers})
		if _, err := prog.TopKCtx(ctx, tab, 5); !errors.Is(err, context.Canceled) {
			t.Fatalf("progressive workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

package deepeye

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/deepeye/deepeye/internal/datagen"
	"github.com/deepeye/deepeye/internal/rank"
)

// bigTable generates the 50k-row table the cancellation suite runs
// against: wide enough (7 columns, all three types) that the full
// pipeline takes tens of seconds, so a cancelled run is unambiguously
// mid-flight.
func bigTable(tb testing.TB) *Table {
	tb.Helper()
	tab, err := datagen.Generate(datagen.Spec{
		Name: "cancellation-big", Tuples: 50000, Seed: 7,
		Cols: []datagen.Col{
			{Name: "region", Kind: datagen.KindCategory, K: 12},
			{Name: "ts", Kind: datagen.KindTime},
			{Name: "price", Kind: datagen.KindUniform, Lo: 1, Hi: 500},
			{Name: "qty", Kind: datagen.KindNormal, Mu: 40, Sigma: 12},
			{Name: "revenue", Kind: datagen.KindDerived, Base: "price", Fn: datagen.FnLinear, Scale: 3, Noise: 5},
			{Name: "load", Kind: datagen.KindSeasonal, Base: "ts", Noise: 2},
			{Name: "rank", Kind: datagen.KindCounter},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return tab
}

// cancelCase is one pipeline entry point under test.
type cancelCase struct {
	name string
	opts Options
	call func(ctx context.Context, sys *System, t *Table) error
}

func cancelCases() []cancelCase {
	topk := func(ctx context.Context, sys *System, t *Table) error {
		_, err := sys.TopKCtx(ctx, t, 5)
		return err
	}
	return []cancelCase{
		{"TopKCtx", Options{IncludeOneColumn: true}, topk},
		{"TopKCtx/parallel", Options{Workers: -1, IncludeOneColumn: true}, topk},
		{"TopKCtx/rangetree", Options{GraphBuild: rank.BuildRangeTree}, topk},
		{"SuggestMultiCtx", Options{}, func(ctx context.Context, sys *System, t *Table) error {
			_, err := sys.SuggestMultiCtx(ctx, t, 5)
			return err
		}},
		{"SearchCtx", Options{}, func(ctx context.Context, sys *System, t *Table) error {
			_, err := sys.SearchCtx(ctx, t, "price trend", 3)
			return err
		}},
	}
}

// promptBudget is how quickly a cancelled call must return. The
// acceptance bar is 100ms; the pipeline's checks are at most one data
// pass apart (~a few ms on 50k rows).
const promptBudget = 100 * time.Millisecond

// TestAlreadyCancelledContext verifies every ctx entry point returns
// ctx.Err() without doing the work when handed a dead context.
func TestAlreadyCancelledContext(t *testing.T) {
	tab := bigTable(t)
	for _, c := range cancelCases() {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			start := time.Now()
			err := c.call(ctx, New(c.opts), tab)
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if elapsed > promptBudget {
				t.Errorf("returned after %v, want < %v", elapsed, promptBudget)
			}
		})
	}
}

// TestMidFlightCancellation cancels each entry point while it is deep in
// the pipeline on the 50k-row table and asserts it unwinds within the
// latency budget, leaking no goroutines (the parallel fan-out must join
// its pool).
func TestMidFlightCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-row cancellation runs are not short-mode material")
	}
	tab := bigTable(t)
	for _, c := range cancelCases() {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- c.call(ctx, New(c.opts), tab) }()
			// Let the pipeline get going before pulling the plug. The
			// uncancelled run takes seconds to tens of seconds, so 50ms
			// is safely mid-flight.
			time.Sleep(50 * time.Millisecond)
			cancelled := time.Now()
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if lag := time.Since(cancelled); lag > promptBudget {
					t.Errorf("returned %v after cancel, want < %v", lag, promptBudget)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("pipeline did not return after cancellation")
			}
			waitForGoroutines(t, before)
		})
	}
}

// TestDeadlineExceeded verifies the timeout path reports
// context.DeadlineExceeded (what the server maps to 504).
func TestDeadlineExceeded(t *testing.T) {
	tab := bigTable(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := New(Options{IncludeOneColumn: true}).TopKCtx(ctx, tab, 5)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond+promptBudget {
		t.Errorf("returned after %v, want < deadline + %v", elapsed, promptBudget)
	}
}

// waitForGoroutines asserts the goroutine count settles back to (about)
// its pre-test level; runtime bookkeeping can lag a joined pool, so the
// check retries briefly before failing.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var now int
	for time.Now().Before(deadline) {
		now = runtime.NumGoroutine()
		if now <= before+2 { // tolerate test runner background noise
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, now)
}

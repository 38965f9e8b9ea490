package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/deepeye/deepeye/internal/obs"
)

func TestNormalize(t *testing.T) {
	if got := Normalize(0); got != 1 {
		t.Errorf("Normalize(0) = %d, want 1", got)
	}
	if got := Normalize(1); got != 1 {
		t.Errorf("Normalize(1) = %d, want 1", got)
	}
	if got := Normalize(7); got != 7 {
		t.Errorf("Normalize(7) = %d, want 7", got)
	}
	if got := Normalize(-1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Normalize(-1) = %d, want GOMAXPROCS", got)
	}
}

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 33} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			seen := make([]atomic.Int32, n)
			err := ForEachBlock(context.Background(), "test", workers, n, 0, func(lo, hi int) error {
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForEachBlockContiguousDisjoint(t *testing.T) {
	const n = 500
	owner := make([]atomic.Int32, n)
	err := ForEachBlock(context.Background(), "test", 4, n, 0, func(lo, hi int) error {
		if lo >= hi || lo < 0 || hi > n {
			return fmt.Errorf("bad block [%d, %d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			owner[i].Add(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range owner {
		if c := owner[i].Load(); c != 1 {
			t.Fatalf("index %d claimed by %d blocks", i, c)
		}
	}
}

func TestForEachFirstErrorWins(t *testing.T) {
	sentinel := errors.New("boom")
	var calls atomic.Int64
	err := ForEachBlock(context.Background(), "test", 4, 10_000, 0, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			calls.Add(1)
			if i == 137 {
				return sentinel
			}
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls.Load() == 10_000 {
		t.Error("error did not stop the batch early")
	}
}

func TestForEachCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		err := ForEachBlock(ctx, "test", workers, 100, 0, func(lo, hi int) error { return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestForEachMidBatchCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	err := ForEachBlock(ctx, "test", 4, 100_000, 16, func(lo, hi int) error {
		if calls.Add(1) == 8 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("worker panic was swallowed")
		}
		if s, ok := v.(string); !ok || !strings.Contains(s, "kaboom") {
			t.Fatalf("recovered %v, want wrapped kaboom", v)
		}
	}()
	_ = ForEachBlock(context.Background(), "test", 4, 100, 0, func(lo, hi int) error {
		if lo <= 42 && 42 < hi {
			panic("kaboom")
		}
		return nil
	})
}

func TestForEachSerialPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("serial panic was swallowed")
		}
	}()
	_ = ForEachBlock(context.Background(), "test", 1, 10, 0, func(lo, hi int) error {
		panic("serial kaboom")
	})
}

func TestGroupRunsEveryTask(t *testing.T) {
	g := NewGroup("test", 4)
	var ran atomic.Int64
	for i := 0; i < 200; i++ {
		g.Go(func() { ran.Add(1) })
	}
	g.Wait()
	if ran.Load() != 200 {
		t.Fatalf("ran %d of 200 tasks", ran.Load())
	}
}

func TestGroupNestedGo(t *testing.T) {
	g := NewGroup("test", 2)
	var ran atomic.Int64
	var spawn func(depth int)
	spawn = func(depth int) {
		ran.Add(1)
		if depth < 6 {
			g.Go(func() { spawn(depth + 1) })
			g.Go(func() { spawn(depth + 1) })
		}
	}
	g.Go(func() { spawn(0) })
	g.Wait()
	if want := int64(1<<7 - 1); ran.Load() != want {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), want)
	}
}

func TestGroupPanicPropagates(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("group panic was swallowed")
		}
		if s, ok := v.(string); !ok || !strings.Contains(s, "group kaboom") {
			t.Fatalf("recovered %v, want wrapped group kaboom", v)
		}
	}()
	g := NewGroup("test", 3)
	block := make(chan struct{})
	// Fill every slot so at least one task is pooled (inline panics
	// propagate directly and would bypass the capture path under test).
	for i := 0; i < 3; i++ {
		g.Go(func() { <-block })
	}
	g.Go(func() {}) // inline: slots are full
	close(block)
	g.Wait()
	g2 := NewGroup("test", 3)
	g2.Go(func() { panic("group kaboom") })
	g2.Wait()
}

func TestPoolMetricsReported(t *testing.T) {
	if err := ForEachBlock(context.Background(), "metrics_probe", 2, 64, 0, func(lo, hi int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`deepeye_pool_batches_total{op="metrics_probe"}`,
		`deepeye_pool_tasks_total{op="metrics_probe"}`,
		`deepeye_pool_batch_duration_seconds_count{op="metrics_probe"}`,
		`deepeye_pool_workers{op="metrics_probe"}`,
		"deepeye_pool_busy_workers",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %s", want)
		}
	}
}

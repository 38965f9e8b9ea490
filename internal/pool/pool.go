// Package pool is the shared bounded worker pool behind DeepEye's
// parallel selection pipeline. Factor computation, dominance-graph edge
// construction, candidate materialization, and batch model inference all
// fan out through it, so parallelism policy lives in one place: worker
// counts are resolved the same way everywhere (Normalize), every batch
// is ctx-cancellable, worker panics are captured and re-raised in the
// caller (never lost in a bare goroutine), and every batch reports
// deepeye_pool_* metrics to the default obs registry.
//
// The pool is built for deterministic parallelism: work is handed out
// dynamically (an atomic cursor over index blocks) but callers write
// results only into index-owned slots, so the assembled output is
// independent of scheduling. A worker count of 0 or 1 runs the loop
// inline on the caller's goroutine — the serial oracle differential
// tests compare against.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/deepeye/deepeye/internal/obs"
)

// Normalize resolves a worker count, and is the only place one is
// interpreted: 0 and 1 mean one worker (the caller's own goroutine),
// n > 1 means at most n goroutines, and a negative count means one per
// GOMAXPROCS slot.
func Normalize(workers int) int {
	if workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if workers == 0 {
		return 1
	}
	return workers
}

// panicError carries a worker panic (with the worker's stack) across the
// join so it can be re-raised on the caller's goroutine.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string {
	return fmt.Sprintf("pool: worker panic: %v\n%s", p.val, p.stack)
}

// ForEachBlock partitions [0, n) into contiguous blocks of the given
// size (0 picks one that yields several blocks per worker, so uneven
// blocks load-balance) and runs fn(lo, hi) for each across at most
// workers goroutines. Blocks are claimed dynamically, so callers that
// need scheduling-independent output must write only to slots owned by
// the indices they were handed — then the assembled result is identical
// to the serial run by construction.
//
// The first fn error stops the batch and is returned; a pending ctx
// cancellation is returned as ctx.Err() even if every fn succeeded. A
// worker panic is re-raised on the caller's goroutine after all workers
// have been joined, with the worker stack attached — a parallel batch
// never leaks goroutines and never swallows a panic.
func ForEachBlock(ctx context.Context, op string, workers, n, block int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Normalize(workers)
	if workers > n {
		workers = n
	}
	if block <= 0 {
		// Aim for ~4 blocks per worker so a slow block doesn't serialize
		// the tail, without paying per-index dispatch overhead.
		block = (n + workers*4 - 1) / (workers * 4)
		if block < 1 {
			block = 1
		}
	}
	if workers == 1 {
		for lo := 0; lo < n; lo += block {
			if err := ctx.Err(); err != nil {
				return err
			}
			hi := lo + block
			if hi > n {
				hi = n
			}
			if err := fn(lo, hi); err != nil {
				return err
			}
		}
		return ctx.Err()
	}

	start := time.Now()
	obs.SetPoolWorkers(op, workers)
	var (
		cursor  atomic.Int64
		stop    atomic.Bool
		once    sync.Once
		firstEi error
		wg      sync.WaitGroup
	)
	fail := func(err error) {
		once.Do(func() { firstEi = err })
		stop.Store(true)
	}
	busy := obs.PoolBusy()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					fail(&panicError{val: v, stack: debug.Stack()})
				}
			}()
			busy.Inc()
			defer busy.Dec()
			for {
				if stop.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				lo := int(cursor.Add(int64(block))) - block
				if lo >= n {
					return
				}
				hi := lo + block
				if hi > n {
					hi = n
				}
				obs.AddPoolTasks(op, 1)
				if err := fn(lo, hi); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	obs.ObservePoolBatch(op, time.Since(start))
	if pe, ok := firstEi.(*panicError); ok {
		panic(pe.Error())
	}
	if firstEi != nil {
		return firstEi
	}
	return ctx.Err()
}

// Group runs ad-hoc tasks on a bounded set of goroutines — the shape
// recursive fan-out needs (the quick-sort graph builder spawns its
// disjoint sub-problems through one). Go runs the task on a fresh
// goroutine while a worker slot is free and inline on the caller
// otherwise, so a Group never queues unboundedly and never deadlocks on
// nested Go calls. Worker panics are captured and re-raised by Wait.
type Group struct {
	op    string
	sem   chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
	pval  *panicError
	start time.Time
}

// NewGroup creates a group with the given worker bound (Normalize
// semantics).
func NewGroup(op string, workers int) *Group {
	workers = Normalize(workers)
	g := &Group{op: op, sem: make(chan struct{}, workers), start: time.Now()}
	obs.SetPoolWorkers(op, workers)
	return g
}

// Go runs task, on a pooled goroutine if a slot is free and inline
// otherwise. Inline execution propagates panics directly; pooled
// execution defers them to Wait.
func (g *Group) Go(task func()) {
	select {
	case g.sem <- struct{}{}:
		g.wg.Add(1)
		busy := obs.PoolBusy()
		go func() {
			defer g.wg.Done()
			defer func() { <-g.sem }()
			defer func() {
				if v := recover(); v != nil {
					g.once.Do(func() { g.pval = &panicError{val: v, stack: debug.Stack()} })
				}
			}()
			busy.Inc()
			defer busy.Dec()
			obs.AddPoolTasks(g.op, 1)
			task()
		}()
	default:
		task()
	}
}

// Wait joins every spawned task, records the batch, and re-raises the
// first captured worker panic on the caller's goroutine.
func (g *Group) Wait() {
	g.wg.Wait()
	obs.ObservePoolBatch(g.op, time.Since(g.start))
	if g.pval != nil {
		panic(g.pval.Error())
	}
}

package vizql

import (
	"context"
	"runtime"

	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/pool"
	"github.com/deepeye/deepeye/internal/transform"
)

// ExecuteAllParallel materializes a query batch across a worker pool —
// the paper notes that visualization generation/selection "is trivially
// parallelizable" (§VI-D). Queries are grouped by their transform
// signature so each worker executes one shared transform group (the same
// sharing ExecuteAll exploits sequentially), and the result order is the
// stable query order of the input. workers ≤ 0 uses GOMAXPROCS.
func ExecuteAllParallel(t *dataset.Table, queries []Query, workers int) []*Node {
	out, _ := ExecuteAllParallelCtx(context.Background(), t, queries, workers)
	return out
}

// ExecuteAllParallelCtx is ExecuteAllParallel with cancellation, fanned
// out through the shared bounded pool (ctx-cancellable, panic-safe,
// reported under deepeye_pool_* metrics). Each task owns one transform
// group and writes only its group's result slot; groups are concatenated
// in first-appearance order afterwards, so the output order matches the
// serial ExecuteAllCtx for any worker count.
func ExecuteAllParallelCtx(ctx context.Context, t *dataset.Table, queries []Query, workers int) ([]*Node, error) {
	// This package's documented contract predates the pool: workers ≤ 0
	// means GOMAXPROCS (pool.Normalize treats 0 as serial), so resolve
	// before handing off.
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(queries) < 64 {
		return ExecuteAllCtx(ctx, t, queries)
	}
	type groupKey struct {
		x, y string
		spec specKey
		sort transform.SortAxis
	}
	// Group queries so one worker owns one shared transform.
	order := make([]groupKey, 0)
	groups := make(map[groupKey][]Query)
	for _, q := range queries {
		key := groupKey{q.X, q.Y, keyOf(q.Spec), q.Order}
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], q)
	}
	results := make([][]*Node, len(order))
	err := pool.ForEachBlock(ctx, "vizql_execute", workers, len(order), 1, func(lo, hi int) error {
		for gi := lo; gi < hi; gi++ {
			nodes, err := ExecuteAllCtx(ctx, t, groups[order[gi]])
			if err != nil {
				return err
			}
			results[gi] = nodes
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Node
	for _, nodes := range results {
		out = append(out, nodes...)
	}
	return out, nil
}

package rank

import (
	"context"

	"github.com/deepeye/deepeye/internal/pool"
	"github.com/deepeye/deepeye/internal/rangetree"
)

// parMinNodes is the candidate count below which BuildGraphCtx runs the
// serial builders: a graph this small builds in less time than spawning
// workers costs.
const parMinNodes = 48

// pairEdge is one dominance edge discovered by a naive-build worker,
// buffered until the deterministic merge.
type pairEdge struct{ u, v int32 }

// buildNaivePar partitions the i<j comparison triangle into row blocks.
// Row i owns n-1-i comparisons, so fixed-size row blocks are uneven in
// work — but the pool hands blocks out dynamically, and several blocks
// per worker load-balance the triangle. Workers append discovered edges
// to a per-block buffer (a compare of (i, j) may yield the edge j→i, so
// rows cannot be written directly without racing a neighboring block);
// buffers are then merged in block index order on the caller.
func (g *Graph) buildNaivePar(ctx context.Context, workers int) error {
	n := len(g.Nodes)
	rowBlock := n / (workers * 8)
	if rowBlock < 1 {
		rowBlock = 1
	}
	numBlocks := (n + rowBlock - 1) / rowBlock
	bufs := make([][]pairEdge, numBlocks)
	counts := make([]int, numBlocks)
	err := pool.ForEachBlock(ctx, "graph_naive", workers, numBlocks, 1, func(blo, bhi int) error {
		for b := blo; b < bhi; b++ {
			lo := b * rowBlock
			hi := lo + rowBlock
			if hi > n {
				hi = n
			}
			var local []pairEdge
			cnt := 0
			for i := lo; i < hi; i++ {
				fi := g.Factors[i]
				for j := i + 1; j < n; j++ {
					cnt++
					if cnt%checkStride == 0 {
						if err := ctx.Err(); err != nil {
							return err
						}
					}
					fj := g.Factors[j]
					switch {
					case StrictlyDominates(fi, fj):
						local = append(local, pairEdge{int32(i), int32(j)})
					case StrictlyDominates(fj, fi):
						local = append(local, pairEdge{int32(j), int32(i)})
					}
				}
			}
			bufs[b] = local
			counts[b] = cnt
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Merge in block index order: counts sum to the serial n(n-1)/2 and
	// every edge lands exactly once; sortEdges later normalizes per-row
	// target order, so the merged graph matches the serial build bit for
	// bit.
	for b, buf := range bufs {
		g.comparisons += counts[b]
		for _, e := range buf {
			g.addEdge(int(e.u), int(e.v))
		}
	}
	return nil
}

// buildRangeTreePar parallelizes over query nodes. Unlike the naive
// triangle, the range-tree build only ever emits edges sourced at the
// query node i, so each task writes Out[i]/OutW[i] for the indices it
// owns directly — no buffering needed. Tree queries are read-only.
func (g *Graph) buildRangeTreePar(ctx context.Context, workers int) error {
	n := len(g.Nodes)
	pts := make([]rangetree.Point, n)
	for i, f := range g.Factors {
		pts[i] = rangetree.Point{Coords: []float64{f.M, f.Q, f.W}, ID: i}
	}
	tree := rangetree.New(pts)
	cmp := make([]int, n)
	err := pool.ForEachBlock(ctx, "graph_rangetree", workers, n, 0, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			f := g.Factors[i]
			dominated := tree.DominatedBy([]float64{f.M, f.Q, f.W})
			cnt := 0
			for _, j := range dominated {
				if j == i {
					continue
				}
				cnt++
				if StrictlyDominates(f, g.Factors[j]) {
					g.Out[i] = append(g.Out[i], int32(j))
					g.OutW[i] = append(g.OutW[i], EdgeWeight(f, g.Factors[j]))
				}
			}
			cmp[i] = cnt
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Per-index counts summed in index order (integer addition, so any
	// order would do — index order keeps the intent obvious).
	for _, c := range cmp {
		g.comparisons += c
	}
	return nil
}

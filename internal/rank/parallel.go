package rank

import (
	"context"
	"sync/atomic"

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

// partitionPar runs the quick-sort construction with its three disjoint
// recursive sub-problems fanned out through a bounded pool.Group.
//
// Why this is race-free with no locks on the adjacency rows: every edge
// buildPartition(idx) adds has its source in idx (partition edges source
// at idx members or the pivot, transitivity edges at better ⊂ idx, tie
// edges at better/equal ⊂ idx, cross edges at members of better, worse,
// or incomp ⊂ idx); sibling recursions receive disjoint index sets; and
// a parent finishes all of its own edge writes before spawning children,
// so goroutine creation orders parent writes before child writes to the
// same rows.
//
// Why it is deterministic: the recursion structure is identical to the
// serial build (same pivots over the same sub-slices), so the comparison
// multiset — and therefore the edge set and the total count — does not
// depend on scheduling. Per-task counts are flushed into one atomic;
// sortEdges normalizes row order afterwards.
type partitionPar struct {
	g           *Graph
	ctx         context.Context
	grp         *pool.Group
	comparisons atomic.Int64
	cancelled   atomic.Bool
}

// parSpawnMin is the sub-problem size below which recursion stays on the
// current task instead of spawning.
const parSpawnMin = 32

func (g *Graph) buildPartitionPar(ctx context.Context, workers int) error {
	idx := make([]int, len(g.Nodes))
	for i := range idx {
		idx[i] = i
	}
	p := &partitionPar{g: g, ctx: ctx, grp: pool.NewGroup("graph_quicksort", workers)}
	p.run(idx)
	p.grp.Wait()
	g.comparisons = int(p.comparisons.Load())
	return ctx.Err()
}

// parTick is a task-local comparison counter: it polls cancellation at
// the same checkStride cadence as the serial build without contending on
// a shared counter, and flushes its tally once the task ends.
type parTick struct {
	p     *partitionPar
	count int
}

func (t *parTick) tick() bool {
	if t.p.cancelled.Load() {
		return true
	}
	t.count++
	if t.count%checkStride == 0 && t.p.ctx.Err() != nil {
		t.p.cancelled.Store(true)
		return true
	}
	return false
}

func (t *parTick) flush() { t.p.comparisons.Add(int64(t.count)) }

// run executes one task: recurse over idx with a fresh local tick.
func (p *partitionPar) run(idx []int) {
	t := &parTick{p: p}
	p.build(idx, t)
	t.flush()
}

// recurse continues into a sub-problem — inline on the current task when
// it is too small to be worth a goroutine, otherwise via the group
// (which itself falls back to inline when all worker slots are busy).
func (p *partitionPar) recurse(idx []int, t *parTick) {
	if len(idx) == 0 {
		return
	}
	if len(idx) < parSpawnMin {
		p.build(idx, t)
		return
	}
	sub := idx
	p.grp.Go(func() { p.run(sub) })
}

// build mirrors Graph.buildPartition exactly, with task-local ticking.
func (p *partitionPar) build(idx []int, t *parTick) {
	if p.cancelled.Load() {
		return
	}
	g := p.g
	const cutoff = 8
	if len(idx) <= cutoff {
		for a := 0; a < len(idx); a++ {
			for b := a + 1; b < len(idx); b++ {
				if t.tick() {
					return
				}
				i, j := idx[a], idx[b]
				fi, fj := g.Factors[i], g.Factors[j]
				switch {
				case StrictlyDominates(fi, fj):
					g.addEdge(i, j)
				case StrictlyDominates(fj, fi):
					g.addEdge(j, i)
				}
			}
		}
		return
	}
	pivot := idx[len(idx)/2]
	var better, worse, equal, incomp []int
	fp := g.Factors[pivot]
	for _, i := range idx {
		if i == pivot {
			continue
		}
		if t.tick() {
			return
		}
		fi := g.Factors[i]
		switch {
		case equalFactors(fi, fp):
			equal = append(equal, i)
		case StrictlyDominates(fi, fp):
			g.addEdge(i, pivot)
			better = append(better, i)
		case StrictlyDominates(fp, fi):
			g.addEdge(pivot, i)
			worse = append(worse, i)
		default:
			incomp = append(incomp, i)
		}
	}
	for _, u := range better {
		for _, w := range worse {
			g.addEdge(u, w)
		}
	}
	for _, e := range equal {
		for _, u := range better {
			g.addEdge(u, e)
		}
		for _, w := range worse {
			g.addEdge(e, w)
		}
	}
	for _, u := range better {
		for _, v := range incomp {
			if t.tick() {
				return
			}
			fu, fv := g.Factors[u], g.Factors[v]
			switch {
			case StrictlyDominates(fu, fv):
				g.addEdge(u, v)
			case StrictlyDominates(fv, fu):
				g.addEdge(v, u)
			}
		}
	}
	for _, u := range worse {
		for _, v := range incomp {
			if t.tick() {
				return
			}
			fu, fv := g.Factors[u], g.Factors[v]
			switch {
			case StrictlyDominates(fu, fv):
				g.addEdge(u, v)
			case StrictlyDominates(fv, fu):
				g.addEdge(v, u)
			}
		}
	}
	// All of this task's edge writes are done; sub-problems may now run
	// concurrently (they touch disjoint rows).
	p.recurse(better, t)
	p.recurse(worse, t)
	p.recurse(incomp, t)
}

// Package progressive implements DeepEye's progressive top-k selection
// (paper §V-B): instead of materializing every rule-accepted candidate and
// ranking the full set, it organizes candidates into per-column leaf lists
// under per-type lists (L_c, L_t, L_n), lazily materializes each leaf
// best-first, and runs a tournament across leaf heads until k charts have
// been emitted.
//
// The three optimizations of §V-B are implemented:
//
//  1. Shared transformation: for one column and one bucketing, the
//     per-bucket COUNT and the SUM of every numerical column are computed
//     in a single pass; SUM/AVG/CNT charts of any Y column derive from
//     that pass without touching the data again.
//  2. Bound-based pruning: each pending spec carries an upper bound on
//     its attainable score (Q is bounded using the column's distinct
//     count before any bucketing happens); a spec is materialized only
//     while its bound could still beat the leaf's proven head, and the
//     tournament never advances leaves that cannot win.
//  3. Postponed operations: candidates are scored and ranked unsorted;
//     ORDER BY is applied only to the k winners.
package progressive

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"github.com/deepeye/deepeye/internal/chart"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/pool"
	"github.com/deepeye/deepeye/internal/rank"
	"github.com/deepeye/deepeye/internal/rules"
	"github.com/deepeye/deepeye/internal/transform"
	"github.com/deepeye/deepeye/internal/vizql"
)

// Options tunes the selector.
type Options struct {
	Factors rank.FactorOptions
	// IncludeOneColumn adds single-column histogram candidates.
	IncludeOneColumn bool
	// Workers fans the per-column work — leaf-list construction and the
	// shared bucketing pass's per-column sums — across at most this many
	// goroutines (pool.Normalize: 0 and 1 run inline, negative means
	// GOMAXPROCS). Results are identical for any worker count (each
	// column's work is independent and assembled in column order).
	Workers int
}

// Result is one selected chart with its progressive score.
type Result struct {
	Node  *vizql.Node
	Score float64
}

// Stats reports how much work the selector avoided.
type Stats struct {
	SpecsTotal        int // candidate specs across all leaves
	SpecsMaterialized int // specs actually executed
	NodesEmitted      int
}

// TopKCtx returns the k best charts for the table under the progressive
// tournament. Results come back best-first with ORDER BY applied. The
// tournament loop re-checks ctx before every spec materialization (each
// one is at most a pass over the data), so a cancelled selection
// returns ctx.Err() promptly.
func TopKCtx(ctx context.Context, t *dataset.Table, k int, opts Options) ([]Result, Stats, error) {
	if k <= 0 {
		return nil, Stats{}, fmt.Errorf("progressive: k must be positive, got %d", k)
	}
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	sel := newSelectorCtx(ctx, t, opts)
	results := sel.run(k)
	if err := ctx.Err(); err != nil {
		return nil, sel.stats, err
	}
	// Postponed ORDER BY (optimization 3): apply the natural sort to the
	// winners only — X order for ordered axes, descending-value order for
	// categorical bars/pies.
	for _, r := range results {
		applyFinalOrder(r.Node)
	}
	return results, sel.stats, nil
}

func applyFinalOrder(n *vizql.Node) {
	// Winners share transform results with the bucketing cache and with
	// sibling chart-type variants; clone before sorting in place.
	n.Res = cloneResult(n.Res)
	if n.XOutType == dataset.Categorical {
		transform.OrderBy(n.Res, transform.SortY)
		reverseResult(n.Res)
		n.Query.Order = transform.SortY
	} else {
		transform.OrderBy(n.Res, transform.SortX)
		n.Query.Order = transform.SortX
	}
}

func cloneResult(r *transform.Result) *transform.Result {
	out := &transform.Result{
		XLabels:   append([]string(nil), r.XLabels...),
		XOrder:    append([]float64(nil), r.XOrder...),
		Y:         append([]float64(nil), r.Y...),
		InputRows: r.InputRows,
	}
	if len(r.SourceRows) == r.Len() {
		out.SourceRows = append([][]int(nil), r.SourceRows...)
	}
	return out
}

func reverseResult(r *transform.Result) {
	hasSrc := len(r.SourceRows) == r.Len()
	for i, j := 0, r.Len()-1; i < j; i, j = i+1, j-1 {
		r.XLabels[i], r.XLabels[j] = r.XLabels[j], r.XLabels[i]
		r.XOrder[i], r.XOrder[j] = r.XOrder[j], r.XOrder[i]
		r.Y[i], r.Y[j] = r.Y[j], r.Y[i]
		if hasSrc {
			r.SourceRows[i], r.SourceRows[j] = r.SourceRows[j], r.SourceRows[i]
		}
	}
}

// pendingSpec is an unmaterialized candidate with an admissible score
// upper bound.
type pendingSpec struct {
	spec  transform.Spec
	yName string
	bound float64
}

// leaf is one per-column candidate list (L_c^X / L_t^X / L_n^X).
type leaf struct {
	xName   string
	pending []pendingSpec // sorted by descending bound
	ready   []Result      // materialized, sorted by descending score
}

type selector struct {
	t     *dataset.Table
	opts  Options
	o     rank.FactorOptions
	ctx   context.Context // cancellation; nil means never cancelled
	leafs []*leaf
	stats Stats
	// shared transformation cache: one bucketing pass serves all Y
	// columns and aggregates.
	buckets map[string]*bucketing
}

// bucketing is the result of one shared pass: per-bucket labels/order/
// row counts plus per-numeric-column sums.
type bucketing struct {
	labels []string
	order  []float64
	count  []float64
	sums   map[string][]float64 // y column -> per-bucket sum
	input  int
}

// newSelectorCtx builds the per-column leaf lists, fanning columns out
// across the pool when opts.Workers asks for it. Each column's leaf is
// built independently into its own slot and appended in column order, so
// the selector state is identical for any worker count.
func newSelectorCtx(ctx context.Context, t *dataset.Table, opts Options) *selector {
	s := &selector{t: t, opts: opts, o: opts.Factors, ctx: ctx, buckets: make(map[string]*bucketing)}
	byCol := make([]*leaf, len(t.Columns))
	_ = pool.ForEachBlock(ctx, "progressive_leaves", opts.Workers, len(t.Columns), 1, func(lo, hi int) error {
		for ci := lo; ci < hi; ci++ {
			col := t.Columns[ci]
			lf := &leaf{xName: col.Name}
			for _, y := range t.Columns {
				if y.Name == col.Name {
					continue
				}
				for _, spec := range rules.TransformSpecs(col.Type, y.Type) {
					lf.pending = append(lf.pending, pendingSpec{
						spec:  spec,
						yName: y.Name,
						bound: s.bound(col, spec),
					})
				}
			}
			if opts.IncludeOneColumn {
				for _, spec := range rules.TransformSpecs(col.Type, col.Type) {
					if spec.Agg != transform.AggCnt {
						continue
					}
					lf.pending = append(lf.pending, pendingSpec{
						spec:  spec,
						yName: col.Name,
						bound: s.bound(col, spec),
					})
				}
			}
			sort.SliceStable(lf.pending, func(a, b int) bool { return lf.pending[a].bound > lf.pending[b].bound })
			byCol[ci] = lf
		}
		return nil
	})
	// A cancelled ctx leaves some slots nil; the caller re-checks ctx
	// after the tournament, so a partial selector is never observable.
	for _, lf := range byCol {
		if lf == nil || len(lf.pending) == 0 {
			continue
		}
		s.stats.SpecsTotal += len(lf.pending)
		s.leafs = append(s.leafs, lf)
	}
	return s
}

// bound computes an admissible upper bound on the progressive score of a
// spec before executing it: M ≤ 1 always; Q is bounded by the best
// cardinality reduction the bucketing could achieve, which is known from
// column statistics without bucketing (optimization 2).
func (s *selector) bound(x *dataset.Column, spec transform.Spec) float64 {
	st := x.Stats()
	if st.N == 0 {
		return 0
	}
	var minBuckets float64 = 1
	switch spec.Kind {
	case transform.KindGroup:
		minBuckets = float64(st.Distinct)
	case transform.KindBinCount:
		minBuckets = 1 // could collapse to one bucket
	case transform.KindBinUDF:
		minBuckets = 1
	case transform.KindBinUnit:
		minBuckets = 1
	case transform.KindNone:
		minBuckets = float64(st.N) // raw: no reduction at all
	}
	qBound := 1 - minBuckets/float64(st.N)
	if qBound < 0 {
		qBound = 0
	}
	return (1 + qBound + 1) / 3
}

// run executes the tournament until k results are emitted or every leaf
// is exhausted.
func (s *selector) run(k int) []Result {
	h := &leafHeap{}
	for _, lf := range s.leafs {
		s.advance(lf)
		if head, ok := lf.head(); ok {
			heap.Push(h, leafEntry{lf, head.Score})
		}
	}
	var out []Result
	for h.Len() > 0 && len(out) < k {
		if s.done() {
			return out
		}
		e := heap.Pop(h).(leafEntry)
		lf := e.leaf
		head, ok := lf.head()
		if !ok {
			continue
		}
		// The leaf's cached priority can be stale; reinsert if the actual
		// head is worse than the next leaf's priority.
		if h.Len() > 0 && head.Score < (*h)[0].priority-1e-12 {
			heap.Push(h, leafEntry{lf, head.Score})
			continue
		}
		out = append(out, head)
		lf.ready = lf.ready[1:]
		s.stats.NodesEmitted++
		if len(out) >= k {
			break
		}
		s.advance(lf)
		if next, ok := lf.head(); ok {
			heap.Push(h, leafEntry{lf, next.Score})
		}
	}
	return out
}

// head returns the leaf's current best materialized candidate.
func (lf *leaf) head() (Result, bool) {
	if len(lf.ready) == 0 {
		return Result{}, false
	}
	return lf.ready[0], true
}

// advance materializes pending specs while one could still beat the
// leaf's best materialized candidate, then keeps ready sorted — the
// bound-based pruning of §V-B optimization 2: specs whose score upper
// bound cannot beat the leaf's proven head are never executed (and, via
// the tournament, leaves whose head cannot win are never advanced).
// done reports whether the selector's context has been cancelled.
func (s *selector) done() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

func (s *selector) advance(lf *leaf) {
	for len(lf.pending) > 0 {
		if s.done() {
			return
		}
		top := lf.pending[0]
		if len(lf.ready) > 0 && top.bound <= lf.ready[0].Score {
			break // head is already provably the leaf's best
		}
		lf.pending = lf.pending[1:]
		results := s.materialize(lf.xName, top)
		lf.ready = append(lf.ready, results...)
		sort.SliceStable(lf.ready, func(a, b int) bool { return lf.ready[a].Score > lf.ready[b].Score })
	}
}

// materialize executes one spec through the shared bucketing pass and
// scores each allowed chart type.
func (s *selector) materialize(xName string, p pendingSpec) []Result {
	s.stats.SpecsMaterialized++
	x := s.t.Column(xName)
	y := s.t.Column(p.yName)
	res := s.sharedApply(x, y, p.spec)
	if res == nil || res.Len() == 0 {
		return nil
	}
	q := vizql.Query{X: xName, Y: p.yName, From: s.t.Name, Spec: p.spec}
	xo := outTypeOf(x.Type, p.spec.Kind)
	correlated := false
	base := buildNode(q, x, y, res, xo)
	if xo == dataset.Numerical && base.Corr >= rules.CorrelationThreshold {
		correlated = true
	}
	var out []Result
	for _, typ := range rules.ChartTypes(xo, correlated) {
		if p.spec.Kind == transform.KindNone && typ == chart.Bar {
			continue
		}
		if p.spec.Kind != transform.KindNone && typ == chart.Scatter {
			continue
		}
		n := *base
		n.Query.Viz = typ
		n.Chart = typ
		n.Features[13] = float64(typ)
		score := s.score(&n)
		out = append(out, Result{Node: &n, Score: score})
	}
	return out
}

// score is the leaf-local progressive score: the mean of raw M and Q
// (column importance W is a set-relative quantity; the tournament treats
// it as uniform, which the paper's per-leaf "best by each factor" sidesteps
// the same way).
func (s *selector) score(n *vizql.Node) float64 {
	return (rawMOf(n, s.o) + rawQOf(n)) / 2
}

// sharedApply resolves a transform through the shared bucketing cache.
func (s *selector) sharedApply(x, y *dataset.Column, spec transform.Spec) *transform.Result {
	if spec.Kind == transform.KindNone {
		res, err := transform.Apply(x, y, spec)
		if err != nil {
			return nil
		}
		return res
	}
	key := fmt.Sprintf("%s|%d|%d|%d", x.Name, spec.Kind, spec.Unit, spec.N)
	b := s.buckets[key]
	if b == nil {
		b = s.bucketize(x, spec)
		s.buckets[key] = b
	}
	if b == nil || len(b.labels) == 0 {
		return nil
	}
	out := &transform.Result{
		XLabels:   b.labels,
		XOrder:    b.order,
		InputRows: b.input,
	}
	switch spec.Agg {
	case transform.AggCnt:
		out.Y = b.count
	case transform.AggSum:
		sums := b.sums[y.Name]
		if sums == nil {
			return nil
		}
		out.Y = sums
	case transform.AggAvg:
		sums := b.sums[y.Name]
		if sums == nil {
			return nil
		}
		avg := make([]float64, len(sums))
		for i := range sums {
			if b.count[i] > 0 {
				avg[i] = sums[i] / b.count[i]
			}
		}
		out.Y = avg
	default:
		return nil
	}
	return out
}

// bucketize performs the single shared pass for a column + bucketing: it
// delegates bucket formation to the transform package and then
// accumulates per-bucket sums for every numerical column straight off
// the row→bucket assignment, without materializing per-bucket row lists.
func (s *selector) bucketize(x *dataset.Column, spec transform.Spec) *bucketing {
	bkSpec := spec
	bkSpec.Agg = transform.AggCnt
	bk, err := transform.Bucketize(x, bkSpec)
	if err != nil {
		return nil
	}
	count := make([]float64, bk.Len())
	for i, c := range bk.Counts {
		count[i] = float64(c)
	}
	b := &bucketing{
		labels: bk.Labels,
		order:  bk.Order,
		count:  count,
		sums:   make(map[string][]float64),
		input:  bk.Input,
	}
	var numeric []*dataset.Column
	for _, y := range s.t.Columns {
		if y.Type == dataset.Numerical {
			numeric = append(numeric, y)
		}
	}
	// Per-column sums are independent sweeps over the shared row→bucket
	// assignment; fan them out, each into its own slot, and install into
	// the map serially (map writes are not concurrent-safe). Sums
	// accumulate per column in ascending row order regardless, so values
	// are bit-identical for any worker count.
	rb := bk.RowBucket
	sumsByCol := make([][]float64, len(numeric))
	_ = pool.ForEachBlock(s.ctx, "progressive_sums", s.opts.Workers, len(numeric), 1, func(lo, hi int) error {
		for yi := lo; yi < hi; yi++ {
			y := numeric[yi]
			nums := y.NumsSlice()
			sums := make([]float64, bk.Len())
			for i, bi := range rb {
				if bi < 0 || y.IsNull(i) {
					continue
				}
				sums[bi] += nums[i]
			}
			sumsByCol[yi] = sums
		}
		return nil
	})
	for yi, y := range numeric {
		if sumsByCol[yi] != nil {
			b.sums[y.Name] = sumsByCol[yi]
		}
	}
	return b
}

// leafHeap is a max-heap of leaves keyed by their head score.
type leafEntry struct {
	leaf     *leaf
	priority float64
}

type leafHeap []leafEntry

func (h leafHeap) Len() int            { return len(h) }
func (h leafHeap) Less(i, j int) bool  { return h[i].priority > h[j].priority }
func (h leafHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *leafHeap) Push(x interface{}) { *h = append(*h, x.(leafEntry)) }
func (h *leafHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func outTypeOf(in dataset.ColType, kind transform.Kind) dataset.ColType {
	switch kind {
	case transform.KindBinUnit:
		return dataset.Temporal
	case transform.KindBinCount, transform.KindBinUDF:
		return dataset.Numerical
	default:
		return in
	}
}

// buildNode constructs a vizql.Node around a shared transform result
// (chart type filled in by the caller per variant).
func buildNode(q vizql.Query, x, y *dataset.Column, res *transform.Result, xo dataset.ColType) *vizql.Node {
	n := &vizql.Node{
		Query: q,
		XName: x.Name, YName: y.Name,
		XType: x.Type, YType: y.Type,
		InputRows: res.InputRows,
		Res:       res,
		XOutType:  xo,
	}
	vizql.FillDerived(n)
	return n
}

// rawMOf and rawQOf re-expose the rank package's raw factor computations
// for leaf-local scoring.
func rawMOf(n *vizql.Node, o rank.FactorOptions) float64 { return rank.RawM(n, o) }
func rawQOf(n *vizql.Node) float64                       { return rank.RawQ(n) }

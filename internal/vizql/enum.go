package vizql

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/deepeye/deepeye/internal/chart"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/feature"
	"github.com/deepeye/deepeye/internal/pool"
	"github.com/deepeye/deepeye/internal/stats"
	"github.com/deepeye/deepeye/internal/transform"
)

// DefaultUDF is the paper's example user-defined binning function:
// splitting a numerical column at 0 (e.g. early vs late departures,
// Fig. 5(d)).
var DefaultUDF = &transform.UDF{
	Name: "sign",
	Fn: func(v float64) (string, float64) {
		if v < 0 {
			return "< 0", 0
		}
		return ">= 0", 1
	},
}

// enumSpecs returns the transform space for one ordered column pair: do
// nothing, GROUP BY X, or one of the binnings (7 absolute calendar units,
// 3 periodic calendar units, default buckets, UDF), crossed with the
// aggregate choices. Raw pass-through carries no aggregate;
// grouped/binned transforms carry one of {SUM, AVG, CNT}. The resulting
// 40 combinations stay within the paper's 44-case bound (Fig. 3).
func enumSpecs() []transform.Spec {
	kinds := []transform.Spec{
		{Kind: transform.KindGroup},
		{Kind: transform.KindBinUnit, Unit: transform.ByMinute},
		{Kind: transform.KindBinUnit, Unit: transform.ByHour},
		{Kind: transform.KindBinUnit, Unit: transform.ByDay},
		{Kind: transform.KindBinUnit, Unit: transform.ByWeek},
		{Kind: transform.KindBinUnit, Unit: transform.ByMonth},
		{Kind: transform.KindBinUnit, Unit: transform.ByQuarter},
		{Kind: transform.KindBinUnit, Unit: transform.ByYear},
		{Kind: transform.KindBinUnit, Unit: transform.ByHourOfDay},
		{Kind: transform.KindBinUnit, Unit: transform.ByDayOfWeek},
		{Kind: transform.KindBinUnit, Unit: transform.ByMonthOfYear},
		{Kind: transform.KindBinCount, N: transform.DefaultBinCount},
		{Kind: transform.KindBinUDF, UDF: DefaultUDF},
	}
	aggs := []transform.Agg{transform.AggSum, transform.AggAvg, transform.AggCnt}
	specs := []transform.Spec{{Kind: transform.KindNone, Agg: transform.AggNone}}
	for _, k := range kinds {
		for _, a := range aggs {
			s := k
			s.Agg = a
			specs = append(specs, s)
		}
	}
	return specs
}

var sortAxes = []transform.SortAxis{transform.SortNone, transform.SortX, transform.SortY}

// EnumerateQueries generates the full two-column search space of Fig. 3
// for a table: every ordered column pair, every transform/aggregate
// combination, every sort axis, every chart type. This is the exhaustive
// "E" configuration of the paper's Fig. 12; most candidates are bad or
// even inexecutable (type mismatches) and are filtered downstream.
func EnumerateQueries(t *dataset.Table) []Query {
	var out []Query
	specs := enumSpecs()
	for i, x := range t.Columns {
		for j, y := range t.Columns {
			if i == j {
				continue
			}
			for _, spec := range specs {
				for _, sort := range sortAxes {
					for _, typ := range chart.AllTypes {
						out = append(out, Query{
							Viz: typ, X: x.Name, Y: y.Name, From: t.Name,
							Spec: spec, Order: sort,
						})
					}
				}
			}
		}
	}
	return out
}

// EnumerateOneColumnQueries generates the one-column extension (§II-B):
// group or bin a single column and count the tuples per bucket. The query
// selects the same column as X and Y with CNT.
func EnumerateOneColumnQueries(t *dataset.Table) []Query {
	var out []Query
	for _, c := range t.Columns {
		for _, spec := range enumSpecs() {
			if spec.Kind == transform.KindNone || spec.Agg != transform.AggCnt {
				continue // one-column charts are histogram-like: bucket + CNT
			}
			for _, sort := range sortAxes {
				for _, typ := range chart.AllTypes {
					out = append(out, Query{
						Viz: typ, X: c.Name, Y: c.Name, From: t.Name,
						Spec: spec, Order: sort,
					})
				}
			}
		}
	}
	return out
}

// ExecuteAllParallelCtx materializes a batch of queries, silently
// dropping the ones that cannot execute (type-incompatible transforms,
// empty output), and returns the rest in query order. ctx is checked
// between queries and between the passes over the data within one, and
// ctx.Err() is returned as soon as cancellation is observed.
//
// Batch caches share work across queries — the first optimization of
// §V-B. The bucketing cache keys on (X, kind, unit, N) — the Y-agnostic
// half of a transform — so the bucket-formation pass over the rows runs
// once per distinct X binning and is reused by every Y column,
// aggregate, and sort order over it. The materialization cache keys on
// (X, Y, spec, sort class) and holds the aggregated series plus its
// derived statistics and feature inputs, so the chart-type variants of
// one transform pay only a feature.Extract each. A bucketed count never
// reads Y, so its entry drops Y from the key: every Y column shares one
// count series, its order, its correlation and trend, and its Y′
// summary, and each node keeps only its own Y name and type. ORDER BY X
// folds into the unsorted class: transforms emit buckets already in X
// order, and re-sorting stably under the same comparator is an identity.
//
// Every cache key starts with X, so splitting the batch by X column
// loses no shared work. The paper calls selection "trivially
// parallelizable" (§VI-D); this is the split that keeps the sharing.
// Each X column's queries run as one pool task with its own caches and
// write their nodes into their own slots, which are then compacted in
// query order, so every worker count returns the same sequence. workers
// follows pool.Normalize: 0 and 1 run the tasks inline.
func ExecuteAllParallelCtx(ctx context.Context, t *dataset.Table, queries []Query, workers int) ([]*Node, error) {
	var xs []string
	byX := make(map[string][]int)
	for i, q := range queries {
		if _, ok := byX[q.X]; !ok {
			xs = append(xs, q.X)
		}
		byX[q.X] = append(byX[q.X], i)
	}
	slots := make([]*Node, len(queries))
	err := pool.ForEachBlock(ctx, "vizql_execute", workers, len(xs), 1, func(lo, hi int) error {
		for _, x := range xs[lo:hi] {
			if err := executeInto(ctx, t, queries, byX[x], slots); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := slots[:0]
	for _, n := range slots {
		if n != nil {
			out = append(out, n)
		}
	}
	clear(slots[len(out):])
	return out, nil
}

// executeInto executes queries[i] for each i in idx, in order, against
// one set of batch caches, and writes each node into slots[i] (left nil
// when the query is dropped).
func executeInto(ctx context.Context, t *dataset.Table, queries []Query, idx []int, slots []*Node) error {
	caches := &execCaches{
		bk:          make(map[bucketingKey]*transform.Bucketing),
		raw:         make(map[[2]string]*transform.Result),
		rawDistinct: make(map[[2]string]int),
		bkDistinct:  make(map[distinctKey]int),
		base:        make(map[baseKey]*transform.Result),
		yi:          make(map[*transform.Result]feature.ColumnInfo),
		exec:        make(map[execKey]*sharedExec),
	}
	for _, i := range idx {
		q := queries[i]
		// A cache miss costs a full pass over the data, so check before
		// every query to keep cancellation latency within one pass.
		if err := ctx.Err(); err != nil {
			return err
		}
		// Decorated queries (WHERE/DESC/LIMIT) change the row set or the
		// bucket order, so nothing about their materialization can share
		// the batch caches; they run standalone and drop on error exactly
		// like an inexecutable plain query. The rule/exhaustive
		// enumerators never emit them, so the hot path is untouched.
		if q.Decorated() {
			n, err := ExecuteCtx(ctx, t, q)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				continue
			}
			slots[i] = n
			continue
		}
		// The Y column is looked up per query, not per cache entry: a
		// shared count still drops a query that names an unknown Y.
		y := t.Column(q.Y)
		if y == nil {
			continue
		}
		sc := q.Order
		if sc == transform.SortX && q.Spec.Kind != transform.KindNone {
			sc = transform.SortNone
		}
		key := execKey{base: baseKey{x: q.X, y: q.Y, spec: keyOf(q.Spec)}, sort: sc}
		if countsOnly(q.Spec) {
			key.base.y = "" // the same series for every Y column
		}
		cv := caches.exec[key]
		if cv == nil {
			cv = executeShared(ctx, t, q, key.base, sc, caches)
			if err := ctx.Err(); err != nil {
				return err // cv may be cut short, so it is not cached
			}
			caches.exec[key] = cv
		}
		if !cv.ok {
			continue
		}
		n := &Node{
			Query: q, Chart: q.Viz,
			XName: q.X, YName: q.Y,
			XType: cv.xType, YType: y.Type,
			InputRows: cv.res.InputRows,
			Res:       cv.res, // shared read-only with sibling chart types and, under a count, Y columns
			XOutType:  cv.xOutType,
			Corr:      cv.corr,
			TrendR2:   cv.trendR2,
			TrendKind: cv.trendKind,
			distinctX: cv.xi.Distinct,
		}
		n.Features = feature.Extract(cv.xi, cv.yi, cv.corr, n.Chart)
		slots[i] = n
	}
	return nil
}

// specKey is the comparable form of a transform.Spec. It holds the
// fields Spec.String prints for each kind, so two specs of a known kind
// share a key exactly when they print alike, without formatting either.
type specKey struct {
	kind transform.Kind
	unit transform.BinUnit
	n    int
	udf  string
	agg  transform.Agg
}

func keyOf(s transform.Spec) specKey {
	k := specKey{kind: s.Kind, agg: s.Agg}
	switch s.Kind {
	case transform.KindBinUnit:
		k.unit = s.Unit
	case transform.KindBinCount:
		k.n = s.N
	case transform.KindBinUDF:
		k.udf = "udf"
		if s.UDF != nil {
			k.udf = s.UDF.Name
		}
	}
	return k
}

// countsOnly reports whether a spec's result is the per-bucket row
// count, which transform.ApplyBucketed computes without reading Y.
func countsOnly(s transform.Spec) bool {
	return s.Kind != transform.KindNone && s.Agg != transform.AggSum && s.Agg != transform.AggAvg
}

// bucketingKey identifies the Y-agnostic half of a transform over one
// X column: everything that determines bucket membership (the spec
// with its aggregate cleared).
type bucketingKey struct {
	x    string
	spec specKey
}

// execKey identifies one materialization-cache entry: the row-order
// result it starts from and the sort class applied to it.
type execKey struct {
	base baseKey
	sort transform.SortAxis
}

// sharedExec is one materialized (X, Y, spec, sort class) combination:
// the transformed series plus every derived quantity the chart-type
// variants share.
type sharedExec struct {
	res       *transform.Result
	xType     dataset.ColType
	xOutType  dataset.ColType
	corr      float64
	trendR2   float64
	trendKind stats.TrendKind
	xi, yi    feature.ColumnInfo
	ok        bool
}

// execCaches bundles the state one X column's queries share: the
// Y-agnostic bucketings, the per-pair raw materializations, the raw
// label distinct counts (order-invariant, so the three sort classes of
// one pair share one count), and the materializations themselves.
type execCaches struct {
	bk          map[bucketingKey]*transform.Bucketing
	raw         map[[2]string]*transform.Result
	rawDistinct map[[2]string]int
	bkDistinct  map[distinctKey]int
	base        map[baseKey]*transform.Result
	yi          map[*transform.Result]feature.ColumnInfo
	exec        map[execKey]*sharedExec
}

// baseKey identifies the row-order materialization of one (X, Y, spec)
// — what the sort classes of a transform share before OrderBy. Y is
// empty for a count (see countsOnly).
type baseKey struct {
	x, y string
	spec specKey
}

// distinctKey identifies everything the label set of a bucketed result
// depends on. Under CNT the labels are exactly the bucketing's (the
// counts path shares bk.Labels), so y stays empty and every Y column
// reuses one count; under SUM/AVG buckets whose rows all have null Y
// are dropped, so the drop set — determined by the bucketing and the
// Y column, not the aggregate — joins the key.
type distinctKey struct {
	bk bucketingKey
	y  string
}

// executeShared materializes one cache entry, reusing (or seeding) the
// shared bucketing for the query's X transform. Inexecutable queries —
// unknown X, type-incompatible transforms, empty output — yield an
// entry with ok == false, mirroring ExecuteCtx's error cases; the
// caller has already dropped a query whose Y column is unknown. Like
// ExecuteCtx, it re-checks ctx between its passes over the result (a
// raw pass-through's is the size of the table) and returns early, with
// ok == false, once ctx is done.
func executeShared(ctx context.Context, t *dataset.Table, q Query, bkey baseKey, sc transform.SortAxis, caches *execCaches) *sharedExec {
	sr := &sharedExec{}
	x := t.Column(q.X)
	y := t.Column(q.Y)
	if x == nil {
		return sr
	}
	needY := q.Spec.Agg == transform.AggSum || q.Spec.Agg == transform.AggAvg
	if needY && y.Type != dataset.Numerical {
		return sr
	}
	var res *transform.Result
	var dk distinctKey
	// A UDF under SUM/AVG derives bucket order from the first non-null-Y
	// row — Y-dependent, so it cannot share a bucketing; neither can raw
	// pass-through, which has no buckets at all.
	if q.Spec.Kind == transform.KindNone {
		// Raw pass-through has one materialization per (X, Y) — the three
		// sort classes differ only in the OrderBy below, so the row-order
		// result is cached and the sorted classes rebind fresh slices off
		// it (nil marks an inexecutable pair, mirroring bkCache).
		rk := [2]string{q.X, q.Y}
		r, seen := caches.raw[rk]
		if !seen {
			if a, err := transform.Apply(x, y, q.Spec); err == nil {
				r = a
			}
			caches.raw[rk] = r
		}
		if r == nil {
			return sr
		}
		res = r
	} else {
		k := bucketingKey{x: q.X, spec: bkey.spec}
		k.spec.agg = transform.AggNone
		dk = distinctKey{bk: k, y: bkey.y}
		r, seen := caches.base[bkey]
		if !seen {
			if q.Spec.Kind == transform.KindBinUDF && needY {
				if a, err := transform.Apply(x, y, q.Spec); err == nil {
					r = a
				}
			} else {
				bk, seen := caches.bk[k]
				if !seen {
					if b, err := transform.Bucketize(x, q.Spec); err == nil {
						bk = b
					}
					caches.bk[k] = bk // nil marks an invalid (x, spec) combination
				}
				if bk != nil {
					// Ranking, dedupe, and the rendered chart never touch
					// SourceRows (consumers that need provenance guard on
					// its presence), so the per-bucket row lists — the
					// batch's largest allocation — are not materialized.
					r = transform.ApplyBucketed(bk, y, q.Spec, false)
				}
			}
			caches.base[bkey] = r // nil marks an inexecutable combination
		}
		if r == nil {
			return sr
		}
		res = r
	}
	if res.Len() == 0 || ctx.Err() != nil {
		return sr
	}
	base := res
	if sc != transform.SortNone {
		// SortX survives the fold only for raw pass-through, where rows
		// really are unordered; SortY reorders any result. The result
		// struct is fresh per cache entry and OrderBy rebinds sorted
		// copies without touching the original arrays, so slices shared
		// with the bucketing or sibling entries keep their own X order.
		res = &transform.Result{
			XLabels: res.XLabels, XOrder: res.XOrder, Y: res.Y,
			SourceRows: res.SourceRows, InputRows: res.InputRows,
		}
		transform.OrderBy(res, sc)
		if ctx.Err() != nil {
			return sr
		}
	}
	sr.res = res
	sr.xType = x.Type
	sr.xOutType = outType(x.Type, q.Spec.Kind)
	if sr.xOutType != dataset.Categorical {
		// The NaN-filtered (X′, Y′) series feeds three scalar summaries
		// and is never retained, so the buffers come from a pool.
		buf := xyScratch.Get().(*xyBufs)
		cx, cy := buf.x[:0], buf.y[:0]
		for i := range res.XOrder {
			if !math.IsNaN(res.XOrder[i]) {
				cx = append(cx, res.XOrder[i])
				cy = append(cy, res.Y[i])
			}
		}
		sr.corr, sr.trendKind, sr.trendR2 = feature.CorrelationTrend(cx, cy)
		// Only min(X′)/max(X′) of the summary survive: N is reset to the
		// transformed length and Distinct to the label count below, so
		// FromSeries' distinct-counting pass would be thrown away.
		sr.xi = feature.ColumnInfo{Type: sr.xOutType, Min: math.Inf(1), Max: math.Inf(-1)}
		for _, v := range cx {
			if v < sr.xi.Min {
				sr.xi.Min = v
			}
			if v > sr.xi.Max {
				sr.xi.Max = v
			}
		}
		if len(cx) == 0 {
			sr.xi.Min, sr.xi.Max = 0, 0
		}
		buf.x, buf.y = cx, cy
		xyScratch.Put(buf)
	} else {
		sr.corr = 0
		sr.trendKind, sr.trendR2 = stats.TrendSeries(res.Y)
		sr.xi = feature.ColumnInfo{Type: dataset.Categorical}
	}
	if ctx.Err() != nil {
		return sr
	}
	sr.xi.N = res.Len()
	// d(X′) counts distinct labels on every branch (FromSeries counted
	// distinct order keys, not labels). The count is order-invariant, so
	// raw pass-through — whose three sort classes share one label
	// multiset, and whose |X|-sized label sets dominate the cost —
	// computes it once per column pair.
	if q.Spec.Kind == transform.KindNone {
		rk := [2]string{q.X, q.Y}
		d, ok := caches.rawDistinct[rk]
		if !ok {
			d = distinctLabels(res.XLabels)
			caches.rawDistinct[rk] = d
		}
		sr.xi.Distinct = d
	} else {
		d, ok := caches.bkDistinct[dk]
		if !ok {
			d = distinctLabels(res.XLabels)
			caches.bkDistinct[dk] = d
		}
		sr.xi.Distinct = d
	}
	if ctx.Err() != nil {
		return sr
	}
	// The Y′ summary — min, max, N, distinct — is invariant under the
	// sort-class permutation (distinct counting sorts its own copy), so
	// the classes of one (X, Y, spec) share the base result's summary.
	// Per-order statistics (corr, trend) stay per-entry above: their
	// accumulation order is the result order.
	yi, ok := caches.yi[base]
	if !ok {
		yi = feature.FromSeries(res.Y, dataset.Numerical)
		caches.yi[base] = yi
	}
	sr.yi = yi
	sr.ok = true
	return sr
}

func distinctLabels(labels []string) int {
	return feature.FromLabels(labels).Distinct
}

// xyBufs holds the NaN-filtered numeric series scratch for executeShared.
type xyBufs struct{ x, y []float64 }

var xyScratch = sync.Pool{New: func() any { return new(xyBufs) }}

// SearchSpaceTwoColumns is the Fig. 3 closed form for two columns:
// m(m−1) ordered pairs × 44 transform cases × 4 chart types × 3 sort
// choices = 528·m(m−1).
func SearchSpaceTwoColumns(m int) int {
	return 528 * m * (m - 1)
}

// SearchSpaceOneColumn is the paper's one-column extension count:
// m columns × 22 transform cases × 4 chart types × 3 sort choices = 264·m.
func SearchSpaceOneColumn(m int) int {
	return 264 * m
}

// SearchSpaceThreeColumns is the paper's (X, Y, Z) extension count:
// m³ column selections × 44 transforms × 4 aggregations × 4 sort choices
// = 704·m³.
func SearchSpaceThreeColumns(m int) int {
	return 704 * m * m * m
}

// SearchSpaceMultiY counts the multi-Y extension: one X column with z
// Y-columns (2 ≤ z ≤ m−1) compared on the same axes. Following §II-B with
// the combinatorics made explicit: choose X (m ways), choose the z Y
// columns from the remaining m−1, transform X (11 ways), aggregate each Y
// independently (4^z), pick a chart type (4), and sort by X′, one of the
// z Y′s, or nothing (z+2). Overflow-safe up to m ≈ 30 for int64.
func SearchSpaceMultiY(m int) int64 {
	var total int64
	for z := 2; z <= m-1; z++ {
		c := binomial(m-1, z)
		term := int64(m) * 11 * c * pow64(4, z) * 4 * int64(z+2)
		total += term
	}
	return total
}

func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := int64(1)
	for i := 1; i <= k; i++ {
		res = res * int64(n-k+i) / int64(i)
	}
	return res
}

func pow64(base, exp int) int64 {
	r := int64(1)
	for i := 0; i < exp; i++ {
		r *= int64(base)
	}
	return r
}

// ValidateQuery checks a query against a table without executing it:
// referenced columns exist and the transform is type-compatible.
func ValidateQuery(t *dataset.Table, q Query) error {
	x := t.Column(q.X)
	if x == nil {
		return fmt.Errorf("vizql: unknown column %q", q.X)
	}
	y := t.Column(q.Y)
	if y == nil {
		return fmt.Errorf("vizql: unknown column %q", q.Y)
	}
	switch q.Spec.Kind {
	case transform.KindBinUnit:
		if x.Type != dataset.Temporal {
			return fmt.Errorf("vizql: BIN BY %s needs temporal x", q.Spec.Unit)
		}
	case transform.KindBinCount, transform.KindBinUDF:
		if x.Type != dataset.Numerical {
			return fmt.Errorf("vizql: numeric binning needs numerical x")
		}
	case transform.KindNone:
		if y.Type != dataset.Numerical {
			return fmt.Errorf("vizql: raw pass-through needs numerical y")
		}
	}
	if (q.Spec.Agg == transform.AggSum || q.Spec.Agg == transform.AggAvg) && y.Type != dataset.Numerical {
		return fmt.Errorf("vizql: %s needs numerical y", q.Spec.Agg)
	}
	return nil
}

// Dedupe removes nodes whose rendered data is identical (same transformed
// series, chart type); different queries can collapse to the same chart
// (e.g. GROUP and BIN BY DAY on a date-granular column).
//
// Two nodes are duplicates iff their fingerprint headers and formatted
// bodies (appendFingerprintBody: "label=%.9g;" per bucket) are equal,
// but the bodies are never formatted: each is keyed by appendBodyKey,
// whose bytes are equal exactly when the formatted bodies are. The seen
// set holds (header hash, body hash) pairs — the same byte-equality-
// modulo-hash-collision test as hashing the concatenation. Chart-type
// siblings, and under a count every Y column, share a *Result, so each
// body is keyed once per distinct Result and the scratch bytes discarded
// (the arena never holds more than one body).
func Dedupe(nodes []*Node) []*Node {
	type body struct {
		hash uint64
		text bool // keyed by its formatted text (appendBodyKey)
	}
	type dedupeKey struct {
		header uint64
		body   body
	}
	seen := make(map[dedupeKey]bool, len(nodes))
	bodies := make(map[*transform.Result]body, len(nodes))
	var arena []byte
	if ap := bodyArena.Swap(nil); ap != nil {
		arena = (*ap)[:0]
	}
	var out []*Node
	for _, n := range nodes {
		b, ok := bodies[n.Res]
		if !ok {
			arena, b.text = appendBodyKey(arena[:0], n.Res)
			b.hash = maphash.Bytes(dedupeSeed, arena)
			bodies[n.Res] = b
		}
		var hdr [64]byte
		key := dedupeKey{header: maphash.Bytes(dedupeSeed, appendFingerprintHeader(hdr[:0], n)), body: b}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, n)
	}
	bodyArena.Store(&arena)
	return out
}

// appendBodyKey appends Dedupe's key for a result's body: bytes that
// two results of equal length share exactly when their formatted bodies
// (appendFingerprintBody) are equal. While no label holds '=' or ';',
// a formatted body splits back into its (label, text) pairs, so it is
// keyed as each label, '=', and the 8 bytes of valueKey — the
// fixed-width value keeps the split unique, and valueKey is equal
// exactly when the texts are. A label holding either separator can make
// different pairs format alike, so such a body is keyed by its formatted
// text and reported with text set; a body of the other kind never
// formats alike to it, since it has exactly one '=' and one ';' per
// bucket.
func appendBodyKey(dst []byte, r *transform.Result) (key []byte, text bool) {
	start := len(dst)
	for i, l := range r.XLabels {
		for j := 0; j < len(l); j++ {
			if l[j] == '=' || l[j] == ';' {
				return appendFingerprintBody(dst[:start], r), true
			}
		}
		dst = append(dst, l...)
		dst = append(dst, '=')
		dst = binary.LittleEndian.AppendUint64(dst, valueKey(r.Y[i]))
	}
	return dst, false
}

// valueKey returns the bits of the double nearest to the "%.9g" text of
// roundSig(v), so two values share a key exactly when their texts are
// equal: distinct 9-significant-digit texts of doubles parse to
// distinct doubles, and every NaN formats and parses alike. Where
// roundSig's result is already that nearest double its bits are the
// key; otherwise the text is formatted and parsed back.
func valueKey(v float64) uint64 {
	w, nearest := roundSigNearest(v)
	if !nearest {
		// The text is AppendFloat's own output, which ParseFloat always
		// accepts ("NaN" and "±Inf" included), so the error is nil.
		var buf [32]byte
		w, _ = strconv.ParseFloat(string(strconv.AppendFloat(buf[:0], w, 'g', 9, 64)), 64)
	}
	return math.Float64bits(w)
}

// bodyArena caches Dedupe's body arena between calls. A sync.Pool is
// the wrong shape here: the arena is checked out once per query, which
// spans GC cycles, so the pool's per-GC flushing would discard it and
// the multi-megabyte buffer would be regrown from scratch every call.
// An atomic holder survives GC; concurrent Dedupes fall back to a
// fresh arena and the last one back wins the slot.
var bodyArena atomic.Pointer[[]byte]

// dedupeSeed keys Dedupe's internal hashes. maphash is AES-accelerated
// — an order of magnitude faster than FNV's byte-at-a-time loop over
// the multi-kilobyte bodies — and dedupe only needs equality within one
// process, not the stable FNV digests dataFingerprint exposes.
var dedupeSeed = maphash.MakeSeed()

// FNV-64a, inlined: hashing byte-by-byte through hash.Hash64's Write
// costs an interface call per bucket on the dedupe hot path. Constants
// and update order match hash/fnv exactly.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvAdd(h uint64, buf []byte) uint64 {
	for _, c := range buf {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// dataFingerprint hashes the complete transformed series so distinct
// charts can never collide on a sampled subset; values are rounded to 9
// significant digits so float drift between execution paths does not
// split identical charts. The stream is byte-identical to the
// historical fmt.Fprintf encoding ("%s|%s|%s|%d|" header, "%s=%.9g;"
// per bucket); TestDataFingerprintMatchesFmt pins the equivalence.
// Dedupe keys bodies without formatting them (appendBodyKey).
func dataFingerprint(n *Node) string {
	body := appendFingerprintBody(make([]byte, 0, n.Res.Len()*24), n.Res)
	return strconv.FormatUint(fnvAdd(headerHash(n), body), 16)
}

// headerHash seeds FNV-64a with the "%s|%s|%s|%d|" node header.
func headerHash(n *Node) uint64 {
	var hdr [64]byte
	return fnvAdd(fnvOffset64, appendFingerprintHeader(hdr[:0], n))
}

// appendFingerprintHeader appends the "%s|%s|%s|%d|" node header.
func appendFingerprintHeader(dst []byte, n *Node) []byte {
	dst = append(dst, n.Chart.String()...)
	dst = append(dst, '|')
	dst = append(dst, n.XName...)
	dst = append(dst, '|')
	dst = append(dst, n.YName...)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(n.Res.Len()), 10)
	dst = append(dst, '|')
	return dst
}

// appendFingerprintBody appends the "%s=%.9g;" per-bucket stream.
func appendFingerprintBody(dst []byte, r *transform.Result) []byte {
	for i := 0; i < r.Len(); i++ {
		dst = append(dst, r.XLabels[i]...)
		dst = append(dst, '=')
		dst = strconv.AppendFloat(dst, roundSig(r.Y[i]), 'g', 9, 64)
		dst = append(dst, ';')
	}
	return dst
}

// pow10tab caches math.Pow(10, k) for every scale exponent roundSig can
// produce (|v| spans denormals to MaxFloat64, so 9−ceil(log10|v|) stays
// well inside ±350). The entries are computed by math.Pow itself, so
// the table lookup is bit-identical to the call it replaces.
var pow10tab = func() (t [701]float64) {
	for i := range t {
		t[i] = math.Pow(10, float64(i-350))
	}
	return
}()

func roundSig(v float64) float64 {
	w, _ := roundSigNearest(v)
	return w
}

// roundSigNearest rounds v to 9 significant digits and reports whether
// the result is the double nearest to its own decimal m·10^−e, so that
// its "%.9g" text parses back to it. |m| ≤ 1e9 (log10 is off by at most
// a few ulps, which only ever rounds m to 1e9), so the decimal has at
// most 9 significant digits. That holds for ±0, ±Inf and the integer
// fast path, and whenever 0 ≤ e ≤ 22: then m and 10^e are both exact
// doubles and the one division rounds m/10^e to nearest. NaN is never
// nearest: its payload bits vary while its text does not.
func roundSigNearest(v float64) (float64, bool) {
	if math.IsNaN(v) {
		return v, false
	}
	if v == 0 || math.IsInf(v, 0) {
		return v, true
	}
	// An integer with at most 9 digits is its own 9-significant-digit
	// rounding: |v·scale| ≤ 1e10 stays exactly representable for any
	// scale = 10^(9−d) the slow path could pick (even with log10 off by
	// one at a decade boundary), so Round is the identity and the final
	// division restores v exactly. CNT aggregates make this the common
	// case, and it skips the Log10 that dominates the dedupe profile.
	if v == math.Trunc(v) && v > -1e9 && v < 1e9 {
		return v, true
	}
	e := 9 - math.Ceil(math.Log10(math.Abs(v)))
	var scale float64
	if i := int(e); float64(i) == e && i >= -350 && i <= 350 {
		scale = pow10tab[i+350]
	} else {
		scale = math.Pow(10, e)
	}
	if math.IsInf(scale, 1) {
		// Below about 1e-299 the scale overflows and Round(v·Inf)/Inf
		// is NaN, so take the double nearest to v's own text instead.
		w, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 9, 64), 64)
		return w, false
	}
	return math.Round(v*scale) / scale, e >= 0 && e <= 22
}

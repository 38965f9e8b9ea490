// Package transform implements DeepEye's data operations (paper §II-A):
// binning of temporal and numerical columns, grouping of categorical
// columns, the three aggregation operators {SUM, AVG, CNT}, and ORDER BY —
// producing the transformed series (X′, Y′) that visualization nodes carry.
//
// Bucket formation is split from aggregation: Bucketize computes the
// per-row bucket assignment for (X, spec) as a typed array pass — group
// keys are dictionary codes, calendar bins are integer arithmetic on
// Unix seconds, numeric bins are index arithmetic — with labels
// formatted once per bucket instead of once per row. ApplyBucketed then
// aggregates any Y column over a shared bucketing, which is how the
// batch executor amortizes one bucketing pass across every Y column,
// aggregate, and sort order (§V-B shared transformation).
package transform

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/deepeye/deepeye/internal/dataset"
)

// Agg is one of the paper's aggregation operators.
type Agg int

const (
	// AggNone leaves Y untransformed (raw X-Y pairs, e.g. scatter plots).
	AggNone Agg = iota
	// AggSum sums the Y values falling into each group or bin.
	AggSum
	// AggAvg averages the Y values in each group or bin.
	AggAvg
	// AggCnt counts the tuples in each group or bin.
	AggCnt
)

// String returns the paper's operator spelling.
func (a Agg) String() string {
	switch a {
	case AggNone:
		return "NONE"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggCnt:
		return "CNT"
	default:
		return fmt.Sprintf("Agg(%d)", int(a))
	}
}

// BinUnit is a temporal binning granularity (paper: BIN X BY
// {MINUTE, HOUR, DAY, WEEK, MONTH, QUARTER, YEAR}).
type BinUnit int

const (
	ByMinute BinUnit = iota
	ByHour
	ByDay
	ByWeek
	ByMonth
	ByQuarter
	ByYear
	// Periodic units fold the calendar onto itself: the paper's Fig. 1(c)
	// bins a year of flights "BY HOUR" into 24 buckets (Table II reports
	// |X′| = 24), i.e. by hour of day. These units make that chart — and
	// weekday/seasonal profiles — expressible.
	ByHourOfDay
	ByDayOfWeek
	ByMonthOfYear
)

// String returns the unit keyword.
func (u BinUnit) String() string {
	switch u {
	case ByMinute:
		return "MINUTE"
	case ByHour:
		return "HOUR"
	case ByDay:
		return "DAY"
	case ByWeek:
		return "WEEK"
	case ByMonth:
		return "MONTH"
	case ByQuarter:
		return "QUARTER"
	case ByYear:
		return "YEAR"
	case ByHourOfDay:
		return "HOUR_OF_DAY"
	case ByDayOfWeek:
		return "DAY_OF_WEEK"
	case ByMonthOfYear:
		return "MONTH_OF_YEAR"
	default:
		return fmt.Sprintf("BinUnit(%d)", int(u))
	}
}

// AllBinUnits lists the seven absolute temporal granularities in order.
var AllBinUnits = []BinUnit{ByMinute, ByHour, ByDay, ByWeek, ByMonth, ByQuarter, ByYear}

// PeriodicBinUnits lists the calendar-folding granularities.
var PeriodicBinUnits = []BinUnit{ByHourOfDay, ByDayOfWeek, ByMonthOfYear}

// Kind discriminates the transform applied to the X column.
type Kind int

const (
	// KindNone applies no transform: raw X values pass through.
	KindNone Kind = iota
	// KindGroup groups by the categorical (or temporal) X values.
	KindGroup
	// KindBinUnit bins a temporal X by a calendar unit.
	KindBinUnit
	// KindBinCount bins a numerical X into N equal-width buckets.
	KindBinCount
	// KindBinUDF bins a numerical X by a user-defined function.
	KindBinUDF
)

// UDF is a user-defined binning function: it maps a numeric value to a
// bucket label and a sort key for that bucket.
type UDF struct {
	Name string
	Fn   func(v float64) (label string, order float64)
}

// Spec describes the full transform of an (X, Y) column pair into
// (X′, Y′): how X is grouped or binned and how Y is aggregated.
type Spec struct {
	Kind Kind
	Unit BinUnit // when Kind == KindBinUnit
	N    int     // when Kind == KindBinCount
	UDF  *UDF    // when Kind == KindBinUDF
	Agg  Agg
}

// String renders the spec in the paper's language fragment form.
func (s Spec) String() string {
	switch s.Kind {
	case KindNone:
		return fmt.Sprintf("RAW,%s", s.Agg)
	case KindGroup:
		return fmt.Sprintf("GROUP,%s", s.Agg)
	case KindBinUnit:
		return fmt.Sprintf("BIN BY %s,%s", s.Unit, s.Agg)
	case KindBinCount:
		return fmt.Sprintf("BIN INTO %d,%s", s.N, s.Agg)
	case KindBinUDF:
		name := "udf"
		if s.UDF != nil {
			name = s.UDF.Name
		}
		return fmt.Sprintf("BIN BY UDF(%s),%s", name, s.Agg)
	default:
		return "?"
	}
}

// Result is the transformed series (X′, Y′): one entry per group/bin in
// XLabels (display form) with XOrder carrying a numeric sort key when one
// exists, and Y the aggregated values. SourceRows[i] lists the input row
// indices that fell into bucket i (the multi-series transforms in
// multi.go aggregate further columns over them).
type Result struct {
	XLabels    []string
	XOrder     []float64 // numeric/temporal sort keys; NaN when unordered
	Y          []float64
	SourceRows [][]int
	InputRows  int // number of non-null input tuples |X|
}

// Len returns the transformed cardinality |X′|.
func (r *Result) Len() int { return len(r.XLabels) }

// Bucketing is the bucket-formation half of a transform, independent of
// the Y column and the aggregate: the sorted bucket axis
// (Labels/Order), per-bucket row counts over non-null X cells, the
// per-row bucket assignment (RowBucket[i] < 0 means row i has no
// bucket), and the number of assigned rows. One Bucketing serves every
// (Y, aggregate) combination over the same (X, spec) via ApplyBucketed.
type Bucketing struct {
	Labels    []string
	Order     []float64
	Counts    []int
	RowBucket []int32
	Input     int
}

// Len returns the number of buckets.
func (b *Bucketing) Len() int { return len(b.Labels) }

// Apply executes the spec over the X and Y columns of a table. For
// Agg == AggCnt, y may equal x (one-column histograms, paper §II-B
// one-column extension). The result buckets are sorted by their natural
// order (numeric sort key when present, else label).
func Apply(x, y *dataset.Column, spec Spec) (*Result, error) {
	if x == nil {
		return nil, fmt.Errorf("transform: nil x column")
	}
	needY := spec.Agg == AggSum || spec.Agg == AggAvg
	if needY {
		if y == nil {
			return nil, fmt.Errorf("transform: %s requires a y column", spec.Agg)
		}
		if y.Type != dataset.Numerical {
			return nil, fmt.Errorf("transform: %s requires numerical y, got %s", spec.Agg, y.Type)
		}
	}
	if spec.Kind == KindNone {
		return applyRaw(x, y, spec)
	}
	if spec.Kind == KindBinUDF && needY {
		if spec.UDF == nil || spec.UDF.Fn == nil {
			return nil, fmt.Errorf("transform: BIN BY UDF requires a udf")
		}
		if x.Type != dataset.Numerical {
			return nil, fmt.Errorf("transform: BIN BY UDF requires numerical x, got %s", x.Type)
		}
		// A UDF assigns a bucket's sort key from the first row that lands
		// in it, and under SUM/AVG "first" means the first row with a
		// non-null Y — a Y-dependent detail the shared bucketing cannot
		// know. Keep the per-row path for this case.
		return applyUDFNeedY(x, y, spec)
	}
	bk, err := Bucketize(x, spec)
	if err != nil {
		return nil, err
	}
	return ApplyBucketed(bk, y, spec, true), nil
}

// Bucketize runs the bucket-formation pass for (x, spec), ignoring
// spec.Agg. It validates the spec/type combination with the same rules
// as Apply.
func Bucketize(x *dataset.Column, spec Spec) (*Bucketing, error) {
	if x == nil {
		return nil, fmt.Errorf("transform: nil x column")
	}
	switch spec.Kind {
	case KindGroup:
		return bucketizeGroup(x), nil
	case KindBinUnit:
		if x.Type != dataset.Temporal {
			return nil, fmt.Errorf("transform: BIN BY %s requires temporal x, got %s", spec.Unit, x.Type)
		}
		return bucketizeUnit(x, spec.Unit), nil
	case KindBinCount:
		if x.Type != dataset.Numerical {
			return nil, fmt.Errorf("transform: BIN INTO N requires numerical x, got %s", x.Type)
		}
		return bucketizeBinCount(x, spec.N), nil
	case KindBinUDF:
		if spec.UDF == nil || spec.UDF.Fn == nil {
			return nil, fmt.Errorf("transform: BIN BY UDF requires a udf")
		}
		if x.Type != dataset.Numerical {
			return nil, fmt.Errorf("transform: BIN BY UDF requires numerical x, got %s", x.Type)
		}
		return bucketizeUDF(x, spec.UDF), nil
	default:
		return nil, fmt.Errorf("transform: unknown kind %d", spec.Kind)
	}
}

// ApplyBucketed aggregates y over a shared bucketing, producing the
// same Result as Apply(x, y, spec) for the bucketing's (x, spec). For
// CNT/NONE aggregates the result adopts the bucketing's Labels/Order
// slices — callers treat results as read-only, as they already do for
// results shared across sibling chart types. withSourceRows controls
// whether SourceRows is materialized (one arena allocation).
func ApplyBucketed(bk *Bucketing, y *dataset.Column, spec Spec, withSourceRows bool) *Result {
	nb := bk.Len()
	if spec.Agg != AggSum && spec.Agg != AggAvg {
		ys := make([]float64, nb)
		for b, c := range bk.Counts {
			ys[b] = float64(c)
		}
		res := &Result{XLabels: bk.Labels, XOrder: bk.Order, Y: ys, InputRows: bk.Input}
		if withSourceRows {
			res.SourceRows = sourceRowsAll(bk)
		}
		return res
	}

	sums := make([]float64, nb)
	ycnt := make([]int, nb)
	for i, b := range bk.RowBucket {
		if b < 0 || y.IsNull(i) {
			continue
		}
		sums[b] += y.NumAt(i)
		ycnt[b]++
	}
	// Buckets whose rows all have null Y never exist under the direct
	// per-row pass (a bucket is created by its first included row);
	// drop them here so the shared path matches bit for bit.
	kept := 0
	input := 0
	for _, c := range ycnt {
		if c > 0 {
			kept++
			input += c
		}
	}
	res := &Result{
		XLabels:   make([]string, 0, kept),
		XOrder:    make([]float64, 0, kept),
		Y:         make([]float64, 0, kept),
		InputRows: input,
	}
	remap := make([]int32, nb)
	for b := 0; b < nb; b++ {
		if ycnt[b] == 0 {
			remap[b] = -1
			continue
		}
		remap[b] = int32(res.Len())
		res.XLabels = append(res.XLabels, bk.Labels[b])
		res.XOrder = append(res.XOrder, bk.Order[b])
		if spec.Agg == AggSum {
			res.Y = append(res.Y, sums[b])
		} else {
			res.Y = append(res.Y, sums[b]/float64(ycnt[b]))
		}
	}
	if withSourceRows {
		res.SourceRows = sourceRowsFiltered(bk, y, remap, ycnt, kept, input)
	}
	return res
}

// sourceRowsAll materializes per-bucket row lists (ascending row order)
// from the row→bucket assignment into a single arena.
func sourceRowsAll(bk *Bucketing) [][]int {
	nb := bk.Len()
	arena := make([]int, bk.Input)
	out := make([][]int, nb)
	pos := make([]int, nb)
	off := 0
	for b, c := range bk.Counts {
		pos[b] = off
		out[b] = arena[off : off : off+c]
		off += c
	}
	for i, b := range bk.RowBucket {
		if b < 0 {
			continue
		}
		arena[pos[b]] = i
		out[b] = out[b][: len(out[b])+1 : cap(out[b])]
		pos[b]++
	}
	return out
}

// sourceRowsFiltered is sourceRowsAll restricted to rows with non-null
// Y, over the kept (remapped) buckets.
func sourceRowsFiltered(bk *Bucketing, y *dataset.Column, remap []int32, ycnt []int, kept, input int) [][]int {
	arena := make([]int, input)
	out := make([][]int, kept)
	pos := make([]int, kept)
	off := 0
	for b, nb := range remap {
		if nb < 0 {
			continue
		}
		pos[nb] = off
		out[nb] = arena[off : off : off+ycnt[b]]
		off += ycnt[b]
	}
	for i, b := range bk.RowBucket {
		if b < 0 || remap[b] < 0 || y.IsNull(i) {
			continue
		}
		nb := remap[b]
		arena[pos[nb]] = i
		out[nb] = out[nb][: len(out[nb])+1 : cap(out[nb])]
		pos[nb]++
	}
	return out
}

// applyRaw passes X through untransformed; Y must be numeric (or nil for
// count-of-self, which is meaningless raw, so it is rejected).
func applyRaw(x, y *dataset.Column, spec Spec) (*Result, error) {
	if spec.Agg != AggNone {
		return nil, fmt.Errorf("transform: raw pass-through cannot aggregate with %s", spec.Agg)
	}
	if y == nil || y.Type != dataset.Numerical {
		return nil, fmt.Errorf("transform: raw pass-through requires numerical y")
	}
	n := x.Len()
	cnt := 0
	for i := 0; i < n; i++ {
		if !x.IsNull(i) && !y.IsNull(i) {
			cnt++
		}
	}
	res := &Result{
		XLabels:    make([]string, 0, cnt),
		XOrder:     make([]float64, 0, cnt),
		Y:          make([]float64, 0, cnt),
		SourceRows: make([][]int, 0, cnt),
		InputRows:  cnt,
	}
	arena := make([]int, cnt)
	k := 0
	for i := 0; i < n; i++ {
		if x.IsNull(i) || y.IsNull(i) {
			continue
		}
		res.XLabels = append(res.XLabels, x.RawAt(i))
		res.XOrder = append(res.XOrder, xOrderValue(x, i))
		res.Y = append(res.Y, y.NumAt(i))
		arena[k] = i
		res.SourceRows = append(res.SourceRows, arena[k:k+1:k+1])
		k++
	}
	return res, nil
}

// xOrderValue returns the sort key of the raw X cell at row i.
func xOrderValue(x *dataset.Column, i int) float64 {
	switch x.Type {
	case dataset.Numerical:
		return x.NumAt(i)
	case dataset.Temporal:
		return float64(x.SecAt(i))
	default:
		return math.NaN()
	}
}

// bucketizeGroup buckets rows by their dictionary code: one array pass,
// no string hashing (GROUP BY X). The bucket label is the interned raw
// string; the sort key is the cell's numeric interpretation (identical
// for every row of a bucket, since equal raws parse equally).
func bucketizeGroup(x *dataset.Column) *Bucketing {
	n := x.Len()
	rb := make([]int32, n)
	codeBucket := make([]int32, x.DictLen())
	for i := range codeBucket {
		codeBucket[i] = -1
	}
	codes := x.Codes()
	bk := &Bucketing{RowBucket: rb}
	for i := 0; i < n; i++ {
		if x.IsNull(i) {
			rb[i] = -1
			continue
		}
		code := codes[i]
		b := codeBucket[code]
		if b < 0 {
			b = int32(len(bk.Labels))
			codeBucket[code] = b
			bk.Labels = append(bk.Labels, x.DictAt(code))
			bk.Order = append(bk.Order, xOrderValue(x, i))
			bk.Counts = append(bk.Counts, 0)
		}
		rb[i] = b
		bk.Counts[b]++
		bk.Input++
	}
	sortBuckets(bk)
	return bk
}

// bucketizeUnit bins a temporal column by a calendar unit: the per-row
// work is integer arithmetic on Unix seconds (proleptic Gregorian, UTC
// — the granularity temporal cells are stored at), and labels are
// formatted once per bucket from the bucket key.
func bucketizeUnit(x *dataset.Column, unit BinUnit) *Bucketing {
	n := x.Len()
	rb := make([]int32, n)
	bk := &Bucketing{RowBucket: rb}
	if !validUnit(unit) {
		// Matches the historical per-row behavior: an unknown unit
		// assigns no rows.
		for i := range rb {
			rb[i] = -1
		}
		return bk
	}
	secs := x.SecsSlice()
	keyBucket := make(map[int64]int32)
	var keys []int64
	for i := 0; i < n; i++ {
		if x.IsNull(i) {
			rb[i] = -1
			continue
		}
		k := unitRowKey(secs[i], unit)
		b, seen := keyBucket[k]
		if !seen {
			b = int32(len(keys))
			keyBucket[k] = b
			keys = append(keys, k)
			bk.Counts = append(bk.Counts, 0)
		}
		rb[i] = b
		bk.Counts[b]++
		bk.Input++
	}
	bk.Labels = make([]string, len(keys))
	bk.Order = make([]float64, len(keys))
	for b, k := range keys {
		bk.Labels[b], bk.Order[b] = unitBucket(k, unit)
	}
	sortBuckets(bk)
	return bk
}

// bucketizeBinCount splits a numerical X into N equal-width intervals
// [lo, lo+w), …, with the final interval closed. Bucket membership is
// index arithmetic per row; the interval label is formatted once per
// distinct index. Indices whose 4-significant-digit labels collide
// merge into one bucket, exactly as the per-row label-keyed pass did.
func bucketizeBinCount(x *dataset.Column, n int) *Bucketing {
	if n <= 0 {
		n = DefaultBinCount
	}
	nr := x.Len()
	rb := make([]int32, nr)
	bk := &Bucketing{RowBucket: rb}
	s := x.Stats()
	if s.N == 0 {
		for i := range rb {
			rb[i] = -1
		}
		return bk
	}
	lo, hi := s.Min, s.Max
	nums := x.NumsSlice()
	if lo == hi {
		// Degenerate range: single bucket.
		label := fmt.Sprintf("[%g, %g]", lo, hi)
		for i := 0; i < nr; i++ {
			if x.IsNull(i) {
				rb[i] = -1
				continue
			}
			rb[i] = 0
			bk.Input++
		}
		if bk.Input > 0 {
			bk.Labels = []string{label}
			bk.Order = []float64{lo}
			bk.Counts = []int{bk.Input}
		}
		return bk
	}
	w := (hi - lo) / float64(n)
	// idxBucket memoizes index→bucket; labelBucket catches distinct
	// indices formatting to the same label.
	var idxBucket []int32
	if n <= 1<<16 {
		idxBucket = make([]int32, n)
		for i := range idxBucket {
			idxBucket[i] = -1
		}
	}
	idxMap := map[int]int32(nil)
	if idxBucket == nil {
		idxMap = make(map[int]int32)
	}
	labelBucket := make(map[string]int32)
	for i := 0; i < nr; i++ {
		if x.IsNull(i) {
			rb[i] = -1
			continue
		}
		idx := int((nums[i] - lo) / w)
		if idx >= n {
			idx = n - 1 // hi falls into the last bucket
		}
		var b int32
		var seen bool
		if idxBucket != nil && idx >= 0 {
			b = idxBucket[idx]
			seen = b >= 0
		} else {
			b, seen = idxMap[idx]
		}
		if !seen {
			bLo := lo + w*float64(idx)
			label := fmt.Sprintf("[%.4g, %.4g)", bLo, bLo+w)
			if lb, ok := labelBucket[label]; ok {
				b = lb
			} else {
				b = int32(len(bk.Labels))
				labelBucket[label] = b
				bk.Labels = append(bk.Labels, label)
				bk.Order = append(bk.Order, bLo)
				bk.Counts = append(bk.Counts, 0)
			}
			if idxBucket != nil && idx >= 0 {
				idxBucket[idx] = b
			} else {
				idxMap[idx] = b
			}
		}
		rb[i] = b
		bk.Counts[b]++
		bk.Input++
	}
	sortBuckets(bk)
	return bk
}

// bucketizeUDF buckets by the user function's label, per row (a UDF is
// opaque, so there is no shared fast path). The sort key comes from the
// first row that lands in each bucket.
func bucketizeUDF(x *dataset.Column, udf *UDF) *Bucketing {
	n := x.Len()
	rb := make([]int32, n)
	bk := &Bucketing{RowBucket: rb}
	nums := x.NumsSlice()
	labelBucket := make(map[string]int32)
	for i := 0; i < n; i++ {
		if x.IsNull(i) {
			rb[i] = -1
			continue
		}
		label, order := udf.Fn(nums[i])
		b, seen := labelBucket[label]
		if !seen {
			b = int32(len(bk.Labels))
			labelBucket[label] = b
			bk.Labels = append(bk.Labels, label)
			bk.Order = append(bk.Order, order)
			bk.Counts = append(bk.Counts, 0)
		}
		rb[i] = b
		bk.Counts[b]++
		bk.Input++
	}
	sortBuckets(bk)
	return bk
}

// applyUDFNeedY is the per-row path for BIN BY UDF with SUM/AVG,
// preserving the historical rule that a bucket's sort key comes from
// its first row with non-null Y.
func applyUDFNeedY(x, y *dataset.Column, spec Spec) (*Result, error) {
	n := x.Len()
	nums := x.NumsSlice()
	labelBucket := make(map[string]int32)
	var labels []string
	var order, sums []float64
	var cnts []int
	var rows [][]int
	inputRows := 0
	for i := 0; i < n; i++ {
		if x.IsNull(i) || y.IsNull(i) {
			continue
		}
		label, o := spec.UDF.Fn(nums[i])
		b, seen := labelBucket[label]
		if !seen {
			b = int32(len(labels))
			labelBucket[label] = b
			labels = append(labels, label)
			order = append(order, o)
			sums = append(sums, 0)
			cnts = append(cnts, 0)
			rows = append(rows, nil)
		}
		inputRows++
		sums[b] += y.NumAt(i)
		cnts[b]++
		rows[b] = append(rows[b], i)
	}
	nb := len(labels)
	perm := sortedBucketPerm(order, labels)
	res := &Result{
		XLabels:    make([]string, 0, nb),
		XOrder:     make([]float64, 0, nb),
		Y:          make([]float64, 0, nb),
		SourceRows: make([][]int, 0, nb),
		InputRows:  inputRows,
	}
	for _, b := range perm {
		res.XLabels = append(res.XLabels, labels[b])
		res.XOrder = append(res.XOrder, order[b])
		res.SourceRows = append(res.SourceRows, rows[b])
		if spec.Agg == AggSum {
			res.Y = append(res.Y, sums[b])
		} else {
			res.Y = append(res.Y, sums[b]/float64(cnts[b]))
		}
	}
	return res, nil
}

// sortedBucketPerm returns bucket indices in natural order: ascending
// numeric sort key (NaNs last), ties and NaNs by label.
func sortedBucketPerm(order []float64, labels []string) []int32 {
	perm := make([]int32, len(order))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool {
		ia, ib := perm[a], perm[b]
		oa, ob := order[ia], order[ib]
		switch {
		case !math.IsNaN(oa) && !math.IsNaN(ob) && oa != ob:
			return oa < ob
		case math.IsNaN(oa) != math.IsNaN(ob):
			return !math.IsNaN(oa)
		default:
			return labels[ia] < labels[ib]
		}
	})
	return perm
}

// sortBuckets orders a bucketing's buckets by (sort key, label) and
// remaps the row assignment accordingly.
func sortBuckets(bk *Bucketing) {
	nb := bk.Len()
	if nb == 0 {
		return
	}
	perm := sortedBucketPerm(bk.Order, bk.Labels)
	sorted := true
	for i, b := range perm {
		if int32(i) != b {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	inv := make([]int32, nb)
	labels := make([]string, nb)
	order := make([]float64, nb)
	counts := make([]int, nb)
	for newIdx, oldIdx := range perm {
		inv[oldIdx] = int32(newIdx)
		labels[newIdx] = bk.Labels[oldIdx]
		order[newIdx] = bk.Order[oldIdx]
		counts[newIdx] = bk.Counts[oldIdx]
	}
	bk.Labels, bk.Order, bk.Counts = labels, order, counts
	for i, b := range bk.RowBucket {
		if b >= 0 {
			bk.RowBucket[i] = inv[b]
		}
	}
}

func validUnit(u BinUnit) bool { return u >= ByMinute && u <= ByMonthOfYear }

// unitRowKey maps a Unix-second timestamp to its calendar bucket key —
// pure integer arithmetic, no time.Time construction, no formatting.
func unitRowKey(sec int64, u BinUnit) int64 {
	switch u {
	case ByMinute:
		return floorDiv(sec, 60)
	case ByHour:
		return floorDiv(sec, 3600)
	case ByDay:
		return floorDiv(sec, 86400)
	case ByWeek:
		d := floorDiv(sec, 86400)
		return d - weekdayMon(d)
	case ByMonth:
		y, m, _ := civilFromDays(floorDiv(sec, 86400))
		return y*12 + int64(m) - 1
	case ByQuarter:
		y, m, _ := civilFromDays(floorDiv(sec, 86400))
		return y*4 + int64(m-1)/3
	case ByYear:
		y, _, _ := civilFromDays(floorDiv(sec, 86400))
		return y
	case ByHourOfDay:
		return floorMod(sec, 86400) / 3600
	case ByDayOfWeek:
		return weekdayMon(floorDiv(sec, 86400))
	default: // ByMonthOfYear
		_, m, _ := civilFromDays(floorDiv(sec, 86400))
		return int64(m)
	}
}

// unitBucket renders a bucket key as its display label and sort key,
// matching the historical per-row formatting byte for byte (labels are
// formatted from the bucket's UTC start time).
func unitBucket(k int64, u BinUnit) (string, float64) {
	switch u {
	case ByMinute:
		start := k * 60
		return time.Unix(start, 0).UTC().Format("2006-01-02 15:04"), float64(start)
	case ByHour:
		start := k * 3600
		return time.Unix(start, 0).UTC().Format("2006-01-02 15:00"), float64(start)
	case ByDay:
		start := k * 86400
		return time.Unix(start, 0).UTC().Format("2006-01-02"), float64(start)
	case ByWeek:
		start := k * 86400
		return time.Unix(start, 0).UTC().Format("wk 2006-01-02"), float64(start)
	case ByMonth:
		y, m := floorDiv(k, 12), int(floorMod(k, 12))+1
		start := daysFromCivil(y, m, 1) * 86400
		return time.Unix(start, 0).UTC().Format("2006-01"), float64(start)
	case ByQuarter:
		y, q := floorDiv(k, 4), int(floorMod(k, 4))
		start := daysFromCivil(y, q*3+1, 1) * 86400
		return fmt.Sprintf("%dQ%d", y, q+1), float64(start)
	case ByYear:
		start := daysFromCivil(k, 1, 1) * 86400
		return time.Unix(start, 0).UTC().Format("2006"), float64(start)
	case ByHourOfDay:
		return fmt.Sprintf("%02d:00", k), float64(k)
	case ByDayOfWeek:
		return time.Weekday((k + 1) % 7).String()[:3], float64(k)
	default: // ByMonthOfYear
		return time.Month(k).String()[:3], float64(k)
	}
}

// weekdayMon returns the Monday-first weekday index (Mon=0 … Sun=6) of
// an epoch day number (1970-01-01 was a Thursday).
func weekdayMon(d int64) int64 { return floorMod(d+3, 7) }

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func floorMod(a, b int64) int64 {
	m := a % b
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m
}

// civilFromDays converts an epoch day number to a proleptic-Gregorian
// (y, m, d) civil date (Howard Hinnant's civil_from_days — the same
// calendar Go's time package uses).
func civilFromDays(z int64) (y int64, m, d int) {
	z += 719468
	era := floorDiv(z, 146097)
	doe := z - era*146097 // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	y = yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d = int(doy - (153*mp+2)/5 + 1)
	if mp < 10 {
		m = int(mp + 3)
	} else {
		m = int(mp - 9)
	}
	if m <= 2 {
		y++
	}
	return y, m, d
}

// daysFromCivil is the inverse of civilFromDays.
func daysFromCivil(y int64, m, d int) int64 {
	if m <= 2 {
		y--
	}
	era := floorDiv(y, 400)
	yoe := y - era*400
	var mp int64
	if m > 2 {
		mp = int64(m) - 3
	} else {
		mp = int64(m) + 9
	}
	doy := (153*mp+2)/5 + int64(d) - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return era*146097 + doe - 719468
}

// HourOfDay is a convenience key used by the paper's Figure 1(c): bin by
// the hour-of-day (00..23) rather than by absolute hour. It is exposed as
// a UDF-style unit because the paper's Q1 bins "scheduled BY HOUR" and the
// resulting chart has 24 buckets.
func HourOfDay(ts time.Time) (string, float64) {
	h := ts.Hour()
	return fmt.Sprintf("%02d:00", h), float64(h)
}

// DefaultBinCount is the bucket count for "default buckets" in the
// paper's search-space enumeration (BIN X INTO N with unspecified N).
const DefaultBinCount = 10

// SortAxis identifies which axis ORDER BY sorts.
type SortAxis int

const (
	// SortNone leaves bucket order as produced by Apply.
	SortNone SortAxis = iota
	// SortX orders buckets by X′ (numeric key when present, else label).
	SortX
	// SortY orders buckets by ascending Y′.
	SortY
)

// String returns the axis keyword.
func (a SortAxis) String() string {
	switch a {
	case SortNone:
		return "NONE"
	case SortX:
		return "X"
	case SortY:
		return "Y"
	default:
		return fmt.Sprintf("SortAxis(%d)", int(a))
	}
}

// resultLess is OrderBy's comparator over a Result's rows: SortY by
// value, SortX by numeric order with NaN last and label ties.
// ySortKey is OrderBy's pre-extracted SortY key: the row's Y value and
// its original position. Sorting contiguous keys instead of driving an
// interface sorter through the Result's parallel slices keeps every
// comparison on adjacent memory.
type ySortKey struct {
	y   float64
	idx int
}

// xSortKey is the SortX analogue: the numeric X order plus the original
// position; labels are reached through the Result on the (rare) tie.
type xSortKey struct {
	o   float64
	idx int
}

// cmpY orders SortY keys by Y ascending. A NaN compares "equal" to
// everything (both a.y < b.y and b.y < a.y are false), exactly as the
// former sort.Stable comparator behaved; slices.SortStableFunc and
// sort.Stable are generated from the same insertion+symmerge template,
// so identical comparison outcomes yield the identical permutation.
func cmpY(a, b ySortKey) int {
	switch {
	case a.y < b.y:
		return -1
	case b.y < a.y:
		return 1
	default:
		return 0
	}
}

// cmpYIdx is cmpY completed to a strict total order by the original
// index. For NaN-free input a stable sort under cmpY orders ties by
// original position — which is exactly the unique order under cmpYIdx —
// so the unstable (and faster) slices.SortFunc reproduces the stable
// permutation bit for bit. NaN keys break the ordering's transitivity,
// so callers must fall back to the stable path when any are present.
func cmpYIdx(a, b ySortKey) int {
	switch {
	case a.y < b.y:
		return -1
	case b.y < a.y:
		return 1
	case a.idx < b.idx:
		return -1
	case b.idx < a.idx:
		return 1
	default:
		return 0
	}
}

// sortKeyBufs pools OrderBy's key and permutation scratch: the batch
// executor sorts hundreds of results per table and the keys are never
// retained past the call.
type sortKeyBufs struct {
	yk   []ySortKey
	xk   []xSortKey
	perm []int
}

var sortKeyScratch = sync.Pool{New: func() any { return new(sortKeyBufs) }}

// OrderBy sorts the result along the given axis. Apply already yields
// X-order, so SortX is idempotent; SortY reorders by value. The sorted
// rows land in freshly allocated slices — the previous backing arrays
// are never mutated, so a result whose slices are shared with a
// Bucketing or a sibling result can be sorted without cloning first.
func OrderBy(r *Result, axis SortAxis) {
	if axis != SortX && axis != SortY {
		return
	}
	n := r.Len()
	buf := sortKeyScratch.Get().(*sortKeyBufs)
	perm := slices.Grow(buf.perm[:0], n)[:n]
	if axis == SortY {
		keys := slices.Grow(buf.yk[:0], n)[:n]
		hasNaN := false
		for i := range keys {
			y := r.Y[i]
			if math.IsNaN(y) {
				hasNaN = true
			}
			keys[i] = ySortKey{y: y, idx: i}
		}
		if hasNaN {
			slices.SortStableFunc(keys, cmpY)
		} else {
			slices.SortFunc(keys, cmpYIdx)
		}
		for k := range keys {
			perm[k] = keys[k].idx
		}
		buf.yk = keys
	} else {
		keys := slices.Grow(buf.xk[:0], n)[:n]
		for i := range keys {
			keys[i] = xSortKey{o: r.XOrder[i], idx: i}
		}
		// The SortX relation (numeric order, NaN keys last, labels
		// breaking ties) is a strict weak ordering even with NaNs, so
		// completing it with the original index gives a strict total
		// order whose unique result is the stable permutation — pdqsort
		// applies.
		slices.SortFunc(keys, func(a, b xSortKey) int {
			switch {
			case !math.IsNaN(a.o) && !math.IsNaN(b.o) && a.o != b.o:
				if a.o < b.o {
					return -1
				}
				return 1
			case math.IsNaN(a.o) != math.IsNaN(b.o):
				if !math.IsNaN(a.o) {
					return -1
				}
				return 1
			default:
				if c := strings.Compare(r.XLabels[a.idx], r.XLabels[b.idx]); c != 0 {
					return c
				}
				switch {
				case a.idx < b.idx:
					return -1
				case b.idx < a.idx:
					return 1
				default:
					return 0
				}
			}
		})
		for k := range keys {
			perm[k] = keys[k].idx
		}
		buf.xk = keys
	}
	buf.perm = perm
	identity := true
	for k, p := range perm {
		if p != k {
			identity = false
			break
		}
	}
	if !identity {
		labels := make([]string, n)
		order := make([]float64, n)
		y := make([]float64, n)
		for k, p := range perm {
			labels[k], order[k], y[k] = r.XLabels[p], r.XOrder[p], r.Y[p]
		}
		r.XLabels, r.XOrder, r.Y = labels, order, y
		if len(r.SourceRows) == n {
			src := make([][]int, n)
			for k, p := range perm {
				src[k] = r.SourceRows[p]
			}
			r.SourceRows = src
		}
	}
	sortKeyScratch.Put(buf)
}

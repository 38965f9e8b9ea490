// Package stats provides the statistical primitives behind DeepEye's
// feature extraction and ranking factors: the four correlation families of
// paper feature (6) (linear, polynomial, power, log), the Trend(Y) detector
// of eq. (4) (linear, power-law, log, exponential model fits scored by R²),
// Shannon entropy for the pie-chart significance of eq. (1), and the
// underlying least-squares machinery.
package stats

import (
	"math"
	"sort"
	"sync"
)

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient of the paired
// samples, in [-1, 1]. It returns 0 when either series is constant or the
// inputs are shorter than 2.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Clamp away floating-point excursions outside [-1, 1].
	return math.Max(-1, math.Min(1, r))
}

// LinearFit fits y = a + b·x by least squares and returns the coefficients
// and the coefficient of determination R².
func LinearFit(xs, ys []float64) (a, b, r2 float64) {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0, 0, 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx float64
	for i := 0; i < n; i++ {
		dx := xs[i] - mx
		sxy += dx * (ys[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		return my, 0, 0
	}
	b = sxy / sxx
	a = my - b*mx
	var ssRes, ssTot float64
	for i := 0; i < n; i++ {
		e := ys[i] - (a + b*xs[i])
		ssRes += e * e
		d := ys[i] - my
		ssTot += d * d
	}
	if ssTot == 0 {
		return a, b, 1
	}
	r2 = 1 - ssRes/ssTot
	if r2 < 0 {
		r2 = 0
	}
	return a, b, r2
}

// QuadraticFit fits y = a + b·x + c·x² by least squares (normal equations)
// and returns the R² of the fit.
func QuadraticFit(xs, ys []float64) (a, b, c, r2 float64) {
	n := len(xs)
	if n != len(ys) || n < 3 {
		return 0, 0, 0, 0
	}
	// Build the 3x3 normal equations sum(x^i+j) beta = sum(x^i y).
	var s [5]float64 // s[k] = sum x^k
	var t [3]float64 // t[k] = sum x^k y
	for i := 0; i < n; i++ {
		x, y := xs[i], ys[i]
		xp := 1.0
		for k := 0; k <= 4; k++ {
			s[k] += xp
			if k <= 2 {
				t[k] += xp * y
			}
			xp *= x
		}
	}
	m := [3][4]float64{
		{s[0], s[1], s[2], t[0]},
		{s[1], s[2], s[3], t[1]},
		{s[2], s[3], s[4], t[2]},
	}
	beta, ok := solve3(m)
	if !ok {
		return 0, 0, 0, 0
	}
	a, b, c = beta[0], beta[1], beta[2]
	my := Mean(ys)
	var ssRes, ssTot float64
	for i := 0; i < n; i++ {
		e := ys[i] - (a + b*xs[i] + c*xs[i]*xs[i])
		ssRes += e * e
		d := ys[i] - my
		ssTot += d * d
	}
	if ssTot == 0 {
		return a, b, c, 1
	}
	r2 = 1 - ssRes/ssTot
	if r2 < 0 {
		r2 = 0
	}
	return a, b, c, r2
}

// solve3 solves a 3x3 augmented linear system by Gaussian elimination with
// partial pivoting.
func solve3(m [3][4]float64) ([3]float64, bool) {
	for col := 0; col < 3; col++ {
		// pivot
		p := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-12 {
			return [3]float64{}, false
		}
		m[col], m[p] = m[p], m[col]
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for k := col; k < 4; k++ {
				m[r][k] -= f * m[col][k]
			}
		}
	}
	var out [3]float64
	for i := 0; i < 3; i++ {
		out[i] = m[i][3] / m[i][i]
	}
	return out, true
}

// CorrelationKind names one of the four correlation families of paper
// feature (6).
type CorrelationKind int

const (
	CorrLinear CorrelationKind = iota
	CorrPolynomial
	CorrPower
	CorrLog
)

// String returns the family name.
func (k CorrelationKind) String() string {
	switch k {
	case CorrLinear:
		return "linear"
	case CorrPolynomial:
		return "polynomial"
	case CorrPower:
		return "power"
	case CorrLog:
		return "log"
	default:
		return "unknown"
	}
}

// Correlation computes the paper's c(X, Y): the maximum absolute
// correlation across the linear, polynomial, power, and log families,
// together with the winning family. Power and log fits require strictly
// positive inputs on the transformed axis; pairs violating that are
// dropped from those fits. The result lies in [0, 1].
func Correlation(xs, ys []float64) (float64, CorrelationKind) {
	best, kind := math.Abs(Pearson(xs, ys)), CorrLinear

	if _, _, _, r2 := QuadraticFit(xs, ys); r2 > 0 {
		if r := math.Sqrt(r2); r > best {
			best, kind = r, CorrPolynomial
		}
	}
	// power: y = a·x^b  →  log y = log a + b·log x
	sc := logScratch.Get().(*logBufs)
	lx, ly := logPairs(sc.x[:0], sc.y[:0], xs, ys, true, true)
	if r := math.Abs(Pearson(lx, ly)); r > best {
		best, kind = r, CorrPower
	}
	// log: y = a + b·log x
	lx, ly = logPairs(lx[:0], ly[:0], xs, ys, true, false)
	if r := math.Abs(Pearson(lx, ly)); r > best {
		best, kind = r, CorrLog
	}
	sc.x, sc.y = lx, ly
	logScratch.Put(sc)
	return best, kind
}

// logBufs is the reusable pair of transformed-series buffers behind
// logPairs. Correlation and Trend run once per enumerated candidate, so
// pooling the buffers removes four slice allocations per candidate from
// the enumeration hot path without threading scratch through the public
// signatures; the pool keeps the reuse safe under the parallel executor.
type logBufs struct{ x, y []float64 }

var logScratch = sync.Pool{New: func() any { return &logBufs{} }}

// logPairs appends the (optionally log-transformed) pairs to ox/oy with
// non-positive values on any log axis dropped, and returns the extended
// slices. Callers pass recycled buffers truncated to length zero.
func logPairs(ox, oy, xs, ys []float64, logX, logY bool) ([]float64, []float64) {
	for i := range xs {
		x, y := xs[i], ys[i]
		if logX {
			if x <= 0 {
				continue
			}
			x = math.Log(x)
		}
		if logY {
			if y <= 0 {
				continue
			}
			y = math.Log(y)
		}
		ox = append(ox, x)
		oy = append(oy, y)
	}
	return ox, oy
}

// TrendKind names one of the four distribution families of eq. (4).
type TrendKind int

const (
	TrendNone TrendKind = iota
	TrendLinear
	TrendPower
	TrendLog
	TrendExponential
)

// String returns the family name.
func (k TrendKind) String() string {
	switch k {
	case TrendNone:
		return "none"
	case TrendLinear:
		return "linear"
	case TrendPower:
		return "power"
	case TrendLog:
		return "log"
	case TrendExponential:
		return "exponential"
	default:
		return "unknown"
	}
}

// DefaultTrendThreshold is the R² above which a fitted model counts as a
// trend. See DESIGN.md §4 for the interpretation of eq. (4).
const DefaultTrendThreshold = 0.75

// Trend implements the paper's Trend(Y) with an explicit x-axis: it fits
// linear, power, log, and exponential models of ys against xs and reports
// the best family and its R². Callers compare R² against a threshold
// (DefaultTrendThreshold) to obtain the binary Trend value of eq. (4).
func Trend(xs, ys []float64) (TrendKind, float64) {
	if len(xs) != len(ys) || len(ys) < 3 {
		return TrendNone, 0
	}
	best, kind := 0.0, TrendNone
	if _, _, r2 := LinearFit(xs, ys); r2 > best {
		best, kind = r2, TrendLinear
	}
	sc := logScratch.Get().(*logBufs)
	// exponential: y = a·e^(bx)  →  log y = log a + bx
	lx, ly := logPairs(sc.x[:0], sc.y[:0], xs, ys, false, true)
	if len(ly) >= 3 && len(ly) >= len(ys)*3/4 {
		if _, _, r2 := LinearFit(lx, ly); r2 > best {
			best, kind = r2, TrendExponential
		}
	}
	// log: y = a + b·log x
	lx, ly = logPairs(lx[:0], ly[:0], xs, ys, true, false)
	if len(ly) >= 3 && len(ly) >= len(ys)*3/4 {
		if _, _, r2 := LinearFit(lx, ly); r2 > best {
			best, kind = r2, TrendLog
		}
	}
	// power: log y = log a + b·log x
	lx, ly = logPairs(lx[:0], ly[:0], xs, ys, true, true)
	if len(ly) >= 3 && len(ly) >= len(ys)*3/4 {
		if _, _, r2 := LinearFit(lx, ly); r2 > best {
			best, kind = r2, TrendPower
		}
	}
	sc.x, sc.y = lx, ly
	logScratch.Put(sc)
	return kind, best
}

// CorrelationTrend computes Correlation and Trend over the same paired
// series in one pass. Both functions materialize the log-transformed
// families independently — the power (log x, log y) and log (log x, y)
// series are built twice when they are called back to back, and math.Log
// dominates the enumeration profile — so this fused form takes each
// point's logs once, builds the exponential (x, log y), power and log
// families from them in one sweep, and feeds each family to both
// consumers.
//
// Results are bit-identical to calling the two functions separately:
// each family holds the values logPairs would produce (the same
// positivity tests, the same math.Log calls, in row order), and each
// accumulator (the correlation maximum and the trend best-R²) sees its
// comparisons on the same values in its original order, so even exact
// R² ties between families resolve to the same winner.
func CorrelationTrend(xs, ys []float64) (corr float64, ck CorrelationKind, tk TrendKind, r2 float64) {
	corr, ck = math.Abs(Pearson(xs, ys)), CorrLinear
	if _, _, _, q := QuadraticFit(xs, ys); q > 0 {
		if r := math.Sqrt(q); r > corr {
			corr, ck = r, CorrPolynomial
		}
	}
	tk, r2 = TrendNone, 0
	trendOK := len(xs) == len(ys) && len(ys) >= 3
	if trendOK {
		if _, _, lr := LinearFit(xs, ys); lr > r2 {
			r2, tk = lr, TrendLinear
		}
	}
	bufE := logScratch.Get().(*logBufs)
	bufP := logScratch.Get().(*logBufs)
	bufL := logScratch.Get().(*logBufs)
	ex, ey := bufE.x[:0], bufE.y[:0]
	px, py := bufP.x[:0], bufP.y[:0]
	lx, ly := bufL.x[:0], bufL.y[:0]
	for i := range xs {
		x, y := xs[i], ys[i]
		// logPairs skips a point whose logged coordinate is ≤ 0; NaN
		// passes that test and is logged, here as there.
		okX, okY := !(x <= 0), !(y <= 0)
		var logX, logY float64
		if okX {
			logX = math.Log(x)
			lx, ly = append(lx, logX), append(ly, y)
		}
		if okY {
			logY = math.Log(y)
			ex, ey = append(ex, x), append(ey, logY)
		}
		if okX && okY {
			px, py = append(px, logX), append(py, logY)
		}
	}
	// exponential (trend only): y = a·e^(bx)  →  log y = log a + bx
	if trendOK && len(ey) >= 3 && len(ey) >= len(ys)*3/4 {
		if _, _, er := LinearFit(ex, ey); er > r2 {
			r2, tk = er, TrendExponential
		}
	}
	// power: y = a·x^b  →  log y = log a + b·log x. The correlation
	// maximum compares power before log, the trend best-R² compares log
	// before power.
	if r := math.Abs(Pearson(px, py)); r > corr {
		corr, ck = r, CorrPower
	}
	// log: y = a + b·log x
	if r := math.Abs(Pearson(lx, ly)); r > corr {
		corr, ck = r, CorrLog
	}
	if trendOK && len(ly) >= 3 && len(ly) >= len(ys)*3/4 {
		if _, _, lr := LinearFit(lx, ly); lr > r2 {
			r2, tk = lr, TrendLog
		}
	}
	if trendOK && len(py) >= 3 && len(py) >= len(ys)*3/4 {
		if _, _, pr := LinearFit(px, py); pr > r2 {
			r2, tk = pr, TrendPower
		}
	}
	bufE.x, bufE.y = ex, ey
	bufP.x, bufP.y = px, py
	bufL.x, bufL.y = lx, ly
	logScratch.Put(bufE)
	logScratch.Put(bufP)
	logScratch.Put(bufL)
	return corr, ck, tk, r2
}

// TrendSeries is Trend against the implicit x-axis 1..n, used when the
// caller has an ordered series rather than explicit x values. The
// synthetic axis is pooled scratch — Trend never retains its inputs.
func TrendSeries(ys []float64) (TrendKind, float64) {
	sc := logScratch.Get().(*logBufs)
	xs := sc.x[:0]
	for i := range ys {
		xs = append(xs, float64(i+1))
	}
	tk, r2 := Trend(xs, ys)
	sc.x = xs
	logScratch.Put(sc)
	return tk, r2
}

// Entropy returns the Shannon entropy (natural log) of the distribution
// induced by treating the non-negative weights as unnormalized
// probabilities. Negative or zero weights contribute nothing.
func Entropy(weights []float64) float64 {
	// Scale by the max weight first so the total cannot overflow to +Inf
	// for extreme inputs; entropy is invariant under positive scaling.
	var maxW float64
	for _, w := range weights {
		if w > maxW {
			maxW = w
		}
	}
	if maxW == 0 || math.IsInf(maxW, 1) {
		return 0
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w / maxW
		}
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, w := range weights {
		if w <= 0 {
			continue
		}
		p := (w / maxW) / total
		h -= p * math.Log(p)
	}
	return h
}

// NormalizedEntropy returns Entropy(weights) / log(k) where k is the number
// of positive weights, yielding a value in [0, 1]; 1 means uniform. For
// k <= 1 it returns 0.
func NormalizedEntropy(weights []float64) float64 {
	k := 0
	for _, w := range weights {
		if w > 0 {
			k++
		}
	}
	if k <= 1 {
		return 0
	}
	return Entropy(weights) / math.Log(float64(k))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation; it sorts a copy and leaves the input untouched.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the middle value of xs (the 0.5-quantile with linear
// interpolation). The benchmark-regression gate compares per-benchmark
// medians, which are robust to the odd slow iteration on shared CI
// runners.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("variance = %v, want 4", v)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty input should give 0")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); !almostEqual(r, 1, 1e-12) {
		t.Errorf("r = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); !almostEqual(r, -1, 1e-12) {
		t.Errorf("r = %v, want -1", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Error("constant x should give 0")
	}
	if Pearson([]float64{1}, []float64{2}) != 0 {
		t.Error("n<2 should give 0")
	}
	if Pearson([]float64{1, 2}, []float64{1}) != 0 {
		t.Error("length mismatch should give 0")
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	a, b, r2 := LinearFit(xs, ys)
	if !almostEqual(a, 1, 1e-9) || !almostEqual(b, 2, 1e-9) || !almostEqual(r2, 1, 1e-9) {
		t.Errorf("fit = %v + %v x, r2 = %v", a, b, r2)
	}
}

func TestLinearFitConstantY(t *testing.T) {
	_, b, r2 := LinearFit([]float64{1, 2, 3}, []float64{5, 5, 5})
	if b != 0 || r2 != 1 {
		t.Errorf("constant y: b = %v, r2 = %v", b, r2)
	}
}

func TestQuadraticFit(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2 + 3*x - 1.5*x*x
	}
	a, b, c, r2 := QuadraticFit(xs, ys)
	if !almostEqual(a, 2, 1e-6) || !almostEqual(b, 3, 1e-6) || !almostEqual(c, -1.5, 1e-6) || !almostEqual(r2, 1, 1e-9) {
		t.Errorf("fit = %v + %v x + %v x^2, r2 = %v", a, b, c, r2)
	}
}

func TestCorrelationPicksPower(t *testing.T) {
	// y = 3 x^2.5 with slight noise: power family should win with r ~ 1,
	// and in any case the correlation must be very high.
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 60)
	ys := make([]float64, 60)
	for i := range xs {
		xs[i] = float64(i + 1)
		ys[i] = 3 * math.Pow(xs[i], 2.5) * (1 + 0.01*rng.NormFloat64())
	}
	r, _ := Correlation(xs, ys)
	if r < 0.98 {
		t.Errorf("correlation = %v, want >= 0.98", r)
	}
}

func TestCorrelationPicksLog(t *testing.T) {
	xs := make([]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(i + 1)
		ys[i] = 2 + 5*math.Log(xs[i])
	}
	r, kind := Correlation(xs, ys)
	if r < 0.999 {
		t.Errorf("correlation = %v (%v), want ~1", r, kind)
	}
}

func TestCorrelationNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Float64() * 100
		ys[i] = rng.Float64() * 100
	}
	r, _ := Correlation(xs, ys)
	if r > 0.3 {
		t.Errorf("noise correlation = %v, want small", r)
	}
}

func TestTrendLinear(t *testing.T) {
	ys := []float64{1, 2.1, 2.9, 4.2, 5.1, 5.8, 7.2, 8.1}
	kind, r2 := TrendSeries(ys)
	if r2 < DefaultTrendThreshold {
		t.Errorf("trend r2 = %v (%v), want >= %v", r2, kind, DefaultTrendThreshold)
	}
}

func TestTrendExponential(t *testing.T) {
	ys := make([]float64, 20)
	for i := range ys {
		ys[i] = 2 * math.Exp(0.3*float64(i+1))
	}
	kind, r2 := TrendSeries(ys)
	if kind != TrendExponential || r2 < 0.999 {
		t.Errorf("trend = %v r2 = %v, want exponential ~1", kind, r2)
	}
}

func TestTrendNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ys := make([]float64, 200)
	for i := range ys {
		ys[i] = rng.Float64()*100 - 50
	}
	_, r2 := TrendSeries(ys)
	if r2 >= DefaultTrendThreshold {
		t.Errorf("noise trend r2 = %v, want < %v", r2, DefaultTrendThreshold)
	}
}

func TestTrendShortSeries(t *testing.T) {
	if kind, r2 := TrendSeries([]float64{1, 2}); kind != TrendNone || r2 != 0 {
		t.Errorf("short series trend = %v/%v", kind, r2)
	}
}

func TestEntropyUniform(t *testing.T) {
	h := Entropy([]float64{1, 1, 1, 1})
	if !almostEqual(h, math.Log(4), 1e-12) {
		t.Errorf("entropy = %v, want log 4", h)
	}
	if n := NormalizedEntropy([]float64{1, 1, 1, 1}); !almostEqual(n, 1, 1e-12) {
		t.Errorf("normalized = %v, want 1", n)
	}
}

func TestEntropySkewed(t *testing.T) {
	if h := Entropy([]float64{100, 0.0001}); h > 0.01 {
		t.Errorf("near-degenerate entropy = %v, want ~0", h)
	}
	if NormalizedEntropy([]float64{5}) != 0 {
		t.Error("single weight should give 0")
	}
	if Entropy([]float64{-1, 0}) != 0 {
		t.Error("non-positive weights should give 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); !almostEqual(q, 2.5, 1e-12) {
		t.Errorf("median = %v, want 2.5", q)
	}
	// input untouched
	if xs[0] != 3 {
		t.Error("Quantile mutated input")
	}
}

func TestCorrelationStrings(t *testing.T) {
	for k := CorrLinear; k <= CorrLog; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	for k := TrendNone; k <= TrendExponential; k++ {
		if k.String() == "unknown" {
			t.Errorf("trend %d has no name", k)
		}
	}
}

// Properties.

func TestPearsonBoundsQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n%50) + 2
		xs := make([]float64, m)
		ys := make([]float64, m)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			ys[i] = rng.NormFloat64() * 10
		}
		r := Pearson(xs, ys)
		return r >= -1 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearsonScaleInvarianceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 30)
		ys := make([]float64, 30)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r1 := Pearson(xs, ys)
		scaled := make([]float64, len(xs))
		for i, v := range xs {
			scaled[i] = 3*v + 7
		}
		r2 := Pearson(scaled, ys)
		return almostEqual(r1, r2, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEntropyBoundsQuick(t *testing.T) {
	f := func(raw []float64) bool {
		h := NormalizedEntropy(raw)
		return h >= 0 && h <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileMonotoneQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 25)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCorrelationTrendMatchesSeparate pins the fused CorrelationTrend,
// which takes each point's logs once, to Correlation and Trend called
// separately, bit for bit, on series with negative, zero, NaN and
// positive values, short and long.
func TestCorrelationTrendMatchesSeparate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pick := func() float64 {
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1:
			return -rng.Float64() * 50
		case 2:
			return math.NaN()
		case 3:
			return float64(rng.Intn(5) + 1)
		default:
			return rng.ExpFloat64() * 20
		}
	}
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(40)
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = pick(), pick()
			if trial%3 == 0 { // a clean trend family now and then
				xs[i] = float64(i + 1)
				ys[i] = 3 * math.Pow(xs[i], 1.5) * (1 + 0.01*rng.NormFloat64())
			}
		}
		corr, ck, tk, r2 := CorrelationTrend(xs, ys)
		wantCorr, wantCK := Correlation(xs, ys)
		wantTK, wantR2 := Trend(xs, ys)
		if math.Float64bits(corr) != math.Float64bits(wantCorr) || ck != wantCK ||
			tk != wantTK || math.Float64bits(r2) != math.Float64bits(wantR2) {
			t.Fatalf("trial %d (%v, %v): fused (%v %v %v %v), separate (%v %v %v %v)",
				trial, xs, ys, corr, ck, tk, r2, wantCorr, wantCK, wantTK, wantR2)
		}
	}
}

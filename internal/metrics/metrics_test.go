package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfusion(t *testing.T) {
	var c Confusion
	c.Add(true, true)   // TP
	c.Add(true, true)   // TP
	c.Add(true, false)  // FP
	c.Add(false, true)  // FN
	c.Add(false, false) // TN
	if c.TP != 2 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if p := c.Precision(); math.Abs(p-2.0/3.0) > 1e-12 {
		t.Errorf("precision = %v", p)
	}
	if r := c.Recall(); math.Abs(r-2.0/3.0) > 1e-12 {
		t.Errorf("recall = %v", r)
	}
	if f := c.F1(); math.Abs(f-2.0/3.0) > 1e-12 {
		t.Errorf("f1 = %v", f)
	}
	if a := c.Accuracy(); math.Abs(a-0.6) > 1e-12 {
		t.Errorf("accuracy = %v", a)
	}
}

func TestConfusionEmpty(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.Accuracy() != 0 {
		t.Error("empty confusion should be all zeros")
	}
}

func TestNDCGPerfect(t *testing.T) {
	rels := []float64{3, 2, 1, 0}
	if n := NDCGAt(rels); math.Abs(n-1) > 1e-12 {
		t.Errorf("perfect NDCG = %v", n)
	}
}

func TestNDCGWorst(t *testing.T) {
	rels := []float64{0, 0, 0, 3}
	n := NDCGAt(rels)
	if n >= 1 || n <= 0 {
		t.Errorf("bad ranking NDCG = %v", n)
	}
}

func TestNDCGAllZero(t *testing.T) {
	if n := NDCGAt([]float64{0, 0, 0}); n != 1 {
		t.Errorf("zero-relevance NDCG = %v, want 1 by convention", n)
	}
}

func TestNDCGAtK(t *testing.T) {
	rels := []float64{0, 3}
	full := NDCGAt(rels)
	at1 := NDCG(rels, 1)
	if at1 >= full {
		t.Errorf("NDCG@1 (%v) should be worse than full (%v) when best item is second", at1, full)
	}
}

func TestDCGKnownValue(t *testing.T) {
	// DCG of [3,2] = (2^3-1)/log2(2) + (2^2-1)/log2(3) = 7 + 3/1.585
	want := 7 + 3/math.Log2(3)
	if d := DCG([]float64{3, 2}, 2); math.Abs(d-want) > 1e-9 {
		t.Errorf("dcg = %v, want %v", d, want)
	}
}

func TestKendallTau(t *testing.T) {
	a := []int{1, 2, 3, 4}
	if tau := KendallTau(a, a); tau != 1 {
		t.Errorf("identical tau = %v", tau)
	}
	rev := []int{4, 3, 2, 1}
	if tau := KendallTau(a, rev); tau != -1 {
		t.Errorf("reversed tau = %v", tau)
	}
	if KendallTau(a, a[:2]) != 0 {
		t.Error("mismatched lengths should give 0")
	}
}

func TestMeanFloat(t *testing.T) {
	if MeanFloat(nil) != 0 {
		t.Error("empty mean should be 0")
	}
	if m := MeanFloat([]float64{1, 2, 3}); m != 2 {
		t.Errorf("mean = %v", m)
	}
}

// Property: NDCG is always in [0, 1] and equals 1 for descending input.
func TestNDCGBoundsQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n%20) + 1
		rels := make([]float64, m)
		for i := range rels {
			rels[i] = float64(rng.Intn(5))
		}
		v := NDCGAt(rels)
		if v < 0 || v > 1+1e-12 {
			return false
		}
		sorted := append([]float64(nil), rels...)
		for i := 0; i < len(sorted); i++ {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] > sorted[i] {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		return math.Abs(NDCGAt(sorted)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: F1 is bounded by min(precision, recall)·2/(1+min/max)… simply
// check 0 ≤ F1 ≤ 1 and F1 ≤ max(P, R).
func TestF1BoundsQuick(t *testing.T) {
	f := func(tp, fp, tn, fn uint8) bool {
		c := Confusion{TP: int(tp), FP: int(fp), TN: int(tn), FN: int(fn)}
		f1 := c.F1()
		if f1 < 0 || f1 > 1 {
			return false
		}
		return f1 <= math.Max(c.Precision(), c.Recall())+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

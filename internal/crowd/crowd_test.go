package crowd

import (
	"context"
	"testing"

	"github.com/deepeye/deepeye/internal/datagen"
	"github.com/deepeye/deepeye/internal/metrics"
	"github.com/deepeye/deepeye/internal/rules"
	"github.com/deepeye/deepeye/internal/vizql"
)

func candidateNodes(t *testing.T) []*vizql.Node {
	t.Helper()
	tab, err := datagen.TestSet(9, 0.01) // small FlyDelay
	if err != nil {
		t.Fatal(err)
	}
	qs, err := rules.EnumerateQueriesCtx(context.Background(), tab)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := vizql.ExecuteAllParallelCtx(context.Background(), tab, qs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) == 0 {
		t.Fatal("no candidates")
	}
	return nodes
}

func TestLabelsDeterministic(t *testing.T) {
	nodes := candidateNodes(t)
	o := Oracle{Seed: 7}
	a := o.LabelAll(nodes)
	b := o.LabelAll(nodes)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("labels not deterministic")
		}
	}
}

func TestLabelsAreMixed(t *testing.T) {
	nodes := candidateNodes(t)
	o := Oracle{Seed: 7}
	labels := o.LabelAll(nodes)
	good := 0
	for _, l := range labels {
		if l {
			good++
		}
	}
	frac := float64(good) / float64(len(labels))
	// The paper's corpus is ~8% good (2520/30892); our oracle should land
	// in a plausible minority band.
	if frac <= 0.01 || frac >= 0.6 {
		t.Errorf("good fraction = %v (%d/%d), want a minority in (0.01, 0.6)", frac, good, len(labels))
	}
}

func TestHiddenScoreGates(t *testing.T) {
	nodes := candidateNodes(t)
	o := Oracle{Seed: 1}
	for _, n := range nodes {
		s := o.HiddenScore(n)
		if s < 0 || s > 1 {
			t.Fatalf("score %v out of range for %s", s, n.Query.Key())
		}
	}
}

func TestCompareConsistentWithScores(t *testing.T) {
	nodes := candidateNodes(t)
	o := Oracle{Seed: 3}
	// Find a clearly-good and a clearly-bad node.
	var hi, lo *vizql.Node
	for _, n := range nodes {
		s := o.HiddenScore(n)
		if hi == nil || s > o.HiddenScore(hi) {
			hi = n
		}
		if lo == nil || s < o.HiddenScore(lo) {
			lo = n
		}
	}
	if o.HiddenScore(hi)-o.HiddenScore(lo) < 0.3 {
		t.Skip("candidate set lacks score spread")
	}
	if !o.Compare(hi, lo) {
		t.Error("crowd should prefer the clearly better chart")
	}
	if o.Compare(lo, hi) {
		t.Error("crowd should not prefer the clearly worse chart")
	}
}

func TestTotalOrderAgreesWithHiddenScores(t *testing.T) {
	nodes := candidateNodes(t)
	if len(nodes) > 60 {
		nodes = nodes[:60]
	}
	o := Oracle{Seed: 5}
	order := o.TotalOrder(nodes)
	// Kendall tau between crowd order and hidden-score order should be
	// strongly positive (noise only perturbs near-ties).
	hiddenPos := make([]int, len(nodes))
	crowdPos := make([]int, len(nodes))
	hiddenOrder := make([]int, len(nodes))
	for i := range hiddenOrder {
		hiddenOrder[i] = i
	}
	for i := 0; i < len(hiddenOrder); i++ {
		for j := i + 1; j < len(hiddenOrder); j++ {
			if o.HiddenScore(nodes[hiddenOrder[j]]) > o.HiddenScore(nodes[hiddenOrder[i]]) {
				hiddenOrder[i], hiddenOrder[j] = hiddenOrder[j], hiddenOrder[i]
			}
		}
	}
	for pos, idx := range hiddenOrder {
		hiddenPos[idx] = pos
	}
	for pos, idx := range order {
		crowdPos[idx] = pos
	}
	tau := metrics.KendallTau(hiddenPos, crowdPos)
	// The crowd ranks by hidden score plus a set-relative column-
	// importance preference, so agreement with the pure hidden-score
	// order is strong but not perfect.
	if tau < 0.5 {
		t.Errorf("tau = %v, want >= 0.5", tau)
	}
}

func TestRelevanceGrades(t *testing.T) {
	nodes := candidateNodes(t)
	if len(nodes) > 50 {
		nodes = nodes[:50]
	}
	o := Oracle{Seed: 9}
	rel := o.Relevance(nodes, 5)
	labels := o.LabelAll(nodes)
	seenPositive := false
	for i, r := range rel {
		if r < 0 || r > 4 {
			t.Fatalf("grade %v out of range", r)
		}
		if !labels[i] && r != 0 {
			t.Fatalf("bad chart has grade %v", r)
		}
		if labels[i] {
			if r < 1 {
				t.Fatalf("good chart has grade %v", r)
			}
			seenPositive = true
		}
	}
	if !seenPositive {
		t.Skip("no good charts in the sampled candidate prefix")
	}
}

func TestLabelOrderIndependence(t *testing.T) {
	nodes := candidateNodes(t)
	o := Oracle{Seed: 11}
	if len(nodes) < 2 {
		t.Skip("need 2 nodes")
	}
	a0 := o.Label(nodes[0])
	// Labeling another node in between must not change the verdict.
	o.Label(nodes[1])
	if o.Label(nodes[0]) != a0 {
		t.Error("label depends on evaluation order")
	}
}

func TestThresholdMonotonicity(t *testing.T) {
	nodes := candidateNodes(t)
	count := func(th float64) int {
		o := Oracle{Seed: 5, Threshold: th}
		good := 0
		for _, l := range o.LabelAll(nodes) {
			if l {
				good++
			}
		}
		return good
	}
	lo, hi := count(0.6), count(0.9)
	if lo < hi {
		t.Errorf("raising the threshold should not add good charts: %d -> %d", lo, hi)
	}
	if lo == 0 {
		t.Skip("no good charts even at the loose threshold")
	}
}

func TestMoreStudentsStabilizeLabels(t *testing.T) {
	nodes := candidateNodes(t)
	if len(nodes) > 40 {
		nodes = nodes[:40]
	}
	// With many students the majority vote converges to the sign of
	// (score - threshold); two different seeds must agree almost always.
	a := Oracle{Seed: 1, Students: 400}.LabelAll(nodes)
	b := Oracle{Seed: 2, Students: 400}.LabelAll(nodes)
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	if diff > len(a)/5 {
		t.Errorf("labels disagree on %d/%d nodes across seeds", diff, len(a))
	}
}

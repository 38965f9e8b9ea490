package load

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"
)

const metricsPage = `# HELP deepeye_http_requests_total requests by route
# TYPE deepeye_http_requests_total counter
deepeye_http_requests_total{route="/topk"} 10
deepeye_http_requests_total{route="/datasets"} 3
deepeye_http_requests_total{route="/metrics"} 2
deepeye_go_goroutines 42
deepeye_go_heap_alloc_bytes 1048576
deepeye_http_request_duration_seconds_bucket{le="0.1"} 7
not a sample line
deepeye_bad_value{x="y"} banana
`

func TestParseMetricsText(t *testing.T) {
	snap, err := parseMetricsText(strings.NewReader(metricsPage))
	if err != nil {
		t.Fatalf("parseMetricsText: %v", err)
	}
	if got := snap.gauge("deepeye_go_goroutines"); got != 42 {
		t.Errorf("goroutines = %g", got)
	}
	if got := snap.gauge("deepeye_go_heap_alloc_bytes"); got != 1<<20 {
		t.Errorf("heap = %g", got)
	}
	routes := snap.routeCounter("deepeye_http_requests_total")
	want := map[string]float64{"/topk": 10, "/datasets": 3, "/metrics": 2}
	if len(routes) != len(want) {
		t.Fatalf("routes = %v", routes)
	}
	for r, v := range want {
		if routes[r] != v {
			t.Errorf("route %s = %g, want %g", r, routes[r], v)
		}
	}
	if got := snap.gauge("deepeye_missing"); got != 0 {
		t.Errorf("missing gauge = %g, want 0", got)
	}
}

func snapFor(t *testing.T, routes map[string]float64) *metricsSnapshot {
	t.Helper()
	var b strings.Builder
	for r, v := range routes {
		b.WriteString(`deepeye_http_requests_total{route="` + r + `"} `)
		b.WriteString(strconv.FormatFloat(v, 'f', -1, 64))
		b.WriteByte('\n')
	}
	snap, err := parseMetricsText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parseMetricsText: %v", err)
	}
	return snap
}

func TestReconcile(t *testing.T) {
	before := snapFor(t, map[string]float64{"/topk": 5, "/metrics": 1})
	after := snapFor(t, map[string]float64{"/topk": 15, "/metrics": 4, "/healthz": 2})

	rows, ok := reconcile(before, after, map[string]uint64{"/topk": 10, "/metrics": 3})
	if !ok {
		t.Fatalf("reconcile reported mismatch: %+v", rows)
	}
	// /healthz grew without client traffic: reported but not fatal.
	var sawPhantom bool
	for _, r := range rows {
		if r.Route == "/healthz" && r.Server == 2 && r.Client == 0 {
			sawPhantom = true
		}
	}
	if !sawPhantom {
		t.Errorf("phantom route not reported: %+v", rows)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Route < rows[i-1].Route {
			t.Errorf("rows not sorted: %+v", rows)
		}
	}

	_, ok = reconcile(before, after, map[string]uint64{"/topk": 9, "/metrics": 3})
	if ok {
		t.Fatalf("reconcile missed a lost request")
	}
}

func TestReporterAndSummary(t *testing.T) {
	sc, err := ParseScenarioString("duration = 10s\nwarmup = 2s\n[dataset d]\n[op topk]\nweight=1\ndataset=d\n[op append]\nweight=1\ndataset=d\n")
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	rep := NewReporter([]OpKind{OpTopK, OpAppend})
	rep.Start(time.Now(), sc.Warmup)

	// Warmup-phase OKs count toward totals but not latency stats.
	rep.Record(OpTopK, 5*time.Millisecond, outOK)
	rep.EnableStats()
	for i := 0; i < 8; i++ {
		rep.Record(OpTopK, 10*time.Millisecond, outOK)
	}
	rep.Record(OpTopK, 20*time.Millisecond, outShed)
	rep.Record(OpAppend, 15*time.Millisecond, outOK)
	rep.Record(OpAppend, 0, outError)
	rep.Record(OpAppend, 0, outSkipped)
	rep.Error("append d: boom %d", 7)

	sum := rep.summarize(sc)
	if len(sum.Ops) != 2 {
		t.Fatalf("ops = %+v", sum.Ops)
	}
	get := func(name string) OpSummary {
		for _, op := range sum.Ops {
			if op.Op == name {
				return op
			}
		}
		t.Fatalf("op %s missing", name)
		return OpSummary{}
	}
	topk := get("topk")
	if topk.OK != 9 || topk.WarmupOK != 1 || topk.Shed != 1 {
		t.Errorf("topk = %+v", topk)
	}
	// Measured window is duration-warmup = 8s; 8 measured OKs → 1/s.
	if topk.Throughput != 1.0 {
		t.Errorf("topk throughput = %g", topk.Throughput)
	}
	ap := get("append")
	if ap.OK != 1 || ap.Errors != 1 || ap.Skipped != 1 {
		t.Errorf("append = %+v", ap)
	}
	if sum.TotalOK != 10 || sum.TotalError != 1 || sum.TotalShed != 1 {
		t.Errorf("totals = %d/%d/%d", sum.TotalOK, sum.TotalError, sum.TotalShed)
	}
	if len(sum.HardErrors) != 1 || !strings.Contains(sum.HardErrors[0], "boom 7") {
		t.Errorf("hard errors = %v", sum.HardErrors)
	}

	var buf bytes.Buffer
	if err := sum.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back Summary
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("summary JSON does not round-trip: %v", err)
	}
	if back.TotalOK != sum.TotalOK {
		t.Errorf("round-trip TotalOK = %d", back.TotalOK)
	}
	buf.Reset()
	sum.WriteText(&buf)
	for _, want := range []string{"topk", "append", "boom 7", "fingerprint"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, buf.String())
		}
	}
}

func TestSummaryCheckGates(t *testing.T) {
	base := func() *Summary {
		return &Summary{
			Ops:         []OpSummary{{Op: "topk", OK: 10, P99Ms: 50}},
			TotalOK:     10,
			ReconcileOK: true,
			Monitor: &MonitorSummary{
				GoroutineBaseline: 20, GoroutineFinal: 22,
				SysBaselineBytes: 1 << 20, SysFinalBytes: 1 << 20,
			},
		}
	}
	if err := base().Check(Gates{FailOnError: true, P99Ceiling: time.Second, MaxGoroutineGrowth: 10, MaxSysGrowthBytes: 1 << 20, RequireReconcile: true}); err != nil {
		t.Fatalf("clean summary failed gates: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Summary)
		gates  Gates
		want   string
	}{
		{"hard errors", func(s *Summary) { s.TotalError = 3 }, Gates{FailOnError: true}, "3 hard errors"},
		{"fingerprint", func(s *Summary) { s.FingerprintMismatches = 1 }, Gates{FailOnError: true}, "fingerprint mismatches"},
		{"epoch", func(s *Summary) { s.EpochRegressions = 2 }, Gates{FailOnError: true}, "epoch regressions"},
		{"p99", func(s *Summary) { s.Ops[0].P99Ms = 5000 }, Gates{P99Ceiling: time.Second}, "exceeds ceiling"},
		{"goroutines", func(s *Summary) { s.Monitor.GoroutineFinal = 99 }, Gates{MaxGoroutineGrowth: 10}, "goroutines grew"},
		{"memory", func(s *Summary) { s.Monitor.SysFinalBytes = 1 << 30 }, Gates{MaxSysGrowthBytes: 1 << 20}, "memory grew"},
		{"reconcile", func(s *Summary) { s.ReconcileOK = false }, Gates{RequireReconcile: true}, "do not reconcile"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(s)
			err := s.Check(tc.gates)
			if err == nil {
				t.Fatalf("gate did not fire")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q missing %q", err, tc.want)
			}
			// The violated summary passes when that gate is off.
			if err := s.Check(Gates{}); err != nil {
				t.Fatalf("disabled gates still failed: %v", err)
			}
		})
	}
}

// TestReportPercentilesAreOrderStatistics: each reported percentile is
// one of the recorded latencies, at its nearest-rank position, so none
// exceeds the maximum (bucket interpolation reported a top-k p99 of
// 49.25ms above a 46.28ms max).
func TestReportPercentilesAreOrderStatistics(t *testing.T) {
	summarize := func(ds []time.Duration) OpSummary {
		r := NewReporter([]OpKind{OpTopK})
		r.EnableStats()
		for _, d := range ds {
			r.Record(OpTopK, d, outOK)
		}
		return r.summarize(&Scenario{Duration: time.Second}).Ops[0]
	}
	uniform := make([]time.Duration, 1000)
	for i := range uniform {
		uniform[i] = time.Duration(i+1) * time.Millisecond
	}
	// Record out of order: the reporter must sort, not trust arrival.
	for i := range uniform {
		j := (i * 7919) % len(uniform)
		uniform[i], uniform[j] = uniform[j], uniform[i]
	}
	op := summarize(uniform)
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"p50", op.P50Ms, 500}, {"p95", op.P95Ms, 950}, {"p99", op.P99Ms, 990}, {"max", op.MaxMs, 1000}} {
		if c.got != c.want {
			t.Errorf("%s = %vms, want the order statistic %vms", c.name, c.got, c.want)
		}
	}
	skew := []time.Duration{46280 * time.Microsecond}
	for i := 0; i < 9; i++ {
		skew = append(skew, time.Millisecond)
	}
	op = summarize(skew)
	if op.P50Ms != 1 || op.P95Ms != 46.28 || op.P99Ms != 46.28 || op.MaxMs != 46.28 {
		t.Errorf("skewed samples: p50/p95/p99/max = %v/%v/%v/%v, want 1/46.28/46.28/46.28",
			op.P50Ms, op.P95Ms, op.P99Ms, op.MaxMs)
	}
	for _, p := range []float64{op.P50Ms, op.P95Ms, op.P99Ms} {
		if p > op.MaxMs {
			t.Errorf("percentile %vms exceeds max %vms", p, op.MaxMs)
		}
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json; decoding rejects unknown keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json to what the
// program measures: the same metrics with the same units, a direction
// and a bound on every end-to-end metric, a layer → end-to-end mapping
// on every per-layer metric, and a parseable scenario per workload.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	workloads := map[string]bool{}
	for _, w := range bf.Workloads {
		workloads[w.Name] = true
		if strings.TrimSpace(w.Why) == "" {
			t.Errorf("workload %s: no why", w.Name)
		}
		if _, err := loadWorkload("workloads", w.Name, 1); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	e2e := map[string]metricDef{}
	for _, d := range endToEnd {
		e2e[d.name] = d
	}
	var setupBound, maxBound float64
	declared := map[string]bool{}
	for _, m := range bf.EndToEnd {
		declared[m.Name] = true
		if d := e2e[m.Name]; d.unit != m.Unit || d.better != m.Better {
			t.Errorf("end-to-end %s: %s/%s, program reports %q/%q", m.Name, m.Unit, m.Better, d.unit, d.better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			continue
		}
		maxBound = math.Max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		}
	}
	if len(declared) != len(endToEnd) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the program reports %d", len(declared), len(endToEnd))
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be the largest (%v)", setupBound, maxBound)
	}

	defs := map[string]metricDef{}
	for _, d := range perLayer {
		defs[d.name] = d
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the program reports %d", len(bf.PerLayer), len(perLayer))
	}
	for _, m := range bf.PerLayer {
		d, ok := defs[m.Name]
		switch {
		case !ok:
			t.Errorf("per-layer %s: not reported by the program", m.Name)
			continue
		case d.unit != m.Unit || d.better != m.Better:
			t.Errorf("per-layer %s: %s/%s, program reports %q/%q", m.Name, m.Unit, m.Better, d.unit, d.better)
		case len(d.moves) == 0 && !d.validity:
			t.Errorf("per-layer %s: maps to no end-to-end metric", m.Name)
		}
		for _, mv := range d.moves {
			metric, wl, _ := strings.Cut(mv, "@")
			if !declared[metric] || !workloads[wl] {
				t.Errorf("per-layer %s: moves %q, not a declared metric@workload", m.Name, mv)
			}
		}
	}
}

// TestSeedDeterminesInputs: the same seed yields identical datasets and
// op sequence; another seed yields different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range []string{"hot-read", "fresh-read", "ingest", "cluster-mixed"} {
		seq := func(seed int64) ([]op, []byte) {
			w, err := loadWorkload("workloads", name, seed)
			if err != nil {
				t.Fatal(err)
			}
			s := newOpStream(w)
			ops := make([]op, 2000)
			for i := range ops {
				ops[i] = s.at(i)
			}
			return ops, w.datasets[0].csv
		}
		a, csvA := seq(7)
		b, csvB := seq(7)
		c, csvC := seq(8)
		if !reflect.DeepEqual(a, b) || !bytes.Equal(csvA, csvB) {
			t.Errorf("%s: seed 7 generated two different inputs", name)
		}
		if reflect.DeepEqual(a, c) || bytes.Equal(csvA, csvC) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

// TestQuantilesAreOrderStatistics: percentiles are samples, at their
// nearest-rank positions, and never above the maximum (bucket
// interpolation can report a p99 above the largest observation).
func TestQuantilesAreOrderStatistics(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1) // 1..1000 ms
	}
	rand.New(rand.NewSource(1)).Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
	d := summarize(v)
	want := map[string]float64{"p50": 500, "p75": 750, "p90": 900, "p95": 950, "p99": 990}
	for k, w := range want {
		if d.Pct[k] != w {
			t.Errorf("%s = %v, want the order statistic %v", k, d.Pct[k], w)
		}
	}
	if _, ok := d.Pct["p99.9"]; ok {
		t.Errorf("p99.9 reported with only %d samples beyond it", beyond(1000, 0.999))
	}
	// A skewed population: each quantile is one of the samples, so the
	// p99 is the maximum itself and nothing exceeds it.
	skew := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 46.28}
	for q, want := range map[float64]float64{0.5: 1, 0.9: 1, 0.99: 46.28} {
		if got := quantile(skew, q); got != want {
			t.Errorf("q%v of skewed samples = %v, want %v", q, got, want)
		}
	}
}

// fakeClock is virtual time: sleeping jumps ahead, ops advance it by
// their service time. Safe for the schedule's workers.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(_ context.Context, t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
	return nil
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestOpenLoopStalledServer: a server that stalls for 500ms on the first
// op of a 100/s schedule. Every scheduled op is still attempted (none is
// dropped to cap a backlog), and the ops that came due during the stall
// carry the stall in their latency and send lag.
func TestOpenLoopStalledServer(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	const rate, secs = 100, 1
	interval := time.Second / rate
	start := clk.Now()
	samples := openLoop(context.Background(), clk, start, interval, rate*secs, 1, start.Add(time.Hour),
		func(i int) prepared {
			return prepared{kind: "topk", send: func() bool {
				if i == 0 {
					clk.advance(500 * time.Millisecond)
				} else {
					clk.advance(time.Millisecond)
				}
				return true
			}}
		})
	if len(samples) != rate*secs {
		t.Fatalf("attempted %d ops, want rate×duration = %d", len(samples), rate*secs)
	}
	for i, s := range samples {
		if !s.ok || s.unsent {
			t.Fatalf("op %d not sent", i)
		}
		if s.due != start.Add(time.Duration(i)*interval) {
			t.Fatalf("op %d due %v, want its schedule slot", i, s.due.Sub(start))
		}
	}
	// Op 10 came due at 100ms, 400ms into the stall; ops then drain at
	// 1ms each, so it is sent at 500ms+9ms.
	if lat := samples[10].latency(); lat < 400*time.Millisecond {
		t.Errorf("op due mid-stall: latency %v does not include the stall", lat)
	}
	if lag := samples[10].sendLag(); lag != 409*time.Millisecond {
		t.Errorf("op due mid-stall: send lag %v, want 409ms", lag)
	}
	if lat := samples[99].latency(); lat != time.Millisecond {
		t.Errorf("op due after the backlog drained: latency %v, want 1ms", lat)
	}
}

// TestMiniatureEmitsEveryMetric runs a one-second traced miniature of
// each workload against real server processes and checks that it is
// correct and reports every declared metric.
func TestMiniatureEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts deepeye-server")
	}
	bin := filepath.Join(t.TempDir(), "deepeye-server")
	build := exec.Command("go", "build", "-o", bin, "github.com/deepeye/deepeye/cmd/deepeye-server")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building deepeye-server: %v\n%s", err, out)
	}
	for _, name := range []string{"hot-read", "fresh-read", "ingest", "cluster-mixed"} {
		t.Run(name, func(t *testing.T) {
			res, err := run(context.Background(), config{
				root: "..", workload: name, seed: 3, seconds: 1, trace: true,
				out: t.TempDir(), bin: bin,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%d failures: %v", res.Failed, res.Failures)
			}
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s not measured (%v)", d.name, v)
					}
				}
			}
			var buf bytes.Buffer
			if err := res.report(&buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last struct {
				Correct bool                       `json:"correct"`
				Metrics map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || !last.Correct || len(last.Metrics) != len(perLayer) {
				t.Errorf("last line %q: %v", lines[len(lines)-1], err)
			}
		})
	}
}

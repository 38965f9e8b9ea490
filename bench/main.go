// Command bench is DeepEye's serving benchmark. It starts deepeye-server
// processes built from this checkout, drives one workload's generated
// requests through them over HTTP on an open-loop schedule and then a
// closed-loop capacity phase, checks every response it can, and prints
// every metric by name and unit. The last line of its output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash bench/run --workload hot-read --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it reports per-layer metrics instead: deltas of the
// servers' own counters over the open-loop phase, plus an in-process
// replay of the same op sequence in which every layer's public function
// is a span timed from outside (spans go to <out>/<workload>.trace.json).
// See bench/README.md for the workloads and the metric tables.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	bin      string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: bench/workloads/<name>.scenario (required)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "measured seconds, 3/4 open loop and 1/4 closed loop (0 = the scenario's duration)")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics; 1 = per-layer metrics from counters and an in-process traced replay")
	flag.StringVar(&cfg.root, "root", ".", "checkout root")
	flag.StringVar(&cfg.out, "out", "", "directory for the result and trace files (default <root>/.bench_build/out)")
	flag.StringVar(&cfg.bin, "server", "", "deepeye-server binary (default <root>/.bench_build/bin/deepeye-server)")
	flag.Parse()
	if cfg.workload == "" || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if cfg.out == "" {
		cfg.out = filepath.Join(cfg.root, ".bench_build", "out")
	}
	if cfg.bin == "" {
		cfg.bin = filepath.Join(cfg.root, ".bench_build", "bin", "deepeye-server")
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := res.report(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// closedOpsFactor sizes the closed loop's op count; see run.
const closedOpsFactor = 4

// setupRuns is how many set-ups setup_s is the median of.
const setupRuns = 7

// drainGrace is how long after a phase's end an op that came due
// within it may still be sent; later ones count as failed.
const drainGrace = 10 * time.Second

// result is everything one run measured; it is written whole to the
// output directory, and its chosen metrics close the standard output.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Hardware  string             `json:"hardware"`
	Rate      float64            `json:"rate_per_s"`
	Inflight  int                `json:"inflight"`
	SetupS    []float64          `json:"setup_s"`
	Ops       map[string]int     `json:"ops"`            // attempted per phase
	Latency   map[string]dist    `json:"open_loop_ms"`   // per op class, from due time
	SendLag   dist               `json:"send_lag_ms"`    // open loop, due → sent
	Closed    map[string]dist    `json:"closed_loop_ms"` // per op class, from send
	Counters  map[string]float64 `json:"counter_deltas"` // server counters over the open loop
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	out       string
}

func run(ctx context.Context, cfg config) (*result, error) {
	w, err := loadWorkload(filepath.Join(cfg.root, "bench", "workloads"), cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	sc := w.sc
	seconds := cfg.seconds
	if seconds <= 0 {
		seconds = sc.Duration.Seconds()
	}
	measured := time.Duration(seconds * float64(time.Second))
	if cfg.trace {
		// A traced run splits its time between the HTTP phases and the
		// in-process replay, so it takes no longer than an untraced one.
		measured /= 2
	}
	closedDur := measured / 4
	openDur := measured - closedDur
	inflight := min(sc.Concurrency, runtime.NumCPU())
	interval := time.Duration(float64(time.Second) / sc.Rate)
	// The warm-up is at most a fifth of the measured time, so a short
	// miniature run stays short.
	warmup := min(sc.Warmup, measured/5)
	warmN := int(warmup.Seconds() * sc.Rate)
	openN := int(openDur.Seconds() * sc.Rate)
	// The closed loop runs a fixed op count: closedOpsFactor times what
	// the open loop would send in the closed loop's share of the run,
	// which takes about that share when the rate is a quarter to a third
	// of capacity.
	closedN := int(closedOpsFactor * closedDur.Seconds() * sc.Rate)
	res := &result{
		Workload: w.name, Seed: w.seed, Seconds: seconds, Trace: cfg.trace, Hardware: hardware(),
		Rate: sc.Rate, Inflight: inflight, Ops: map[string]int{}, Counters: map[string]float64{},
		Metrics: map[string]float64{}, out: cfg.out,
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	runDir := filepath.Join(cfg.root, ".bench_build", "run", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(runDir)

	// Set up from scratch several times; the last set-up serves the run.
	// A traced run reports no setup_s and sets up once.
	setups := setupRuns
	if cfg.trace {
		setups = 1
	}
	ops := newOpStream(w)
	var srvs []*serverProc
	defer func() { stopServers(srvs) }()
	var d *dispatcher
	for i := range setups {
		if srvs != nil {
			stopServers(srvs)
			d.close()
			srvs = nil
		}
		t0 := time.Now()
		srvs, err = startServers(ctx, cfg.bin, sc, filepath.Join(runDir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, err
		}
		urls := make([]string, len(srvs))
		for j, s := range srvs {
			urls[j] = s.url
		}
		d = newDispatcher(w, ops, urls, inflight)
		if err := d.setUp(ctx); err != nil {
			return nil, err
		}
		if err := d.prime(ctx); err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}
	defer d.close()
	// Peak memory is read once set-up has registered the datasets and
	// primed every read one request at a time. Under concurrent load the
	// peak tracks how many pipeline runs happen to overlap, which follows
	// the host's speed more than the program's footprint.
	rss, err := peakRSSKiB(srvs)
	if err != nil {
		return nil, err
	}

	d.resetRoutes()
	base, err := d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	clk := wallClock{}
	from := func(first int) func(int) prepared {
		return func(i int) prepared { return d.prepare(ctx, first+i) }
	}
	start := clk.Now()
	warm := openLoop(ctx, clk, start, interval, warmN, inflight, start.Add(warmup+drainGrace), from(0))
	cpu0, err := cpuTicks(srvs)
	if err != nil {
		return nil, err
	}
	s1, err := d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	start = clk.Now()
	open := openLoop(ctx, clk, start, interval, openN, inflight, start.Add(openDur+drainGrace), from(warmN))
	cpu1, err := cpuTicks(srvs)
	if err != nil {
		return nil, err
	}
	s2, err := d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	closedStart := clk.Now()
	closed := closedLoop(ctx, clk, warmN+openN, closedN, inflight, closedStart.Add(2*closedDur), from(0))
	d.verifyFinal(ctx)
	final, err := d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	stopServers(srvs)
	srvs = nil
	d.reconcile(base, final)
	if d.stable {
		if err := checkOracle(d); err != nil {
			return nil, err
		}
	}

	res.Ops["warmup"], res.Ops["open_loop"], res.Ops["closed_loop"] = len(warm), len(open), len(closed)
	res.Latency, res.Closed = byClass(open), byClass(closed)
	var lags, reads []float64
	okOpen, unsent := 0, 0
	writes, readOK := 0, 0
	for _, phase := range [][]sample{warm, open, closed} {
		for _, s := range phase {
			if s.unsent {
				unsent++
			}
		}
	}
	for _, s := range open {
		lags = append(lags, ms(s.sendLag()))
		if !s.ok {
			continue
		}
		okOpen++
		if isRead(s.kind) {
			readOK++
			reads = append(reads, ms(s.latency()))
		} else {
			writes++
		}
	}
	res.SendLag = summarize(lags)
	res.Attempted = len(warm) + len(open) + len(closed)
	res.Failed = d.failed + unsent
	res.Failures = d.failures
	if unsent > 0 {
		res.Failures = append(res.Failures, fmt.Sprintf("%d ops still unsent %v after their phase ended", unsent, drainGrace))
	}

	sort.Float64s(reads)
	m := res.Metrics
	m["setup_s"] = median(append([]float64(nil), res.SetupS...))
	m["read_p50_ms"] = quantile(reads, 0.5)
	m["read_p90_ms"] = quantile(reads, 0.9)
	m["capacity_rps"] = capacity(closed, closedStart)
	m["server_cpu_ms_per_op"] = float64(cpu1-cpu0) * 1000 / clockTicksPerSec / float64(okOpen)
	m["server_rss_mb"] = float64(rss) / 1024

	for _, name := range []string{
		"deepeye_cache_hits_total", "deepeye_cache_misses_total", "deepeye_cache_invalidations_total",
		"deepeye_wal_fsyncs_total", "deepeye_wal_appends_total", "deepeye_http_requests_total",
		"deepeye_http_forwarded_requests_total", "deepeye_cluster_catchup_waits_total",
		"deepeye_cluster_catchup_timeouts_total", "deepeye_cluster_shipped_records_total",
	} {
		res.Counters[name] = delta(s1, s2, name)
	}
	if !cfg.trace {
		return res, nil
	}

	c := res.Counters
	m["cache.hit_ratio"] = ratio(c["deepeye_cache_hits_total"], c["deepeye_cache_hits_total"]+c["deepeye_cache_misses_total"])
	m["wal.fsyncs_per_write"] = ratio(c["deepeye_wal_fsyncs_total"], float64(writes))
	m["cache.invalidations_per_write"] = ratio(c["deepeye_cache_invalidations_total"], float64(writes))
	m["cluster.forwarded_ratio"] = ratio(c["deepeye_http_forwarded_requests_total"], c["deepeye_http_requests_total"])
	m["cluster.catchup_waits_per_read"] = ratio(c["deepeye_cluster_catchup_waits_total"], float64(readOK))
	m["cluster.catchup_timeouts"] = c["deepeye_cluster_catchup_timeouts_total"]
	m["cluster.shipped_records_per_write"] = ratio(c["deepeye_cluster_shipped_records_total"], float64(writes))
	sort.Float64s(lags)
	m["load.send_lag_p99_ms"] = quantile(lags, 0.99)
	m["load.ops_attempted"] = float64(len(open))

	rp, err := newReplay(ctx, w, filepath.Join(runDir, "replay"))
	if err != nil {
		return nil, err
	}
	defer rp.close()
	if err := rp.run(ops, warmN+openN, measured); err != nil {
		return nil, err
	}
	lm, err := rp.layerMetrics()
	if err != nil {
		return nil, err
	}
	for k, v := range lm {
		m[k] = v
	}
	return res, rp.tr.write(filepath.Join(cfg.out, w.name+".trace.json"), w)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// byClass summarizes latencies (ms) of successful ops per op class,
// plus every read pooled and every op pooled.
func byClass(samples []sample) map[string]dist {
	v := map[string][]float64{}
	for _, s := range samples {
		if !s.ok {
			continue
		}
		l := ms(s.latency())
		v[string(s.kind)] = append(v[string(s.kind)], l)
		v["all"] = append(v["all"], l)
		if isRead(s.kind) {
			v["read"] = append(v["read"], l)
		}
	}
	out := map[string]dist{}
	for k, l := range v {
		out[k] = summarize(l)
	}
	return out
}

// report prints every measured number by name, then the result line.
func (r *result) report(out io.Writer) error {
	fmt.Fprintf(out, "workload %s  seed %d  %gs measured  rate %g/s  inflight %d  trace %v\n",
		r.Workload, r.Seed, r.Seconds, r.Rate, r.Inflight, r.Trace)
	fmt.Fprintf(out, "hardware: %s\n", r.Hardware)
	fmt.Fprintf(out, "ops attempted: warm-up %d, open loop %d, closed loop %d; failed %d\n",
		r.Ops["warmup"], r.Ops["open_loop"], r.Ops["closed_loop"], r.Failed)
	printDists(out, "open loop, ms from due time", r.Latency)
	printDists(out, "closed loop, ms from send", r.Closed)
	printDists(out, "open-loop send lag, ms", map[string]dist{"lag": r.SendLag})
	for _, f := range r.Failures {
		fmt.Fprintf(out, "failure: %s\n", f)
	}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, def := range defs {
		v, ok := r.Metrics[def.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", def.name)
		}
		fmt.Fprintf(out, "%-36s %14.6g %-6s %s\n", def.name, v, def.unit, r.sampleNote(def.name))
		metrics[def.name] = value{v, def.unit}
	}
	if err := r.write(); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// sampleNote states the population behind a percentile metric.
func (r *result) sampleNote(name string) string {
	reads := r.Latency["read"]
	switch name {
	case "read_p50_ms":
		return fmt.Sprintf("(n=%d reads)", reads.N)
	case "read_p90_ms":
		note := fmt.Sprintf("(n=%d reads, %d beyond)", reads.N, beyond(reads.N, 0.9))
		if beyond(reads.N, 0.9) < minBeyond {
			note += " too few samples beyond for a p90"
		}
		return note
	case "setup_s":
		return fmt.Sprintf("(median of %d)", len(r.SetupS))
	}
	return ""
}

func printDists(out io.Writer, title string, ds map[string]dist) {
	var names []string
	for k := range ds {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s:\n", title)
	for _, k := range names {
		d := ds[k]
		var parts []string
		for _, q := range reportedPcts {
			if v, ok := d.Pct[pctName(q)]; ok {
				parts = append(parts, fmt.Sprintf("%s %.3f", pctName(q), v))
			}
		}
		fmt.Fprintf(out, "  %-8s n=%-6d %s max %.3f\n", k, d.N, strings.Join(parts, " "), d.Max)
	}
}

// write saves the whole result under the output directory.
func (r *result) write() error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.out, fmt.Sprintf("%s-seed%d-trace%v.json", r.Workload, r.Seed, r.Trace)), b, 0o644)
}

// hardware describes the machine the numbers were taken on.
func hardware() string {
	model := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	mem := ""
	if b, err := os.ReadFile("/proc/meminfo"); err == nil {
		if line, _, ok := strings.Cut(string(b), "\n"); ok {
			mem = ", " + strings.Join(strings.Fields(line)[1:], " ") + " RAM"
		}
	}
	return fmt.Sprintf("%d × %s%s, %s", runtime.NumCPU(), model, mem, runtime.Version())
}

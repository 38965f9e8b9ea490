package load

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// outcome classifies one completed operation.
type outcome int

const (
	outOK      outcome = iota // 2xx
	outShed                   // 503 with reason "capacity" — expected under overload
	outError                  // anything else: non-2xx, transport failure, verification failure
	outSkipped                // no request issued (e.g. drop with an empty pool)
)

// opStats aggregates one op class.
type opStats struct {
	attempts atomic.Uint64
	ok       atomic.Uint64
	shed     atomic.Uint64
	errors   atomic.Uint64
	skipped  atomic.Uint64
	warmup   atomic.Uint64 // OK observations excluded from the samples

	mu      sync.Mutex
	samples []time.Duration // measured OK latencies, for exact percentiles
}

// Reporter collects client-side measurements for one run: per-op
// latency samples (warmup excluded), outcome counts, per-route
// request counts for /metrics reconciliation, and a capped log of
// hard-error details. Safe for concurrent use by all workers.
type Reporter struct {
	ops       map[OpKind]*opStats
	statsOn   atomic.Bool // false during warmup
	startedAt time.Time
	statsFrom time.Time

	mu       sync.Mutex
	routes   map[string]*atomic.Uint64
	errs     []string // capped detail log
	errsOver int
}

// errLogCap bounds the per-run hard-error detail log.
const errLogCap = 64

// NewReporter builds a reporter covering the given op kinds.
func NewReporter(kinds []OpKind) *Reporter {
	r := &Reporter{ops: map[OpKind]*opStats{}, routes: map[string]*atomic.Uint64{}}
	for _, k := range kinds {
		if _, dup := r.ops[k]; dup {
			continue
		}
		r.ops[k] = &opStats{}
	}
	return r
}

// Start marks the run begin and the moment stats collection begins
// (after warmup).
func (r *Reporter) Start(now time.Time, warmup time.Duration) {
	r.startedAt = now
	r.statsFrom = now.Add(warmup)
	r.statsOn.Store(warmup == 0)
}

// EnableStats flips the reporter out of the warmup window.
func (r *Reporter) EnableStats() { r.statsOn.Store(true) }

// CountRoute records one client HTTP request by route path, for
// reconciliation against the server's request counters.
func (r *Reporter) CountRoute(route string) {
	r.mu.Lock()
	c := r.routes[route]
	if c == nil {
		c = &atomic.Uint64{}
		r.routes[route] = c
	}
	r.mu.Unlock()
	c.Add(1)
}

// Record notes one completed operation.
func (r *Reporter) Record(kind OpKind, d time.Duration, out outcome) {
	st := r.ops[kind]
	if st == nil {
		return
	}
	st.attempts.Add(1)
	switch out {
	case outOK:
		st.ok.Add(1)
		if !r.statsOn.Load() {
			st.warmup.Add(1)
			return
		}
		st.mu.Lock()
		st.samples = append(st.samples, d)
		st.mu.Unlock()
	case outShed:
		st.shed.Add(1)
	case outError:
		st.errors.Add(1)
	case outSkipped:
		st.skipped.Add(1)
	}
}

// Error records one hard-error detail (capped; the count is always
// exact via Record).
func (r *Reporter) Error(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) >= errLogCap {
		r.errsOver++
		return
	}
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// routeCounts snapshots the per-route client counters.
func (r *Reporter) routeCounts() map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.routes))
	for route, c := range r.routes {
		out[route] = c.Load()
	}
	return out
}

// OpSummary is the wire form of one op class's results.
type OpSummary struct {
	Op         string  `json:"op"`
	Attempts   uint64  `json:"attempts"`
	OK         uint64  `json:"ok"`
	Shed       uint64  `json:"shed,omitempty"`
	Errors     uint64  `json:"errors,omitempty"`
	Skipped    uint64  `json:"skipped,omitempty"`
	WarmupOK   uint64  `json:"warmup_ok,omitempty"`
	Throughput float64 `json:"throughput_per_sec"` // measured-window OK/sec
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MaxMs      float64 `json:"max_ms"`
}

// MonitorSummary is the soak monitor's view of the server's runtime
// gauges over the run.
type MonitorSummary struct {
	Samples            int    `json:"samples"`
	GoroutineBaseline  int    `json:"goroutine_baseline"`
	GoroutineFinal     int    `json:"goroutine_final"`
	GoroutineMax       int    `json:"goroutine_max"`
	HeapBaselineBytes  uint64 `json:"heap_baseline_bytes"`
	HeapFinalBytes     uint64 `json:"heap_final_bytes"`
	SysBaselineBytes   uint64 `json:"sys_baseline_bytes"`
	SysFinalBytes      uint64 `json:"sys_final_bytes"`
	DrainedToBaseline  bool   `json:"drained_to_baseline"`
	DrainWaited        string `json:"drain_waited,omitempty"`
	MonitorScrapeFails int    `json:"monitor_scrape_fails,omitempty"`
}

// ChaosSummary reports one scripted fault window and the cluster's
// recovery from it. Reconverged is the chaos differential: after the
// fault healed, every member reported identical per-dataset epochs and
// fingerprints within the budget. MaxQueueBytes is the largest
// single-peer shipper queue observed on any member during the run —
// it must stay at or under QueueCapBytes for the backpressure bound to
// hold.
type ChaosSummary struct {
	Mode          string  `json:"mode"`
	Target        int     `json:"target"`
	WindowSeconds float64 `json:"window_seconds"`
	Injected      int     `json:"injected_faults"`
	Reconverged   bool    `json:"reconverged"`
	ReconvergeMs  float64 `json:"reconverge_ms,omitempty"`
	BudgetSeconds float64 `json:"budget_seconds"`
	Detail        string  `json:"detail,omitempty"` // last divergence seen while waiting
	MaxQueueBytes int64   `json:"max_queue_bytes,omitempty"`
	QueueCapBytes int64   `json:"queue_cap_bytes,omitempty"`
}

// Summary is the run's full result: what deepeye-load prints, writes
// as JSON, and gates on.
type Summary struct {
	Scenario        string        `json:"scenario,omitempty"`
	Target          string        `json:"target"`
	Duration        time.Duration `json:"-"`
	DurationSeconds float64       `json:"duration_seconds"`
	WarmupSeconds   float64       `json:"warmup_seconds,omitempty"`
	Concurrency     int           `json:"concurrency"`
	TargetRate      float64       `json:"target_rate_per_sec"`
	Soak            bool          `json:"soak,omitempty"`

	Ops        []OpSummary `json:"ops"`
	TotalOK    uint64      `json:"total_ok"`
	TotalShed  uint64      `json:"total_shed,omitempty"`
	TotalError uint64      `json:"total_errors"`
	Throughput float64     `json:"throughput_per_sec"`

	FingerprintChecks     uint64 `json:"fingerprint_checks"`
	FingerprintMismatches uint64 `json:"fingerprint_mismatches"`
	EpochRegressions      uint64 `json:"epoch_regressions"`
	Reregistered          uint64 `json:"reregistered,omitempty"` // evicted scenario datasets re-registered

	Reconciliation []RouteCount `json:"reconciliation,omitempty"`
	ReconcileOK    bool         `json:"reconcile_ok"`

	Monitor *MonitorSummary `json:"monitor,omitempty"`
	Chaos   *ChaosSummary   `json:"chaos,omitempty"`

	HardErrors          []string `json:"hard_errors,omitempty"`
	HardErrorsTruncated int      `json:"hard_errors_truncated,omitempty"`
}

// summarize folds the reporter into a Summary (gates and monitor data
// are filled in by the runner).
func (r *Reporter) summarize(sc *Scenario) *Summary {
	s := &Summary{
		Duration:        sc.Duration,
		DurationSeconds: sc.Duration.Seconds(),
		WarmupSeconds:   sc.Warmup.Seconds(),
		Concurrency:     sc.Concurrency,
		TargetRate:      sc.Rate,
		ReconcileOK:     true,
	}
	window := (sc.Duration - sc.Warmup).Seconds()
	if window <= 0 {
		window = sc.Duration.Seconds()
	}
	kinds := make([]string, 0, len(r.ops))
	for k := range r.ops {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		st := r.ops[OpKind(k)]
		measured := st.ok.Load() - st.warmup.Load()
		st.mu.Lock()
		sorted := slices.Clone(st.samples)
		st.mu.Unlock()
		slices.Sort(sorted)
		s.Ops = append(s.Ops, OpSummary{
			Op:         k,
			Attempts:   st.attempts.Load(),
			OK:         st.ok.Load(),
			Shed:       st.shed.Load(),
			Errors:     st.errors.Load(),
			Skipped:    st.skipped.Load(),
			WarmupOK:   st.warmup.Load(),
			Throughput: float64(measured) / window,
			P50Ms:      ms(quantile(sorted, 0.50)),
			P95Ms:      ms(quantile(sorted, 0.95)),
			P99Ms:      ms(quantile(sorted, 0.99)),
			MaxMs:      ms(quantile(sorted, 1)),
		})
		s.TotalOK += st.ok.Load()
		s.TotalShed += st.shed.Load()
		s.TotalError += st.errors.Load()
	}
	var measuredOK uint64
	for _, op := range s.Ops {
		measuredOK += op.OK - op.WarmupOK
	}
	s.Throughput = float64(measuredOK) / window
	r.mu.Lock()
	s.HardErrors = append([]string(nil), r.errs...)
	s.HardErrorsTruncated = r.errsOver
	r.mu.Unlock()
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile is the nearest-rank q-quantile of ascending samples: the
// smallest sample with at least q·n samples at or below it (0 when
// there are none). It is always one of the samples, so no percentile
// exceeds the maximum.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps binary rounding (0.95·100 = 95.00000000000001)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(q*float64(len(sorted)) - 1e-9))
	return sorted[min(max(r, 1), len(sorted))-1]
}

// WriteJSON writes the summary as indented JSON.
func (s *Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the human-readable report table.
func (s *Summary) WriteText(w io.Writer) {
	fmt.Fprintf(w, "target %s  duration %.0fs (warmup %.0fs)  concurrency %d  rate %.0f/s",
		s.Target, s.DurationSeconds, s.WarmupSeconds, s.Concurrency, s.TargetRate)
	if s.Soak {
		fmt.Fprintf(w, "  [soak]")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %9s %9s %6s %6s %10s %10s %10s %10s\n",
		"op", "ok", "err", "shed", "skip", "p50", "p95", "p99", "max")
	for _, op := range s.Ops {
		fmt.Fprintf(w, "%-10s %9d %9d %6d %6d %9.2fms %9.2fms %9.2fms %9.2fms\n",
			op.Op, op.OK, op.Errors, op.Shed, op.Skipped, op.P50Ms, op.P95Ms, op.P99Ms, op.MaxMs)
	}
	fmt.Fprintf(w, "total: %d ok, %d errors, %d shed — %.1f req/s measured\n",
		s.TotalOK, s.TotalError, s.TotalShed, s.Throughput)
	fmt.Fprintf(w, "verify: %d fingerprint checks, %d mismatches, %d epoch regressions, reconcile_ok=%v\n",
		s.FingerprintChecks, s.FingerprintMismatches, s.EpochRegressions, s.ReconcileOK)
	if m := s.Monitor; m != nil {
		fmt.Fprintf(w, "monitor: goroutines %d→%d (max %d, drained=%v), heap %.1fMiB→%.1fMiB, sys %.1fMiB→%.1fMiB\n",
			m.GoroutineBaseline, m.GoroutineFinal, m.GoroutineMax, m.DrainedToBaseline,
			float64(m.HeapBaselineBytes)/(1<<20), float64(m.HeapFinalBytes)/(1<<20),
			float64(m.SysBaselineBytes)/(1<<20), float64(m.SysFinalBytes)/(1<<20))
	}
	if c := s.Chaos; c != nil {
		fmt.Fprintf(w, "chaos: %s on node %d for %.1fs (%d faults injected), reconverged=%v",
			c.Mode, c.Target, c.WindowSeconds, c.Injected, c.Reconverged)
		if c.Reconverged {
			fmt.Fprintf(w, " in %.0fms", c.ReconvergeMs)
		} else if c.Detail != "" {
			fmt.Fprintf(w, " (%s)", c.Detail)
		}
		if c.QueueCapBytes > 0 {
			fmt.Fprintf(w, ", max shipper queue %.1fKiB (cap %.1fKiB)",
				float64(c.MaxQueueBytes)/(1<<10), float64(c.QueueCapBytes)/(1<<10))
		}
		fmt.Fprintln(w)
	}
	for _, e := range s.HardErrors {
		fmt.Fprintf(w, "error: %s\n", e)
	}
	if s.HardErrorsTruncated > 0 {
		fmt.Fprintf(w, "… and %d more errors\n", s.HardErrorsTruncated)
	}
}

// Gates are the pass/fail budgets a run is checked against.
type Gates struct {
	// FailOnError fails the run on any hard error (non-2xx/non-shed
	// response, transport failure, fingerprint or epoch violation).
	FailOnError bool
	// P99Ceiling fails any op class whose p99 exceeds it (0 = off).
	P99Ceiling time.Duration
	// MaxGoroutineGrowth fails when the server's goroutine gauge ends
	// more than this above its post-warmup baseline (0 = off).
	MaxGoroutineGrowth int
	// MaxSysGrowthBytes fails when the server's OS-claimed memory ends
	// more than this above baseline (0 = off).
	MaxSysGrowthBytes int64
	// RequireReconcile fails when client and server request counts
	// disagree on any route the client hit.
	RequireReconcile bool
}

// Check evaluates the gates; the error lists every violated budget.
func (s *Summary) Check(g Gates) error {
	var fails []string
	if g.FailOnError {
		if s.TotalError > 0 {
			fails = append(fails, fmt.Sprintf("%d hard errors", s.TotalError))
		}
		if s.FingerprintMismatches > 0 {
			fails = append(fails, fmt.Sprintf("%d fingerprint mismatches", s.FingerprintMismatches))
		}
		if s.EpochRegressions > 0 {
			fails = append(fails, fmt.Sprintf("%d epoch regressions", s.EpochRegressions))
		}
	}
	if g.P99Ceiling > 0 {
		for _, op := range s.Ops {
			if op.OK-op.WarmupOK == 0 {
				continue
			}
			if p99 := time.Duration(op.P99Ms * 1e6); p99 > g.P99Ceiling {
				fails = append(fails, fmt.Sprintf("op %s p99 %.2fms exceeds ceiling %v", op.Op, op.P99Ms, g.P99Ceiling))
			}
		}
	}
	if m := s.Monitor; m != nil {
		if g.MaxGoroutineGrowth > 0 && m.GoroutineFinal-m.GoroutineBaseline > g.MaxGoroutineGrowth {
			fails = append(fails, fmt.Sprintf("goroutines grew %d→%d (budget +%d)",
				m.GoroutineBaseline, m.GoroutineFinal, g.MaxGoroutineGrowth))
		}
		if g.MaxSysGrowthBytes > 0 && m.SysFinalBytes > m.SysBaselineBytes &&
			int64(m.SysFinalBytes-m.SysBaselineBytes) > g.MaxSysGrowthBytes {
			fails = append(fails, fmt.Sprintf("memory grew %d→%d bytes (budget +%d)",
				m.SysBaselineBytes, m.SysFinalBytes, g.MaxSysGrowthBytes))
		}
	}
	if g.RequireReconcile && !s.ReconcileOK {
		fails = append(fails, "client/server request counts do not reconcile")
	}
	// Chaos gates are unconditional: a run that scripted a fault is
	// meaningless unless the cluster healed from it and replication
	// memory stayed bounded.
	if c := s.Chaos; c != nil {
		if !c.Reconverged {
			detail := c.Detail
			if detail == "" {
				detail = "no convergence detail recorded"
			}
			fails = append(fails, fmt.Sprintf("cluster did not reconverge within %.1fs after %s chaos (%s)",
				c.BudgetSeconds, c.Mode, detail))
		}
		if c.QueueCapBytes > 0 && c.MaxQueueBytes > c.QueueCapBytes {
			fails = append(fails, fmt.Sprintf("shipper queue reached %d bytes, exceeding the %d-byte cap",
				c.MaxQueueBytes, c.QueueCapBytes))
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("load gate failed: %s", strings.Join(fails, "; "))
	}
	return nil
}

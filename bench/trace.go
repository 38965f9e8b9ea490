package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	deepeye "github.com/deepeye/deepeye"
	"github.com/deepeye/deepeye/internal/cache"
	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/load"
	"github.com/deepeye/deepeye/internal/nlq"
	"github.com/deepeye/deepeye/internal/obs"
	"github.com/deepeye/deepeye/internal/rank"
	"github.com/deepeye/deepeye/internal/registry"
	"github.com/deepeye/deepeye/internal/rules"
	"github.com/deepeye/deepeye/internal/server"
	"github.com/deepeye/deepeye/internal/vizql"
	"github.com/deepeye/deepeye/internal/wal"
)

// span is one timed call of a layer's public function. Spans of one op
// share its index; set-up, priming and probe spans carry -1.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// selfTimes maps each span name to its spans' self times in ns: a
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string][]float64 {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string][]float64{}
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, reach), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered))
	}
	return out
}

func (t *tracer) write(path string, w *workload) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, w.seed, t.spans})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// newInproc builds the System and HTTP handler a deepeye-server process
// would run with the scenario's [server] settings.
func newInproc(sc *load.Scenario, dataDir string) (*deepeye.System, *server.Handler, error) {
	c := sc.Server
	sys, err := deepeye.Open(deepeye.Options{
		IncludeOneColumn: true, CacheSize: c.CacheSize, Workers: c.Workers,
		RegistrySize: c.RegistrySize, DatasetTTL: c.DatasetTTL,
		DataDir: dataDir, WALCompactBytes: c.WALCompactBytes,
	})
	if err != nil {
		return nil, nil, err
	}
	return sys, server.New(sys, server.Options{Timeout: c.Timeout, MaxInFlight: c.MaxInFlight}), nil
}

// checkOracle answers every read the run repeated on a mix that never
// writes with an in-process System holding the same datasets, and fails
// each HTTP body that differs from the in-process one.
func checkOracle(d *dispatcher) error {
	sys, h, err := newInproc(d.w.sc, "")
	if err != nil {
		return err
	}
	defer sys.Close()
	for _, ds := range d.w.datasets {
		if _, err := sys.RegisterCSV(ds.spec.Name, bytes.NewReader(ds.csv)); err != nil {
			return err
		}
	}
	for _, o := range d.w.readKeys() {
		got, ok := d.bodies[o.key()]
		if !ok {
			continue
		}
		method, path, q := readTarget(o)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path+"?"+q.Encode(), nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), got) {
			d.fail("%s: served body differs from the in-process answer (status %d)", o.key(), rec.Code)
		}
	}
	return nil
}

// replay re-runs a workload's op sequence one op at a time against an
// in-process System configured like the server, calling each layer's
// public function itself so every call is a span timed from outside.
// A top-k that misses every cache level is then decomposed on a cold
// copy of its snapshot: prime, enumerate, execute, dedupe, factors and
// order, each its own span, whose sum is compared with the miss itself.
type replay struct {
	ctx     context.Context
	w       *workload
	sys     *deepeye.System
	reg     *registry.Registry
	h       *server.Handler
	ts      *httptest.Server
	hc      *http.Client
	scratch *wal.Log
	tr      *tracer
	workers int

	samples  map[string][]float64 // per-layer values not read off span self times
	ranked   map[string]bool      // fingerprints whose ranked candidate set is cached
	answered map[string]bool      // fingerprint|k top-k answers cached
	rows     map[string]*rowGen   // per dataset: the append stream the HTTP run sends
}

func newReplay(ctx context.Context, w *workload, dir string) (*replay, error) {
	sys, h, err := newInproc(w.sc, filepath.Join(dir, "data"))
	if err != nil {
		return nil, err
	}
	scratch, _, err := wal.Open(wal.Config{Dir: filepath.Join(dir, "scratch-wal"), Obs: obs.NewRegistry()}, discard{})
	if err != nil {
		sys.Close()
		return nil, err
	}
	r := &replay{
		ctx: ctx, w: w, sys: sys, reg: sys.RegistryHandle(), h: h, ts: httptest.NewServer(h),
		hc: &http.Client{}, scratch: scratch, tr: &tracer{t0: time.Now()}, workers: w.sc.Server.Workers,
		samples: map[string][]float64{}, ranked: map[string]bool{}, answered: map[string]bool{},
		rows: map[string]*rowGen{},
	}
	for _, ds := range w.datasets {
		r.rows[ds.spec.Name] = newRowGen(ds.appendSeed)
	}
	return r, nil
}

type discard struct{}

func (discard) Apply(*wal.Record) error { return nil }

func (r *replay) close() {
	r.ts.Close()
	r.hc.CloseIdleConnections()
	r.scratch.Close()
	r.sys.Close()
}

func (r *replay) add(metric string, v float64) { r.samples[metric] = append(r.samples[metric], v) }

// run registers the datasets, primes every read key, replays ops
// [0, n) until budget is spent, then probes whichever layers the mix
// never reached so every per-layer metric has samples.
func (r *replay) run(ops *opStream, n int, budget time.Duration) error {
	for _, ds := range r.w.datasets {
		if err := r.register(-1, ds.spec.Name, ds.csv); err != nil {
			return err
		}
	}
	for _, o := range r.w.readKeys() {
		if err := r.exec(-1, o); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(budget)
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		if err := r.exec(i, ops.at(i)); err != nil {
			return err
		}
	}
	return r.probe()
}

func (r *replay) exec(i int, o op) error {
	switch o.kind {
	case load.OpTopK:
		return r.topk(i, o.ds, o.k)
	case load.OpSearch:
		return r.search(i, o.ds, o.q, o.k)
	case load.OpQuery:
		return r.query(i, o.ds, o.q)
	case load.OpNLQ:
		return r.ask(i, o.ds, o.q, o.k)
	case load.OpAppend:
		return r.append(i, o.ds)
	case load.OpRegister:
		csv, _, err := r.w.ephInput(o)
		if err != nil {
			return err
		}
		return r.register(i, ephName(o.eph), csv)
	case load.OpDrop:
		root := r.tr.begin("op.drop", i, -1)
		sp := r.tr.begin("registry.Delete", i, root)
		_, err := r.reg.Delete(ephName(o.eph))
		r.tr.end(sp)
		r.tr.end(root)
		return err
	}
	return fmt.Errorf("replay: unknown op %q", o.kind)
}

// use opens an op's root span and takes the dataset's snapshot.
func (r *replay) use(i int, kind load.OpKind, ds string) (int, *dataset.Table, registry.Info, error) {
	root := r.tr.begin("op."+string(kind), i, -1)
	sp := r.tr.begin("registry.Use", i, root)
	snap, info, err := r.reg.Use(ds)
	r.tr.end(sp)
	return root, snap, info, err
}

func (r *replay) topk(i int, ds string, k int) error {
	root, snap, info, err := r.use(i, load.OpTopK, ds)
	if err != nil {
		return err
	}
	fp := snap.Fingerprint()
	full, warm := !r.ranked[fp], r.answered[fp+"|"+strconv.Itoa(k)]
	sp := r.tr.begin("deepeye.TopKCtx", i, root)
	vs, err := r.sys.TopKCtx(r.ctx, snap, k)
	d := r.tr.end(sp)
	if err != nil {
		return err
	}
	r.ranked[fp], r.answered[fp+"|"+strconv.Itoa(k)] = true, true
	sp = r.tr.begin("server.encode", i, root)
	body, err := encodeTopK(info, vs)
	r.tr.end(sp)
	r.tr.end(root)
	if err != nil {
		return err
	}
	r.add("server.response_bytes", float64(len(body)))
	switch {
	case warm:
		r.add("cache.hit_us", us(d))
	case full:
		r.add("deepeye.topk_miss_ms", ms(d))
		if err := r.decompose(i, snap, d); err != nil {
			return err
		}
	}
	return r.timeServing(i, "/datasets/"+ds+"/topk?k="+strconv.Itoa(k))
}

// encodeTopK renders a top-k answer the way the server's handler does.
func encodeTopK(info registry.Info, vs []*deepeye.Visualization) ([]byte, error) {
	resp := server.TopKResponse{Table: info.Name, Rows: info.Rows, Columns: info.Cols,
		Fingerprint: info.Fingerprint, RaggedRows: info.RaggedRows, Epoch: info.Epoch}
	for _, v := range vs {
		labels, values := v.Data()
		c := server.ChartJSON{Rank: v.Rank, Query: v.Query, Chart: v.Chart, Score: v.Score,
			X: v.XName(), Y: v.YName(), Labels: labels, Values: values}
		if spec, err := v.VegaLite(); err == nil {
			c.Vega = spec
		}
		resp.Charts = append(resp.Charts, c)
	}
	return json.Marshal(resp)
}

// timeServing times the now-warm request twice: straight through the
// handler, and as a loopback HTTP round trip to the same handler. The
// difference of the two medians is the transport's share.
func (r *replay) timeServing(i int, target string) error {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	sp := r.tr.begin("server.Handler.ServeHTTP", i, -1)
	r.h.ServeHTTP(rec, req)
	r.tr.end(sp)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("replay: %s: status %d", target, rec.Code)
	}
	sp = r.tr.begin("http.Client.Do", i, -1)
	resp, err := r.hc.Get(r.ts.URL + target)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	r.tr.end(sp)
	return err
}

// decompose re-runs a missed top-k's pipeline layer by layer on a cold
// copy of the snapshot. The copy is rebuilt from the snapshot's CSV
// through a throwaway registry, outside every timed span, so it starts
// exactly as the live snapshot did (registry-injected statistics, no
// memoized work) and nothing the live miss computed leaks into it.
func (r *replay) decompose(i int, snap *dataset.Table, miss time.Duration) error {
	cold, err := coldCopy(snap)
	if err != nil {
		return err
	}
	var (
		queries []vizql.Query
		nodes   []*vizql.Node
		kept    []*vizql.Node
		factors []rank.Factors
	)
	c := cache.New(cache.Config{Name: "decompose", MaxBytes: 64 << 20, Registry: obs.NewRegistry()})
	steps := []struct {
		name string
		f    func() error
	}{
		{"cache.PrimeTable", func() error { cache.PrimeTable(c, cold); return nil }},
		{"rules.EnumerateQueriesCtx", func() (err error) { queries, err = rules.EnumerateQueriesCtx(r.ctx, cold); return }},
		{"vizql.ExecuteAllParallelCtx", func() (err error) {
			nodes, err = vizql.ExecuteAllParallelCtx(r.ctx, cold, queries, r.workers)
			return
		}},
		{"vizql.Dedupe", func() error { kept = vizql.Dedupe(nodes); return nil }},
		{"rank.ComputeFactorsWorkersCtx", func() (err error) {
			factors, err = rank.ComputeFactorsWorkersCtx(r.ctx, kept, rank.FactorOptions{}, r.workers)
			return
		}},
		{"rank.OrderCtx", func() (err error) {
			_, _, err = rank.OrderCtx(r.ctx, kept, factors, rank.SelectOptions{Workers: r.workers})
			return
		}},
	}
	root := r.tr.begin("decompose", i, -1)
	var sum time.Duration
	for _, s := range steps {
		sp := r.tr.begin(s.name, i, root)
		err := s.f()
		sum += r.tr.end(sp)
		if err != nil {
			return err
		}
	}
	r.tr.end(root)
	r.add("rules.candidates", float64(len(queries)))
	r.add("vizql.kept_ratio", float64(len(kept))/float64(len(queries)))
	r.add("deepeye.attributed_ratio", float64(sum)/float64(miss))
	r.add("deepeye.unattributed_ms", ms(miss-sum))
	return nil
}

// coldCopy rebuilds a snapshot from its CSV under its own column types
// and registers it in a throwaway registry, so its columns carry the
// same injected statistics a live snapshot does and nothing else.
func coldCopy(snap *dataset.Table) (*dataset.Table, error) {
	var buf bytes.Buffer
	if err := snap.WriteCSV(&buf); err != nil {
		return nil, err
	}
	types := map[string]dataset.ColType{}
	for _, c := range snap.Columns {
		types[c.Name] = c.Type
	}
	t, err := dataset.FromCSVWithTypes(snap.Name, &buf, types)
	if err != nil {
		return nil, err
	}
	reg := registry.New(registry.Config{Obs: obs.NewRegistry()})
	if _, err := reg.Register(snap.Name, t); err != nil {
		return nil, err
	}
	cold, _ := reg.Snapshot(snap.Name)
	if cold.Fingerprint() != snap.Fingerprint() {
		return nil, fmt.Errorf("replay: cold copy of %s has fingerprint %s, snapshot %s", snap.Name, cold.Fingerprint(), snap.Fingerprint())
	}
	return cold, nil
}

func (r *replay) search(i int, ds, q string, k int) error {
	root, snap, _, err := r.use(i, load.OpSearch, ds)
	if err != nil {
		return err
	}
	sp := r.tr.begin("deepeye.SearchCtx", i, root)
	_, err = r.sys.SearchCtx(r.ctx, snap, q, k)
	r.tr.end(sp)
	r.tr.end(root)
	return err
}

func (r *replay) query(i int, ds, q string) error {
	root, snap, _, err := r.use(i, load.OpQuery, ds)
	if err != nil {
		return err
	}
	sp := r.tr.begin("deepeye.QueryCtx", i, root)
	_, err = r.sys.QueryCtx(r.ctx, snap, q)
	r.tr.end(sp)
	r.tr.end(root)
	return err
}

func (r *replay) ask(i int, ds, q string, k int) error {
	root, snap, _, err := r.use(i, load.OpNLQ, ds)
	if err != nil {
		return err
	}
	sp := r.tr.begin("nlq.Parse", i, root)
	res, err := nlq.Parse(q, nlq.SchemaFromTable(snap), nlq.Options{})
	r.tr.end(sp)
	if err != nil {
		return err
	}
	r.add("nlq.candidates", float64(len(res.Candidates)))
	sp = r.tr.begin("deepeye.AskCtx", i, root)
	_, err = r.sys.AskCtx(r.ctx, snap, q, k)
	r.tr.end(sp)
	r.tr.end(root)
	return err
}

// append parses the dataset's next batch, applies it through the
// registry, then journals the same rows to a scratch WAL on the same
// disk: the registry journals inside Append, so the WAL's own cost is
// timed through its public Append on an identical record.
func (r *replay) append(i int, ds string) error {
	in := r.w.byName[ds]
	_, body := r.rows[ds].batch(in.spec.AppendRows, in.spec.Cols)
	root := r.tr.begin("op.append", i, -1)
	sp := r.tr.begin("dataset.ReadRows", i, root)
	rows, err := dataset.ReadRows(bytes.NewReader(body), false, dataset.ReadLimits{})
	r.tr.end(sp)
	if err != nil {
		return err
	}
	sp = r.tr.begin("registry.Append", i, root)
	res, err := r.reg.Append(ds, rows)
	r.tr.end(sp)
	r.tr.end(root)
	if err != nil {
		return err
	}
	sp = r.tr.begin("wal.Log.Append", i, -1)
	err = r.scratch.Append(&wal.Record{Op: wal.OpAppend, Name: ds, Epoch: res.Epoch, RawRows: rows, Fingerprint: res.Fingerprint})
	r.tr.end(sp)
	return err
}

func (r *replay) register(i int, name string, csv []byte) error {
	root := r.tr.begin("op.register", i, -1)
	sp := r.tr.begin("dataset.FromCSV", i, root)
	t, err := dataset.FromCSV(name, bytes.NewReader(csv))
	r.tr.end(sp)
	if err != nil {
		return err
	}
	sp = r.tr.begin("registry.Register", i, root)
	_, err = r.reg.Register(name, t)
	r.tr.end(sp)
	r.tr.end(root)
	return err
}

// probeReps is how many times a probe repeats a call whose median it
// reports.
const probeReps = 5

// probe exercises, on the first dataset, every layer the mix never
// reached: a cold top-k (on each dataset not ranked yet) and warm
// re-asks, a search, a question, and — last, because it changes the
// data — appends.
func (r *replay) probe() error {
	ds := r.w.datasets[0]
	name := ds.spec.Name
	if len(r.samples["deepeye.topk_miss_ms"]) == 0 {
		for _, d := range r.w.datasets {
			if err := r.topk(-1, d.spec.Name, 5); err != nil {
				return err
			}
		}
	}
	for len(r.samples["cache.hit_us"]) < probeReps {
		if err := r.topk(-1, name, 5); err != nil {
			return err
		}
	}
	if r.spanCount("deepeye.SearchCtx") == 0 {
		if err := r.search(-1, name, defaultSearch, 5); err != nil {
			return err
		}
	}
	if len(r.samples["nlq.candidates"]) == 0 {
		if err := r.ask(-1, name, ds.questions[0], 5); err != nil {
			return err
		}
	}
	for r.spanCount("registry.Append") < probeReps {
		if err := r.append(-1, name); err != nil {
			return err
		}
	}
	return nil
}

func (r *replay) spanCount(name string) int {
	n := 0
	for _, s := range r.tr.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// layerMetrics reduces the replay to its per-layer values: medians of
// span self times and of the recorded samples.
func (r *replay) layerMetrics() (map[string]float64, error) {
	self := r.tr.selfTimes()
	med := func(v []float64) float64 { return median(append([]float64(nil), v...)) }
	out := map[string]float64{}
	for metric, spanName := range spanMetrics {
		v := self[spanName]
		if len(v) == 0 {
			return nil, fmt.Errorf("replay: no %s spans for %s", spanName, metric)
		}
		out[metric] = med(v) / unitNs(metric)
	}
	for metric, v := range r.samples {
		out[metric] = med(v)
	}
	out["server.transport_ms"] = (med(self["http.Client.Do"]) - med(self["server.Handler.ServeHTTP"])) / 1e6
	return out, nil
}

// spanMetrics maps per-layer time metrics to the span they are read off.
var spanMetrics = map[string]string{
	"rules.enumerate_ms":     "rules.EnumerateQueriesCtx",
	"vizql.execute_ms":       "vizql.ExecuteAllParallelCtx",
	"vizql.dedupe_ms":        "vizql.Dedupe",
	"rank.factors_ms":        "rank.ComputeFactorsWorkersCtx",
	"rank.order_ms":          "rank.OrderCtx",
	"cache.prime_ms":         "cache.PrimeTable",
	"deepeye.search_miss_ms": "deepeye.SearchCtx",
	"server.handler_us":      "server.Handler.ServeHTTP",
	"server.encode_us":       "server.encode",
	"registry.use_us":        "registry.Use",
	"dataset.parse_us":       "dataset.ReadRows",
	"registry.append_us":     "registry.Append",
	"wal.append_us":          "wal.Log.Append",
	"nlq.parse_us":           "nlq.Parse",
}

// unitNs is the nanoseconds in one unit of a metric named *_ms or *_us.
func unitNs(metric string) float64 {
	switch {
	case strings.HasSuffix(metric, "_us"):
		return 1e3
	case strings.HasSuffix(metric, "_ms"):
		return 1e6
	}
	return 1
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/load"
)

// requestTimeout bounds one request; the run's phases only stop issuing.
const requestTimeout = 30 * time.Second

// mirror is the client's model of one scenario dataset: a rolling
// fingerprint fed the same cells the server ingests, and every
// (epoch, fingerprint) pair the server has acknowledged for it.
type mirror struct {
	writeMu    sync.Mutex // serializes appends so the mirror sees the server's apply order
	cols       []*dataset.Column
	hasher     *dataset.Hasher
	gen        *rowGen
	rows       int
	appendRows int

	last  atomic.Uint64 // newest acknowledged epoch: the read-your-writes token
	mu    sync.Mutex
	acked map[uint64]string
}

func newMirror(ds *dsInput) *mirror {
	t := ds.table
	m := &mirror{
		cols: t.Columns, hasher: dataset.NewHasher(t.Columns), gen: newRowGen(ds.appendSeed),
		rows: t.NumRows(), appendRows: ds.spec.AppendRows, acked: map[uint64]string{},
	}
	for i := 0; i < t.NumRows(); i++ {
		for _, c := range t.Columns {
			m.hasher.WriteCell(c.RawAt(i), c.IsNull(i))
		}
	}
	return m
}

func (m *mirror) ack(epoch uint64, fp string) {
	m.mu.Lock()
	m.acked[epoch] = fp
	m.mu.Unlock()
	m.last.Store(epoch)
}

func (m *mirror) ackedAt(epoch uint64) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fp, ok := m.acked[epoch]
	return fp, ok
}

// echo is the identity one read response reported.
type echo struct {
	ds    string
	epoch uint64
	fp    string
}

// dispatcher sends the workload's requests and checks every response it
// can: register and append fingerprints against the client mirror,
// each read's echoed (epoch, fingerprint) against the pairs the mirror
// acknowledged, repeated read bodies against the first answer when the
// mix never writes, and per-route request counts against the servers'
// own counters.
type dispatcher struct {
	w       *workload
	ops     *opStream
	urls    []string
	hc      *http.Client
	rr      atomic.Uint64
	stable  bool
	mirrors map[string]*mirror

	mu       sync.Mutex
	routes   map[string]int
	bodies   map[string][]byte // stable mixes: the first body per read key
	echoes   []echo
	ephs     map[int]chan struct{} // closed once ephemeral dataset id's register is answered
	failures []string
	failed   int
	scrapes  int
}

// failLogCap bounds the failure detail kept; the count stays exact.
const failLogCap = 20

func newDispatcher(w *workload, ops *opStream, urls []string, inflight int) *dispatcher {
	d := &dispatcher{
		w: w, ops: ops, urls: urls, stable: w.readOnly() && len(urls) == 1,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: inflight, MaxConnsPerHost: inflight, DisableCompression: true,
		}},
		mirrors: map[string]*mirror{}, routes: map[string]int{}, bodies: map[string][]byte{},
		ephs: map[int]chan struct{}{},
	}
	for _, ds := range w.datasets {
		d.mirrors[ds.spec.Name] = newMirror(ds)
	}
	return d
}

func (d *dispatcher) close() { d.hc.CloseIdleConnections() }

func (d *dispatcher) fail(format string, args ...any) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed++
	if len(d.failures) < failLogCap {
		d.failures = append(d.failures, fmt.Sprintf(format, args...))
	}
	return false
}

// do sends one request to the next server round-robin and returns the
// status and body.
func (d *dispatcher) do(ctx context.Context, method, path string, q url.Values, body []byte) (int, []byte, error) {
	return d.doAt(ctx, d.urls[d.rr.Add(1)%uint64(len(d.urls))], method, path, q, body)
}

func (d *dispatcher) doAt(ctx context.Context, base, method, path string, q url.Values, body []byte) (int, []byte, error) {
	d.mu.Lock()
	d.routes[path]++
	d.mu.Unlock()
	u := base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// setUp registers every scenario dataset through the first server and
// checks the acknowledged fingerprint against the mirror.
func (d *dispatcher) setUp(ctx context.Context) error {
	for _, ds := range d.w.datasets {
		name := ds.spec.Name
		status, body, err := d.doAt(ctx, d.urls[0], http.MethodPost, "/datasets", url.Values{"name": {name}}, ds.csv)
		if err != nil || status != http.StatusCreated {
			return fmt.Errorf("registering %s: status %d: %v %.200s", name, status, err, body)
		}
		var id struct {
			Epoch       uint64 `json:"epoch"`
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(body, &id); err != nil {
			return fmt.Errorf("registering %s: %w", name, err)
		}
		m := d.mirrors[name]
		if want := m.hasher.Sum(); id.Fingerprint != want {
			return fmt.Errorf("registering %s: fingerprint %s, mirror expects %s", name, id.Fingerprint, want)
		}
		m.ack(id.Epoch, id.Fingerprint)
	}
	return nil
}

// prime sends every distinct read key once to every server, so the
// measured phases start with warm code paths and, on a mix that never
// writes, a cache that already holds every answer.
func (d *dispatcher) prime(ctx context.Context) error {
	for _, base := range d.urls {
		for _, o := range d.w.readKeys() {
			method, path, q := readTarget(o)
			status, body, err := d.doAt(ctx, base, method, path, q, nil)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("priming %s: status %d: %v %.200s", o.key(), status, err, body)
			}
		}
	}
	return nil
}

// prepare builds op i's payload and returns it ready to send.
func (d *dispatcher) prepare(ctx context.Context, i int) prepared {
	o := d.ops.at(i)
	switch o.kind {
	case load.OpAppend:
		return prepared{o.kind, func() bool { return d.appendRows(ctx, o) }}
	case load.OpRegister:
		csv, fp, err := d.w.ephInput(o)
		done := d.eph(o.eph)
		return prepared{o.kind, func() bool {
			defer close(done)
			if err != nil {
				return d.fail("register %s: generating: %v", ephName(o.eph), err)
			}
			return d.register(ctx, o, csv, fp)
		}}
	case load.OpDrop:
		registered := d.eph(o.eph)
		return prepared{o.kind, func() bool {
			select {
			case <-registered:
			case <-time.After(requestTimeout):
				return d.fail("drop %s: its register was never answered", ephName(o.eph))
			}
			return d.drop(ctx, o)
		}}
	}
	return prepared{o.kind, func() bool { return d.read(ctx, o) }}
}

// eph returns the channel closed once ephemeral dataset id's register
// has been answered; the drop that deletes it waits on it.
func (d *dispatcher) eph(id int) chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	ch := d.ephs[id]
	if ch == nil {
		ch = make(chan struct{})
		d.ephs[id] = ch
	}
	return ch
}

// readTarget maps a read op to its HTTP method, path and query.
func readTarget(o op) (string, string, url.Values) {
	path := "/datasets/" + o.ds + "/" + string(o.kind)
	q := url.Values{}
	if o.kind != load.OpTopK {
		q.Set("q", o.q)
	}
	if o.kind != load.OpQuery {
		q.Set("k", strconv.Itoa(o.k))
	}
	if o.kind == load.OpNLQ {
		return http.MethodPost, path, q
	}
	return http.MethodGet, path, q
}

func (d *dispatcher) read(ctx context.Context, o op) bool {
	method, path, q := readTarget(o)
	if len(d.urls) > 1 {
		if e := d.mirrors[o.ds].last.Load(); e > 0 {
			q.Set("min_epoch", strconv.FormatUint(e, 10))
		}
	}
	status, body, err := d.do(ctx, method, path, q, nil)
	if err != nil {
		return d.fail("%s: %v", o.key(), err)
	}
	if status != http.StatusOK {
		return d.fail("%s: status %d: %.200s", o.key(), status, body)
	}
	if o.kind != load.OpQuery {
		e, ok := echoOf(o.ds, body)
		if !ok {
			return d.fail("%s: response carries no fingerprint", o.key())
		}
		d.mu.Lock()
		d.echoes = append(d.echoes, e)
		d.mu.Unlock()
	}
	if d.stable {
		key := o.key()
		d.mu.Lock()
		first, seen := d.bodies[key]
		if !seen {
			d.bodies[key] = body
		}
		d.mu.Unlock()
		if seen && !bytes.Equal(first, body) {
			return d.fail("%s: body differs from the first answer to the same request", o.key())
		}
	}
	return true
}

// echoOf extracts the epoch and fingerprint a dataset read reports. The
// two fields close the response object, so a backwards scan finds them
// without decoding the charts (keeping the client's CPU off the
// server's cores); an absent epoch is the omitted zero.
func echoOf(ds string, body []byte) (echo, bool) {
	e := echo{ds: ds}
	const fpKey = `"fingerprint":"`
	i := bytes.LastIndex(body, []byte(fpKey))
	if i < 0 {
		return e, false
	}
	rest := body[i+len(fpKey):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return e, false
	}
	e.fp = string(rest[:j])
	const epKey = `"epoch":`
	if k := bytes.LastIndex(body, []byte(epKey)); k > i {
		digits := body[k+len(epKey):]
		n := 0
		for n < len(digits) && digits[n] >= '0' && digits[n] <= '9' {
			n++
		}
		v, err := strconv.ParseUint(string(digits[:n]), 10, 64)
		if err != nil {
			return e, false
		}
		e.epoch = v
	}
	return e, true
}

// appendRows posts the dataset's next generated batch and checks that
// the epoch advanced by one and the fingerprint equals the mirror's.
func (d *dispatcher) appendRows(ctx context.Context, o op) bool {
	m := d.mirrors[o.ds]
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	rows, body := m.gen.batch(m.appendRows, len(m.cols))
	status, resp, err := d.do(ctx, http.MethodPost, "/datasets/"+o.ds+"/rows", nil, body)
	if err != nil {
		return d.fail("append %s: %v", o.ds, err)
	}
	if status != http.StatusOK {
		return d.fail("append %s: status %d: %.200s", o.ds, status, resp)
	}
	var a struct {
		Rows        int    `json:"rows"`
		Epoch       uint64 `json:"epoch"`
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(resp, &a); err != nil {
		return d.fail("append %s: %v", o.ds, err)
	}
	for _, r := range rows {
		for j, c := range m.cols {
			m.hasher.WriteCell(r[j], c.CellIsNull(r[j]))
		}
	}
	m.rows += len(rows)
	prev := m.last.Load()
	want := m.hasher.Sum()
	m.ack(prev+1, want)
	switch {
	case a.Epoch != prev+1:
		return d.fail("append %s: epoch %d, want %d", o.ds, a.Epoch, prev+1)
	case a.Fingerprint != want || a.Rows != m.rows:
		return d.fail("append %s: fingerprint %s (%d rows), mirror expects %s (%d rows)", o.ds, a.Fingerprint, a.Rows, want, m.rows)
	}
	return true
}

func (d *dispatcher) register(ctx context.Context, o op, csv []byte, want string) bool {
	name := ephName(o.eph)
	status, body, err := d.do(ctx, http.MethodPost, "/datasets", url.Values{"name": {name}}, csv)
	if err != nil {
		return d.fail("register %s: %v", name, err)
	}
	if status != http.StatusCreated {
		return d.fail("register %s: status %d: %.200s", name, status, body)
	}
	var id struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(body, &id); err != nil {
		return d.fail("register %s: %v", name, err)
	}
	if id.Fingerprint != want {
		return d.fail("register %s: fingerprint %s, want %s", name, id.Fingerprint, want)
	}
	return true
}

func (d *dispatcher) drop(ctx context.Context, o op) bool {
	name := ephName(o.eph)
	status, body, err := d.do(ctx, http.MethodDelete, "/datasets/"+name, nil, nil)
	if err != nil {
		return d.fail("drop %s: %v", name, err)
	}
	if status != http.StatusOK {
		return d.fail("drop %s: status %d: %.200s", name, status, body)
	}
	return true
}

// verifyFinal asks every server for each scenario dataset's identity
// (carrying the read-your-writes token on a cluster) and compares it
// with the mirror, then checks every read echo against the pairs the
// mirror acknowledged. Echoes are checked only now because a read may
// legitimately see an epoch whose append acknowledgement was still in
// flight when the read was answered.
func (d *dispatcher) verifyFinal(ctx context.Context) {
	for _, ds := range d.w.datasets {
		name := ds.spec.Name
		m := d.mirrors[name]
		want, _ := m.ackedAt(m.last.Load())
		for _, base := range d.urls {
			var q url.Values
			if len(d.urls) > 1 {
				q = url.Values{"min_epoch": {strconv.FormatUint(m.last.Load(), 10)}}
			}
			status, body, err := d.doAt(ctx, base, http.MethodGet, "/datasets/"+name, q, nil)
			if err != nil || status != http.StatusOK {
				d.fail("final %s on %s: status %d: %v", name, base, status, err)
				continue
			}
			var id struct {
				Rows        int    `json:"rows"`
				Fingerprint string `json:"fingerprint"`
			}
			if err := json.Unmarshal(body, &id); err != nil {
				d.fail("final %s on %s: %v", name, base, err)
				continue
			}
			if id.Fingerprint != want || id.Rows != m.rows {
				d.fail("final %s on %s: fingerprint %s (%d rows), mirror expects %s (%d rows)",
					name, base, id.Fingerprint, id.Rows, want, m.rows)
			}
		}
	}
	for _, e := range d.echoes {
		if want, ok := d.mirrors[e.ds].ackedAt(e.epoch); !ok || want != e.fp {
			d.fail("read of %s echoed epoch %d fingerprint %s, never acknowledged", e.ds, e.epoch, e.fp)
		}
	}
}

// scrape fetches every server's /metrics page. Every scrape after the
// baseline is counted as a client request, because each server counts
// a scrape before rendering its page.
func (d *dispatcher) scrape(ctx context.Context) ([]*metricsPage, error) {
	d.mu.Lock()
	counted := d.scrapes > 0
	d.scrapes++
	d.mu.Unlock()
	pages := make([]*metricsPage, len(d.urls))
	for i, base := range d.urls {
		if counted {
			d.mu.Lock()
			d.routes["/metrics"]++
			d.mu.Unlock()
		}
		ctx, cancel := context.WithTimeout(ctx, requestTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
		if err != nil {
			cancel()
			return nil, err
		}
		resp, err := d.hc.Do(req)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("scraping %s: %w", base, err)
		}
		pages[i], err = parseMetrics(resp.Body)
		resp.Body.Close()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", base, err)
		}
	}
	return pages, nil
}

// reconcile compares the client's per-route request counts with the
// servers' own between two scrapes: Σ requests − Σ forwarded over every
// server must equal what the client sent, route by route (a forwarded
// or proxied request is counted on both servers it touches and flagged
// on the second). Peer-protocol routes under /cluster/ are server
// traffic and excluded.
func (d *dispatcher) reconcile(before, after []*metricsPage) {
	server := map[string]float64{}
	for i := range after {
		for route, v := range after[i].byRoute("deepeye_http_requests_total") {
			server[route] += v - before[i].byRoute("deepeye_http_requests_total")[route]
		}
		for route, v := range after[i].byRoute("deepeye_http_forwarded_requests_total") {
			server[route] -= v - before[i].byRoute("deepeye_http_forwarded_requests_total")[route]
		}
	}
	d.mu.Lock()
	client := make(map[string]int, len(d.routes))
	for r, n := range d.routes {
		client[r] = n
	}
	d.mu.Unlock()
	routes := map[string]bool{}
	for r := range client {
		routes[r] = true
	}
	for r, v := range server {
		if v != 0 && !strings.HasPrefix(r, "/cluster/") {
			routes[r] = true
		}
	}
	var names []string
	for r := range routes {
		names = append(names, r)
	}
	sort.Strings(names)
	for _, r := range names {
		if int(server[r]) != client[r] {
			d.fail("reconcile %s: client sent %d, servers counted %.0f", r, client[r], server[r])
		}
	}
}

// resetRoutes starts the reconciliation window: requests sent before
// the baseline scrape (set-up, priming) are not in its deltas.
func (d *dispatcher) resetRoutes() {
	d.mu.Lock()
	d.routes = map[string]int{}
	d.mu.Unlock()
}

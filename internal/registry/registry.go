// Package registry is DeepEye's live dataset subsystem: named,
// append-only datasets held in memory under a byte budget with
// TTL + LRU eviction, each maintained incrementally — online
// per-column statistics (min/max/mean/M2 via Welford, distinct counts
// via an exact set with a HyperLogLog fallback, null counts) and a
// rolling FNV-128a content fingerprint extended per appended cell
// that provably equals a full recompute on the grown table.
//
// The paper's pipeline assumes a static table: every run re-reads,
// re-types, and re-profiles the full dataset. Production traffic is
// the opposite shape — the same dataset is queried thousands of times
// while rows keep arriving — so the registry puts a stateful layer
// under the stateless pipeline: POST rows in, and every subsequent
// recommendation sees them without a re-upload or a full re-profile.
//
// Reads are snapshot-consistent: Snapshot returns an immutable epoch
// view (fresh column headers over copy-on-write tails of the live
// storage), so an in-flight TopK never sees a torn table, and the
// epoch's fingerprint keys the result cache exactly as a cold upload
// of the same content would. When a dataset's content moves on (append,
// delete, eviction, expiry), the retired fingerprint is reported to
// the OnRetire hook so the serving cache can drop just that dataset's
// entries instead of purging globally.
//
// Gauges and counters are exported on the obs registry (and thus
// GET /metrics) under deepeye_registry_*.
package registry

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/obs"
	"github.com/deepeye/deepeye/internal/wal"
)

// Metric names exported on the obs registry.
const (
	metricDatasets  = "deepeye_registry_datasets"
	metricBytes     = "deepeye_registry_bytes"
	metricEvictions = "deepeye_registry_evictions_total"
	metricAppends   = "deepeye_registry_appends_total"
	metricRows      = "deepeye_registry_appended_rows_total"
	metricEpochs    = "deepeye_registry_snapshot_epochs_total"
	metricSnapshots = "deepeye_registry_snapshots_total"
	metricLookups   = "deepeye_registry_lookups_total"
	metricReadOnly  = "deepeye_registry_read_only"
)

// Sentinel errors callers map to API responses.
var (
	ErrNotFound = errors.New("registry: dataset not found")
	ErrExists   = errors.New("registry: dataset already exists")
	// ErrReadOnly marks mutations rejected because a durability (WAL)
	// write failed: the registry keeps serving reads from memory but
	// refuses to acknowledge changes it cannot make durable. Servers
	// map it to 503 with a Retry-After.
	ErrReadOnly = errors.New("registry: read-only mode (durability failure)")
)

// Config configures a Registry.
type Config struct {
	// MaxBytes is the byte budget across all datasets; exceeding it
	// evicts least-recently-used datasets (never the one currently
	// being registered or appended to). 0 means unlimited.
	MaxBytes int64
	// TTL expires datasets not accessed (read or appended) within the
	// window; expiry is enforced lazily on registry operations.
	// 0 disables expiry.
	TTL time.Duration
	// OnRetire, when set, is called with each content fingerprint the
	// registry retires (append advanced it; delete/evict/expiry removed
	// the dataset). The serving layer uses it for targeted cache
	// invalidation. Called outside registry locks.
	OnRetire func(fingerprint string)
	// Obs receives the registry's metrics; nil uses obs.Default.
	Obs *obs.Registry
	// Now overrides the clock (TTL tests); nil uses time.Now.
	Now func() time.Time
}

// Registry holds live datasets by name. Safe for concurrent use.
type Registry struct {
	cfg Config
	now func() time.Time

	mu     sync.Mutex
	ll     *list.List // front = most recently used; values are *Dataset
	byName map[string]*list.Element
	bytes  int64

	// log, when attached, journals every mutation before it is applied
	// (see AttachLog); compactBytes triggers snapshot compaction when
	// the WAL outgrows it. readOnly holds the degradation reason after
	// a durability failure (nil while writable); it is atomic so read
	// paths can check it lock-free.
	log          *wal.Log
	compactBytes int64
	readOnly     atomic.Pointer[string]

	// onCommit, when set (SetOnCommit, before the registry is shared),
	// observes every locally committed mutation as its WAL record, in
	// apply order, under the lock that serialized it. The cluster layer
	// enqueues records for replication here. Recovery replay and
	// ApplyReplicated never fire it.
	onCommit func(*wal.Record)

	datasetsG, bytesG, readOnlyG                         *obs.Gauge
	evictionsLRU, evictionsTTL                           *obs.Counter
	appends, appendedRows, epochs, snapshotsMat, lookups *obs.Counter
}

// New builds an empty registry.
func New(cfg Config) *Registry {
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Registry{
		cfg: cfg, now: now,
		ll: list.New(), byName: make(map[string]*list.Element),
		datasetsG:    reg.Gauge(metricDatasets, "Live datasets currently registered."),
		bytesG:       reg.Gauge(metricBytes, "Estimated bytes held by live datasets."),
		readOnlyG:    reg.Gauge(metricReadOnly, "1 while the registry is in read-only degradation."),
		evictionsLRU: reg.Counter(metricEvictions, "Datasets evicted.", "reason", "lru"),
		evictionsTTL: reg.Counter(metricEvictions, "Datasets evicted.", "reason", "ttl"),
		appends:      reg.Counter(metricAppends, "Append batches ingested."),
		appendedRows: reg.Counter(metricRows, "Rows ingested via append."),
		epochs:       reg.Counter(metricEpochs, "Snapshot epoch advances (one per content change)."),
		snapshotsMat: reg.Counter(metricSnapshots, "Epoch snapshots materialized."),
		lookups:      reg.Counter(metricLookups, "Dataset lookups."),
	}
}

// Clock supplies the registry's notion of now. TTL expiry and LRU
// bookkeeping read it on every operation, so injecting a fake clock
// makes eviction behavior fully deterministic in tests.
type Clock func() time.Time

// WithClock replaces the registry's clock and returns the registry for
// chaining. Call before the registry is shared across goroutines.
func (r *Registry) WithClock(c Clock) *Registry {
	if c != nil {
		r.now = c
	}
	return r
}

// ReadOnly reports whether the registry is in read-only degradation
// and, if so, why. Reads keep being served from memory; mutations fail
// with ErrReadOnly until the process is restarted against healthy
// storage.
func (r *Registry) ReadOnly() (reason string, ro bool) {
	if p := r.readOnly.Load(); p != nil {
		return *p, true
	}
	return "", false
}

// enterReadOnly flips the registry into read-only degradation. Safe to
// call with any lock held (the flag is atomic) and idempotent: the
// first reason wins.
func (r *Registry) enterReadOnly(cause error) {
	reason := cause.Error()
	if r.readOnly.CompareAndSwap(nil, &reason) {
		r.readOnlyG.Set(1)
	}
}

// roError wraps the durability failure into the sentinel mutations
// return while degraded.
func (r *Registry) roError() error {
	reason, _ := r.ReadOnly()
	return fmt.Errorf("%w: %s", ErrReadOnly, reason)
}

// journal appends one record to the attached WAL (no-op when detached)
// and flips to read-only on failure. Callers must not apply the
// mutation in memory when journal fails.
func (r *Registry) journal(rec *wal.Record) error {
	if r.log == nil {
		return nil
	}
	if err := r.log.Append(rec); err != nil {
		r.enterReadOnly(err)
		return err
	}
	return nil
}

// journalFramed appends pre-encoded records (see wal.Encode) in one
// durable write — one fsync for the whole batch — flipping to
// read-only on failure. A nil/empty batch is a no-op.
func (r *Registry) journalFramed(frames ...wal.Framed) error {
	if r.log == nil || len(frames) == 0 {
		return nil
	}
	if err := r.log.AppendFramed(frames...); err != nil {
		r.enterReadOnly(err)
		return err
	}
	return nil
}

// Register adopts a built table as a new live dataset under name.
// The table's columns are cloned, so the caller's table stays
// immutable. Registering over an existing name fails with ErrExists.
func (r *Registry) Register(name string, t *dataset.Table) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("registry: empty dataset name")
	}
	if t == nil || t.NumCols() == 0 {
		return nil, fmt.Errorf("registry: dataset %q has no columns", name)
	}
	if _, ro := r.ReadOnly(); ro {
		return nil, r.roError()
	}
	now := r.now()
	d := newDataset(name, t, now) // O(cells); built outside the registry lock
	// Serialize the register record — the dataset's entire content —
	// before taking the registry lock: the dataset is not shared yet,
	// and encoding a large table under r.mu would stall every registry
	// operation, reads included. (r.log is read unlocked here under the
	// same contract as Dataset.append: AttachLog runs before the
	// registry is shared.)
	var framed wal.Framed
	var rec *wal.Record
	if r.log != nil || r.onCommit != nil {
		rec = d.registerRecordLocked()
	}
	if r.log != nil {
		f, err := wal.Encode(rec)
		if err != nil {
			return nil, err
		}
		framed = f
	}
	r.mu.Lock()
	retired := r.sweepExpiredLocked(now)
	if _, exists := r.byName[name]; exists {
		r.mu.Unlock()
		r.retire(retired)
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	// Journal before inserting: the registration is acknowledged only
	// once it is durable. The record carries the full content (schema,
	// cells, null flags) plus the rolling fingerprint replay verifies.
	if err := r.journalFramed(framed); err != nil {
		r.mu.Unlock()
		r.retire(retired)
		return nil, fmt.Errorf("%w: %v", ErrReadOnly, err)
	}
	r.byName[name] = r.ll.PushFront(d)
	r.bytes += d.bytes.Load()
	r.epochs.Inc()
	if r.onCommit != nil {
		r.onCommit(rec)
	}
	retired = append(retired, r.evictOverBudgetLocked(d)...)
	r.syncGaugesLocked()
	r.mu.Unlock()
	r.retire(retired)
	r.maybeCompact()
	return d, nil
}

// Get returns the named dataset, refreshing its LRU/TTL position.
func (r *Registry) Get(name string) (*Dataset, bool) {
	r.mu.Lock()
	d, ok, retired := r.getLocked(name)
	r.mu.Unlock()
	r.retire(retired)
	return d, ok
}

func (r *Registry) getLocked(name string) (*Dataset, bool, []string) {
	r.lookups.Inc()
	now := r.now()
	retired := r.sweepExpiredLocked(now)
	el, ok := r.byName[name]
	if !ok {
		return nil, false, retired
	}
	d := el.Value.(*Dataset)
	r.ll.MoveToFront(el)
	d.lastAccess.Store(now.UnixNano())
	return d, true, retired
}

// Append ingests rows into the named dataset (see Dataset.append for
// the row semantics), refreshes its LRU/TTL position, applies the
// byte budget, and reports the retired fingerprint to OnRetire.
func (r *Registry) Append(name string, rows [][]string) (AppendResult, error) {
	if _, ro := r.ReadOnly(); ro {
		return AppendResult{}, r.roError()
	}
	r.mu.Lock()
	d, ok, retired := r.getLocked(name)
	r.mu.Unlock()
	if !ok {
		r.retire(retired)
		return AppendResult{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	res, delta, oldFp, err := d.append(rows, r)
	if err != nil {
		r.retire(retired)
		return AppendResult{}, fmt.Errorf("%w: %v", ErrReadOnly, err)
	}
	r.mu.Lock()
	if !d.retired.Load() { // evicted while we appended: skip accounting
		d.bytes.Add(delta)
		r.bytes += delta
		if oldFp != "" {
			r.appends.Inc()
			r.appendedRows.Add(res.Appended)
			r.epochs.Inc()
			retired = append(retired, oldFp)
		}
		retired = append(retired, r.evictOverBudgetLocked(d)...)
		r.syncGaugesLocked()
	} else if oldFp != "" {
		retired = append(retired, oldFp)
	}
	r.mu.Unlock()
	r.retire(retired)
	r.maybeCompact()
	return res, nil
}

// Snapshot returns the current epoch view of the named dataset.
func (r *Registry) Snapshot(name string) (*dataset.Table, bool) {
	d, ok := r.Get(name)
	if !ok {
		return nil, false
	}
	return r.snapshotOf(d), true
}

// Use returns the named dataset's snapshot together with the Info of
// that same epoch — the one-call form the serving layer uses per
// request, so a response never echoes an epoch or fingerprint its
// charts were not computed on.
func (r *Registry) Use(name string) (*dataset.Table, Info, error) {
	d, ok := r.Get(name)
	if !ok {
		return nil, Info{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	t, info, fresh := d.use()
	if fresh {
		r.snapshotsMat.Inc()
	}
	return t, info, nil
}

// snapshotOf materializes d's snapshot, counting first-per-epoch
// materializations.
func (r *Registry) snapshotOf(d *Dataset) *dataset.Table {
	d.mu.Lock()
	fresh := d.snap == nil
	t := d.snapshotLocked()
	d.mu.Unlock()
	if fresh {
		r.snapshotsMat.Inc()
	}
	return t
}

// Delete removes the named dataset, retiring its fingerprint. In
// read-only degradation it fails with ErrReadOnly (a delete is a
// mutation the journal could not record).
func (r *Registry) Delete(name string) (bool, error) {
	if _, ro := r.ReadOnly(); ro {
		return false, r.roError()
	}
	r.mu.Lock()
	el, ok := r.byName[name]
	var retired []string
	if ok {
		rec := &wal.Record{Op: wal.OpDrop, Name: name, Reason: wal.DropDelete}
		if err := r.journal(rec); err != nil {
			r.mu.Unlock()
			return false, fmt.Errorf("%w: %v", ErrReadOnly, err)
		}
		retired = append(retired, r.removeLocked(el))
		if r.onCommit != nil {
			r.onCommit(rec)
		}
		r.syncGaugesLocked()
	}
	r.mu.Unlock()
	r.retire(retired)
	return ok, nil
}

// List describes every live dataset, most recently used first.
func (r *Registry) List() []Info {
	r.mu.Lock()
	retired := r.sweepExpiredLocked(r.now())
	ds := make([]*Dataset, 0, r.ll.Len())
	for el := r.ll.Front(); el != nil; el = el.Next() {
		ds = append(ds, el.Value.(*Dataset))
	}
	r.mu.Unlock()
	r.retire(retired)
	out := make([]Info, len(ds))
	for i, d := range ds {
		out[i] = d.Info()
	}
	return out
}

// Len returns the number of live datasets.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ll.Len()
}

// Bytes returns the estimated bytes held across datasets.
func (r *Registry) Bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// removeLocked unlinks a dataset and returns its retired fingerprint.
func (r *Registry) removeLocked(el *list.Element) string {
	d := el.Value.(*Dataset)
	r.ll.Remove(el)
	delete(r.byName, d.name)
	d.retired.Store(true)
	r.bytes -= d.bytes.Load()
	return d.Fingerprint()
}

// sweepExpiredLocked expires datasets whose last access predates the
// TTL window, returning their retired fingerprints. The LRU list is
// access-ordered, so expired datasets cluster at the back and the
// sweep stops at the first live one — replicas are skipped outright
// (their leader decides expiry and replicates the drop), which is why
// the loop continues past them instead of breaking.
func (r *Registry) sweepExpiredLocked(now time.Time) []string {
	if r.cfg.TTL <= 0 {
		return nil
	}
	if _, ro := r.ReadOnly(); ro {
		// Degraded: expiry is a mutation the journal cannot record, so
		// datasets are pinned until restart. Reads stay correct.
		return nil
	}
	cutoff := now.Add(-r.cfg.TTL).UnixNano()
	var victims []*list.Element
	for el := r.ll.Back(); el != nil; el = el.Prev() {
		d := el.Value.(*Dataset)
		if d.replica.Load() {
			continue
		}
		if d.lastAccess.Load() > cutoff {
			break
		}
		victims = append(victims, el)
	}
	return r.dropBatchLocked(victims, wal.DropTTL, r.evictionsTTL)
}

// evictOverBudgetLocked evicts least-recently-used datasets (never
// keep) until the byte budget is met, returning retired fingerprints.
// A sole dataset larger than the whole budget is allowed to stay: the
// budget guides eviction of other datasets, it does not reject data.
func (r *Registry) evictOverBudgetLocked(keep *Dataset) []string {
	if r.cfg.MaxBytes <= 0 || r.bytes <= r.cfg.MaxBytes {
		return nil
	}
	var victims []*list.Element
	projected := r.bytes
	for el := r.ll.Back(); el != nil && projected > r.cfg.MaxBytes; el = el.Prev() {
		d := el.Value.(*Dataset)
		if d == keep {
			break // never evict the dataset being served/grown
		}
		if d.replica.Load() {
			continue // the leader owns this dataset's eviction decision
		}
		victims = append(victims, el)
		projected -= d.bytes.Load()
	}
	return r.dropBatchLocked(victims, wal.DropLRU, r.evictionsLRU)
}

// dropBatchLocked journals the victims' drop records as one durable
// batch — one write, one fsync, however many datasets the sweep took —
// then removes them, returning the retired fingerprints. On a journal
// failure (the registry is read-only now) every victim stays live: a
// drop that is not durable must not be applied, or the dataset would
// resurrect on restart.
func (r *Registry) dropBatchLocked(victims []*list.Element, reason wal.DropReason, evictions *obs.Counter) []string {
	if len(victims) == 0 {
		return nil
	}
	recs := make([]*wal.Record, len(victims))
	for i, el := range victims {
		recs[i] = &wal.Record{Op: wal.OpDrop, Name: el.Value.(*Dataset).name, Reason: reason}
	}
	if r.log != nil {
		frames := make([]wal.Framed, len(victims))
		for i, rec := range recs {
			f, err := wal.Encode(rec)
			if err != nil {
				return nil // unreachable: drop records always encode
			}
			frames[i] = f
		}
		if err := r.journalFramed(frames...); err != nil {
			return nil
		}
	}
	retired := make([]string, 0, len(victims))
	for _, el := range victims {
		retired = append(retired, r.removeLocked(el))
		evictions.Inc()
	}
	if r.onCommit != nil {
		for _, rec := range recs {
			r.onCommit(rec)
		}
	}
	r.syncGaugesLocked()
	return retired
}

func (r *Registry) syncGaugesLocked() {
	r.datasetsG.Set(int64(r.ll.Len()))
	r.bytesG.Set(r.bytes)
}

// retire invokes the OnRetire hook for each fingerprint. Runs
// unlocked so the hook (which takes cache shard locks) cannot
// deadlock with registry operations.
func (r *Registry) retire(fps []string) {
	if r.cfg.OnRetire == nil {
		return
	}
	for _, fp := range fps {
		r.cfg.OnRetire(fp)
	}
}

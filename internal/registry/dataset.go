package registry

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/obs"
	"github.com/deepeye/deepeye/internal/wal"
)

// Dataset is one live, append-only dataset: typed column storage the
// registry grows in place, per-column online statistics, and a rolling
// content fingerprint extended per appended cell. Reads never touch
// the live storage directly — Snapshot returns an immutable epoch view
// — so an in-flight recommendation can never observe a torn table.
type Dataset struct {
	name   string
	mu     sync.Mutex // guards everything below
	cols   []*dataset.Column
	stats  []*colTracker
	hasher *dataset.Hasher
	fp     string // rolling digest at the current epoch
	nRows  int
	ragged int // cumulative over-wide rows truncated at ingest
	epoch  uint64
	snap   *dataset.Table // memoized snapshot for the current epoch

	// bytes and retired are atomics because the registry reads them
	// under its own lock while appends update them under d.mu; access
	// and creation times are atomics for the same reason (TTL sweeps
	// read them lock-free).
	bytes      atomic.Int64
	retired    atomic.Bool
	createdAt  time.Time
	lastAccess atomic.Int64 // unix nanos

	// replica marks a dataset this node follows rather than leads: its
	// content changes only through ApplyReplicated, and local TTL/LRU
	// sweeps skip it — the leader's own drops replicate instead, so
	// eviction decisions are made exactly once per dataset cluster-wide.
	replica atomic.Bool
}

// ColumnInfo is the live profile of one column, maintained online.
type ColumnInfo struct {
	Name          string
	Type          dataset.ColType
	NonNull       int
	Nulls         int
	Distinct      int
	DistinctExact bool // false once the HyperLogLog fallback engaged
	Min, Max      float64
	Mean, Std     float64 // Welford accumulator (numeric/temporal only)
}

// Info is a point-in-time description of a dataset.
type Info struct {
	Name        string
	Rows        int
	Cols        int
	Epoch       uint64
	Fingerprint string
	Bytes       int64
	RaggedRows  int
	Replica     bool // true on nodes that follow this dataset's leader
	CreatedAt   time.Time
	LastAccess  time.Time
	Columns     []ColumnInfo
}

// AppendResult reports one append batch.
type AppendResult struct {
	Dataset     string
	Appended    int    // rows ingested by this call
	Rows        int    // total rows after the append
	Epoch       uint64 // epoch after the append
	Fingerprint string // rolling fingerprint after the append
	Ragged      int    // over-wide rows truncated in this call
	RaggedTotal int    // cumulative over-wide rows
}

// newDataset adopts a built table as live storage. The source table's
// columns are cloned (three-index slices force copy-on-first-append),
// so the caller's table stays immutable; the trackers and the rolling
// hasher are seeded with every existing cell.
func newDataset(name string, t *dataset.Table, now time.Time) *Dataset {
	d := &Dataset{name: name, nRows: t.NumRows(), ragged: t.RaggedRows, createdAt: now}
	d.lastAccess.Store(now.UnixNano())
	d.cols = make([]*dataset.Column, len(t.Columns))
	d.stats = make([]*colTracker, len(t.Columns))
	var bytes int64
	for j, src := range t.Columns {
		c := src.Freeze(src.Len())
		d.cols[j] = c
		tr := newColTracker()
		for i := 0; i < c.Len(); i++ {
			raw, null := c.RawAt(i), c.IsNull(i)
			v, hasNum := c.NumericAt(i)
			tr.observe(raw, null, v, hasNum)
			bytes += cellBytes(raw, c.Type)
		}
		d.stats[j] = tr
	}
	d.hasher = dataset.NewHasher(d.cols)
	for i := 0; i < d.nRows; i++ {
		for _, c := range d.cols {
			d.hasher.WriteCell(c.RawAt(i), c.IsNull(i))
		}
	}
	d.fp = d.hasher.Sum()
	d.bytes.Store(bytes)
	return d
}

// cellBytes estimates the live-storage cost of one cell: the raw
// string's bytes plus header/null/parsed-value overhead. The estimate
// feeds the registry's byte budget, not any correctness path.
func cellBytes(raw string, typ dataset.ColType) int64 {
	b := int64(len(raw)) + 17 // string header + null flag
	switch typ {
	case dataset.Numerical:
		b += 8
	case dataset.Temporal:
		b += 24
	}
	return b
}

// append ingests a batch of raw rows: each row's cells are matched
// positionally to the schema, short rows pad with nulls, over-wide
// rows are truncated and counted. Incremental maintenance happens
// per cell — column storage, online trackers, and the rolling
// fingerprint all advance together — and the epoch bumps once per
// batch, retiring the memoized snapshot. It returns the result, the
// byte-budget delta, and the fingerprint the batch retired ("" when
// rows is empty and nothing changed).
//
// When reg carries a WAL, the batch is journaled — with its previewed
// post-state fingerprint, computed on a clone of the rolling hasher —
// and made durable BEFORE any storage mutates, so an acknowledged
// append is never lost and a failed journal write leaves the dataset
// untouched (the registry flips to read-only). Pass reg == nil (or a
// registry with no log) for the undurable path.
func (d *Dataset) append(rows [][]string, reg *Registry) (AppendResult, int64, string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(rows) == 0 {
		return AppendResult{Dataset: d.name, Rows: d.nRows, Epoch: d.epoch,
			Fingerprint: d.fp, RaggedTotal: d.ragged}, 0, "", nil
	}
	// Skip journaling for a retired dataset: its drop record is already
	// in the WAL (or about to be), and an OpAppend landing after it
	// would be dead weight at best. The check narrows — not closes —
	// the drop-vs-append ordering window; the record's pre-state
	// fingerprint is what lets replay skip an append that still slips
	// in after a drop + re-register of the same name. The in-memory
	// apply below is harmless either way: a retired dataset is
	// unreachable.
	var rec *wal.Record
	if reg != nil && !d.retired.Load() && (reg.log != nil || reg.onCommit != nil) {
		rec = d.appendRecordLocked(rows)
		if reg.log != nil {
			if err := reg.journal(rec); err != nil {
				return AppendResult{}, 0, "", err
			}
		}
	}
	res, delta, oldFp := d.appendLocked(rows)
	// Commit hook fires under d.mu, after the batch applied, so the
	// replication shipper observes every mutation of this dataset in
	// apply order.
	if rec != nil && reg.onCommit != nil {
		reg.onCommit(rec)
	}
	return res, delta, oldFp, nil
}

// appendLocked is append's apply half: ingest the batch into live
// storage, advance trackers/fingerprint/epoch, and return the result,
// the byte delta, and the retired pre-batch fingerprint. Caller holds
// d.mu and has already journaled (or decided not to).
func (d *Dataset) appendLocked(rows [][]string) (AppendResult, int64, string) {
	stop := obs.StageTimer(obs.StageAppend)
	defer stop()
	oldFp := d.fp
	var delta int64
	raggedBatch := 0
	for _, row := range rows {
		if len(row) > len(d.cols) {
			raggedBatch++
		}
		for j, c := range d.cols {
			cell := ""
			if j < len(row) {
				cell = row[j]
			}
			null := c.AppendCell(cell)
			d.hasher.WriteCell(cell, null)
			v, hasNum := c.NumericAt(c.Len() - 1)
			d.stats[j].observe(cell, null, v, hasNum)
			delta += cellBytes(cell, c.Type)
		}
	}
	d.nRows += len(rows)
	d.ragged += raggedBatch
	d.epoch++
	d.snap = nil
	d.fp = d.hasher.Sum()
	// d.bytes is NOT updated here: the registry commits the delta under
	// its own lock, so a concurrent removal can never subtract bytes
	// that were never added to the registry total.
	return AppendResult{
		Dataset: d.name, Appended: len(rows), Rows: d.nRows,
		Epoch: d.epoch, Fingerprint: d.fp,
		Ragged: raggedBatch, RaggedTotal: d.ragged,
	}, delta, oldFp
}

// appendRecordLocked builds the WAL record for an append batch: the
// raw rows verbatim, the pre-state fingerprint (the rolling digest
// the batch extends — replay uses it to detect an append journaled
// against a since-dropped incarnation of the name), and the previewed
// post-state fingerprint. The preview runs the exact cell loop apply
// will run — padding, ragged truncation, null detection — against a
// clone of the rolling hasher, so the journaled fingerprint is the
// one the dataset will carry after the batch lands, and replay can
// verify it byte for byte. Caller holds d.mu.
func (d *Dataset) appendRecordLocked(rows [][]string) *wal.Record {
	h := d.hasher.Clone()
	for _, row := range rows {
		for j, c := range d.cols {
			cell := ""
			if j < len(row) {
				cell = row[j]
			}
			h.WriteCell(cell, c.CellIsNull(cell))
		}
	}
	return &wal.Record{
		Op: wal.OpAppend, Name: d.name,
		Epoch:           d.epoch + 1, // the epoch the batch will commit at
		RawRows:         rows,
		PrevFingerprint: d.fp,
		Fingerprint:     h.Sum(),
	}
}

// registerRecordLocked serializes the dataset's full current state as
// an OpRegister record: schema, every cell (raw bytes plus explicit
// null flag — null flags are not always derivable from the raw string,
// e.g. caller-built tables), the rolling fingerprint, creation time,
// epoch, and ragged count. It serves both the registration journal
// entry (epoch 0 at that point) and snapshot compaction, which is why
// Epoch is persisted explicitly: recovered datasets must keep their
// epoch numbering across restarts. Caller holds d.mu (or has exclusive
// access, as at registration before insertion).
func (d *Dataset) registerRecordLocked() *wal.Record {
	rec := &wal.Record{
		Op: wal.OpRegister, Name: d.name,
		CreatedAtNanos: d.createdAt.UnixNano(),
		Epoch:          d.epoch,
		Ragged:         d.ragged,
		Rows:           d.nRows,
		Fingerprint:    d.fp,
	}
	rec.Cols = make([]wal.Col, len(d.cols))
	for j, c := range d.cols {
		rec.Cols[j] = wal.Col{Name: c.Name, Type: byte(c.Type)}
	}
	rec.Cells = make([]wal.Cell, 0, d.nRows*len(d.cols))
	for i := 0; i < d.nRows; i++ {
		for _, c := range d.cols {
			rec.Cells = append(rec.Cells, wal.Cell{Raw: c.RawAt(i), Null: c.IsNull(i)})
		}
	}
	return rec
}

// Snapshot returns the immutable table view of the current epoch,
// materializing it on first use and memoizing it until the next
// append. Snapshot columns are fresh headers over three-index slices
// of the live storage — copy-on-write tails: later appends either
// write past every snapshot's length or reallocate, so existing
// snapshots never change. The rolling fingerprint is injected (no
// recompute), and tracker statistics are injected while they are
// still exact, so a warm snapshot costs O(columns), not O(cells).
func (d *Dataset) Snapshot() *dataset.Table {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked()
}

// use returns the current snapshot and the Info describing it under one
// acquisition of d.mu, so an append cannot land between the two; fresh
// reports whether this call materialized the snapshot.
func (d *Dataset) use() (t *dataset.Table, info Info, fresh bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fresh = d.snap == nil
	return d.snapshotLocked(), d.infoLocked(), fresh
}

// snapshotLocked is Snapshot with d.mu held.
func (d *Dataset) snapshotLocked() *dataset.Table {
	if d.snap != nil {
		return d.snap
	}
	stop := obs.StageTimer(obs.StageSnapshot)
	defer stop()
	cols := make([]*dataset.Column, len(d.cols))
	for j, c := range d.cols {
		sc := c.Freeze(d.nRows)
		if st, exact := d.stats[j].stats(c.Type); exact {
			sc.SetStats(st)
		}
		cols[j] = sc
	}
	t, err := dataset.New(d.name, cols)
	if err != nil {
		// Unreachable: the schema was validated at registration and
		// every column grows in lockstep.
		panic("registry: snapshot of inconsistent dataset: " + err.Error())
	}
	t.RaggedRows = d.ragged
	t.SetFingerprint(d.fp)
	d.snap = t
	return t
}

// Info snapshots the dataset's description and live column profiles.
func (d *Dataset) Info() Info {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.infoLocked()
}

// infoLocked is Info with d.mu held.
func (d *Dataset) infoLocked() Info {
	info := Info{
		Name: d.name, Rows: d.nRows, Cols: len(d.cols),
		Epoch: d.epoch, Fingerprint: d.fp,
		Bytes: d.bytes.Load(), RaggedRows: d.ragged,
		Replica:    d.replica.Load(),
		CreatedAt:  d.createdAt,
		LastAccess: time.Unix(0, d.lastAccess.Load()),
	}
	for j, c := range d.cols {
		tr := d.stats[j]
		distinct, exact := tr.distinct()
		ci := ColumnInfo{
			Name: c.Name, Type: c.Type,
			NonNull: tr.nonNull, Nulls: tr.nulls,
			Distinct: distinct, DistinctExact: exact,
			Mean: tr.mean, Std: tr.stddev(),
		}
		if tr.nNum > 0 {
			ci.Min, ci.Max = tr.min, tr.max
		}
		info.Columns = append(info.Columns, ci)
	}
	return info
}

// Name returns the dataset's registry name.
func (d *Dataset) Name() string { return d.name }

// Fingerprint returns the rolling fingerprint at the current epoch.
func (d *Dataset) Fingerprint() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fp
}

// Epoch returns the current epoch (one bump per append batch).
func (d *Dataset) Epoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch
}

// IsReplica reports whether this node follows (rather than leads) the
// dataset.
func (d *Dataset) IsReplica() bool { return d.replica.Load() }

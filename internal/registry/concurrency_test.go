package registry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/deepeye/deepeye/internal/dataset"
	"github.com/deepeye/deepeye/internal/obs"
)

// TestConcurrentAppendSnapshot hammers one dataset with concurrent
// appenders while readers take snapshots and validate them: every
// snapshot must be internally consistent (all columns the same length,
// stamped fingerprint equal to a recompute over exactly its own cells)
// no matter how appends interleave. Run under -race this doubles as
// the memory-model check on the copy-on-write tails.
func TestConcurrentAppendSnapshot(t *testing.T) {
	r := newTestRegistry(Config{})
	if _, err := r.Register("live", mkTable(t, "live", tripsCSV)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	const (
		appenders = 4
		batches   = 25
		readers   = 4
	)
	var wg sync.WaitGroup
	errc := make(chan error, appenders+readers)
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				rows := [][]string{
					{fmt.Sprintf("city-%d-%d", a, b), fmt.Sprintf("%d.5", b), "2024-06-01"},
					{fmt.Sprintf("city-%d", a), fmt.Sprintf("%d", b)},
				}
				if _, err := r.Append("live", rows); err != nil {
					errc <- fmt.Errorf("append: %w", err)
					return
				}
			}
		}(a)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				snap, ok := r.Snapshot("live")
				if !ok {
					errc <- fmt.Errorf("snapshot missed")
					return
				}
				n := snap.NumRows()
				for _, c := range snap.Columns {
					if c.Len() != n {
						errc <- fmt.Errorf("torn snapshot: col %s has %d cells for %d rows",
							c.Name, c.Len(), n)
						return
					}
					c.Stats() // must not race with appends
				}
				d, _ := r.Get("live")
				d.Info()
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	snap, _ := r.Snapshot("live")
	wantRows := 3 + appenders*batches*2
	if snap.NumRows() != wantRows {
		t.Fatalf("final rows = %d, want %d", snap.NumRows(), wantRows)
	}
	if got, want := snap.Fingerprint(), rebuild(t, snap).Fingerprint(); got != want {
		t.Fatalf("final rolling fingerprint %s != recompute %s", got, want)
	}
}

// TestConcurrentRegistryChurn mixes registrations, appends, deletes,
// lists, and TTL/LRU pressure across many goroutines; the assertions
// are the race detector plus registry invariants at quiescence.
func TestConcurrentRegistryChurn(t *testing.T) {
	var retired atomic.Int64
	r := newTestRegistry(Config{
		MaxBytes: 1 << 20,
		TTL:      time.Hour,
		Obs:      obs.NewRegistry(),
		OnRetire: func(string) { retired.Add(1) },
	})
	base, err := dataset.FromCSVString("seed", tripsCSV)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("ds-%d", w%3) // contend on 3 names
			for i := 0; i < 30; i++ {
				switch i % 5 {
				case 0:
					r.Register(name, base) // ErrExists races are fine
				case 1:
					r.Append(name, [][]string{{"X", fmt.Sprint(i), "2024-01-01"}})
				case 2:
					r.Snapshot(name)
				case 3:
					r.List()
				case 4:
					if i%10 == 4 {
						r.Delete(name)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Len() > 3 {
		t.Errorf("registry holds %d datasets, at most 3 names were used", r.Len())
	}
	var sum int64
	for _, info := range r.List() {
		sum += info.Bytes
	}
	if got := r.Bytes(); got != sum {
		t.Errorf("accounted bytes %d != sum of live datasets %d", got, sum)
	}
}

// TestAppendDuringEviction pins the append/evict race: a dataset
// evicted mid-append must not corrupt the registry's byte accounting.
func TestAppendDuringEviction(t *testing.T) {
	r := newTestRegistry(Config{MaxBytes: 2048, Obs: obs.NewRegistry()})
	if _, err := r.Register("victim", mkTable(t, "victim", tripsCSV)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			r.Append("victim", [][]string{{"Oslo", "1", "2024-01-04"}})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("filler-%d", i)
			r.Register(name, mkTable(t, name, tripsCSV))
		}
	}()
	wg.Wait()
	var sum int64
	for _, info := range r.List() {
		sum += info.Bytes
	}
	if got := r.Bytes(); got != sum {
		t.Errorf("accounted bytes %d != live sum %d after eviction churn", got, sum)
	}
}

// TestUseEchoesItsSnapshotEpoch: Use's Info describes the snapshot it
// returns, even while appends race it. The serving layer echoes that
// Info's epoch and fingerprint next to charts computed on the snapshot,
// so a torn pair would claim an epoch the charts were not computed on.
// The race needs a second P to show: with two, a Use that takes the
// snapshot and the Info under separate locks tears hundreds of times.
func TestUseEchoesItsSnapshotEpoch(t *testing.T) {
	r := newTestRegistry(Config{})
	if _, err := r.Register("live", mkTable(t, "live", tripsCSV)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	const uses = 200000
	done := make(chan struct{})
	appendErr := make(chan error, 1)
	go func() {
		defer close(appendErr)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := r.Append("live", [][]string{{"Oslo", fmt.Sprintf("%d", i), "2024-06-01"}}); err != nil {
				appendErr <- err
				return
			}
		}
	}()
	torn := 0
	for i := 0; i < uses; i++ {
		snap, info, err := r.Use("live")
		if err != nil {
			t.Fatalf("Use: %v", err)
		}
		if snap.Fingerprint() != info.Fingerprint || snap.NumRows() != info.Rows {
			torn++
		}
	}
	close(done)
	if err := <-appendErr; err != nil {
		t.Fatalf("Append: %v", err)
	}
	if torn > 0 {
		t.Errorf("%d of %d Use calls paired a snapshot with another epoch's Info", torn, uses)
	}
}

package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	deepeye "github.com/deepeye/deepeye"
	"github.com/deepeye/deepeye/internal/obs"
)

// TestIngestRowLimit413: a row flood past -max-rows answers 413 with
// the configured limit echoed in the JSON body.
func TestIngestRowLimit413(t *testing.T) {
	sys := deepeye.New(deepeye.Options{RegistrySize: 1 << 20})
	srv := httptest.NewServer(New(sys, Options{MaxRows: 3}))
	t.Cleanup(srv.Close)

	resp, body := doReq(t, http.MethodPost, srv.URL+"/datasets?name=flood",
		"a,b\n1,2\n3,4\n5,6\n7,8\n")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", resp.StatusCode, body)
	}
	var e errorJSON
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Limit != 3 || !strings.Contains(e.Error, "rows") {
		t.Fatalf("413 body = %+v, want rows limit 3", e)
	}

	// The same cap guards the append path of a within-limit dataset.
	if resp, body = doReq(t, http.MethodPost, srv.URL+"/datasets?name=ok", "a,b\n1,2\n"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d: %s", resp.StatusCode, body)
	}
	resp, body = doReq(t, http.MethodPost, srv.URL+"/datasets/ok/rows", "1,2\n3,4\n5,6\n7,8\n")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("append flood = %d, want 413: %s", resp.StatusCode, body)
	}
	// And the rejected batch must not have landed.
	resp, body = doReq(t, http.MethodGet, srv.URL+"/datasets/ok", "")
	var ds DatasetJSON
	if err := json.Unmarshal(body, &ds); err != nil {
		t.Fatal(err)
	}
	if ds.Rows != 1 || ds.Epoch != 0 {
		t.Fatalf("rejected append mutated dataset: %+v", ds)
	}
}

// TestIngestCellLimit413: one oversized cell past -max-cell-bytes
// answers 413 echoing that limit.
func TestIngestCellLimit413(t *testing.T) {
	sys := deepeye.New(deepeye.Options{RegistrySize: 1 << 20})
	srv := httptest.NewServer(New(sys, Options{MaxCellBytes: 16}))
	t.Cleanup(srv.Close)

	resp, body := doReq(t, http.MethodPost, srv.URL+"/datasets?name=wide",
		fmt.Sprintf("a,b\n%s,1\n", strings.Repeat("x", 64)))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", resp.StatusCode, body)
	}
	var e errorJSON
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Limit != 16 || !strings.Contains(e.Error, "cell-bytes") {
		t.Fatalf("413 body = %+v, want cell-bytes limit 16", e)
	}
}

// TestIngestLimitsGuardStatelessRoutes: the row/cell caps also protect
// the stateless /topk upload path.
func TestIngestLimitsGuardStatelessRoutes(t *testing.T) {
	sys := deepeye.New(deepeye.Options{IncludeOneColumn: true})
	srv := httptest.NewServer(New(sys, Options{MaxRows: 2}))
	t.Cleanup(srv.Close)

	resp, body := doReq(t, http.MethodPost, srv.URL+"/topk?k=2", testCSV)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", resp.StatusCode, body)
	}
}

// TestShedResponseContract: capacity 503s carry a Retry-After header
// and the machine-readable reason "capacity".
func TestShedResponseContract(t *testing.T) {
	sys := deepeye.New(deepeye.Options{IncludeOneColumn: true})
	reg := obs.NewRegistry()
	srv := httptest.NewServer(New(sys, Options{MaxInFlight: 1, Registry: reg}))
	t.Cleanup(srv.Close)

	// Park one request inside the handler: its body is a pipe, so the
	// CSV read blocks after the limiter slot is taken. The pipe's reader
	// is the client transport, so Write returning proves nothing about
	// the server; the in-flight gauge does, because the handler raises
	// it only after it holds the slot.
	pr, pw := io.Pipe()
	defer pw.Close() // a failed wait must not leave srv.Close blocked on the parked request
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/topk?k=2", pr)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	if _, err := pw.Write([]byte("a,b\n")); err != nil {
		t.Fatal(err)
	}
	inFlight := reg.Gauge(metricInFlight, "")
	deadline := time.Now().Add(5 * time.Second)
	for inFlight.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d after 5s, want 1", metricInFlight, inFlight.Value())
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := doReq(t, http.MethodPost, srv.URL+"/topk?k=2", testCSV)
	pw.Close()
	<-done
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Fatalf("Retry-After = %q, want \"5\"", got)
	}
	var e errorJSON
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Reason != "capacity" {
		t.Fatalf("shed reason = %q, want \"capacity\"", e.Reason)
	}
}

// TestReadOnly503Contract: registry mutations during durability
// degradation answer 503 with Retry-After and reason "read_only",
// exercised through writeRegistryError (the one mapping every dataset
// handler uses).
func TestReadOnly503Contract(t *testing.T) {
	rec := httptest.NewRecorder()
	writeRegistryError(rec, fmt.Errorf("append trips: %w", deepeye.ErrDatasetReadOnly))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "5" {
		t.Fatalf("Retry-After = %q, want \"5\"", got)
	}
	var e errorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Reason != "read_only" || !strings.Contains(e.Error, "trips") {
		t.Fatalf("read-only body = %+v", e)
	}
}

package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"kizzle/internal/shardcoord"
)

// startWorker runs the binary's configuration path and returns its
// handler plus a shutdown func that triggers the save-on-exit path.
func startWorker(t *testing.T, args []string) (http.Handler, func()) {
	t.Helper()
	ready := make(chan http.Handler, 1)
	quit := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- run(args, ready, quit) }()
	h := <-ready
	return h, func() {
		t.Helper()
		close(quit)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func postPartition(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/partition", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestWorkerServesPartition(t *testing.T) {
	h, shutdown := startWorker(t, []string{"-workers", "2", "-cachemb", "8"})
	defer shutdown()

	// Identical pair clusters; singleton far away is noise.
	rec := postPartition(t, h, `{"eps":0.3,"minPts":2,"partition":{
		"seqs":[[1,2,3,4],[1,2,3,4],[9,9,9,9,9,9,9,9,9,9,9,9]],
		"weights":[1,1,1]}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /partition: %d %s", rec.Code, rec.Body.String())
	}
	var resp shardcoord.PartitionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if r := resp.Reduced; len(r.Clusters) != 1 || len(r.Reps) != 1 || len(r.Noise) != 1 {
		t.Fatalf("summary = %+v", r)
	}

	// Health endpoint reports cache occupancy.
	hreq := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	hrec := httptest.NewRecorder()
	h.ServeHTTP(hrec, hreq)
	if hrec.Code != http.StatusOK || !strings.Contains(hrec.Body.String(), "cache-entries=") {
		t.Fatalf("healthz: %d %q", hrec.Code, hrec.Body.String())
	}

	// Metrics endpoint counts the work unit just served.
	mreq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, mreq)
	if mrec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", mrec.Code)
	}
	var m struct {
		Partitions   int64          `json:"partitions"`
		WorkLatency  map[string]any `json:"work_latency"`
		CacheEntries int64          `json:"cache_entries"`
		Runtime      map[string]any `json:"runtime"`
	}
	if err := json.Unmarshal(mrec.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, mrec.Body.String())
	}
	if m.Partitions != 1 {
		t.Errorf("partitions = %d, want 1", m.Partitions)
	}
	if m.WorkLatency == nil || m.Runtime == nil {
		t.Error("metrics missing work_latency or runtime")
	}
}

func TestWorkerRejectsBadRequests(t *testing.T) {
	h, shutdown := startWorker(t, []string{"-cachemb", "0"})
	defer shutdown()
	if rec := postPartition(t, h, "{broken"); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", rec.Code)
	}
	// Symbol far outside the abstraction alphabet must be rejected, not
	// crash the worker.
	if rec := postPartition(t, h, `{"eps":0.1,"minPts":2,"partition":{"seqs":[[65535]],"weights":[1]}}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("out-of-alphabet symbol: %d", rec.Code)
	}
}

func TestWorkerCachePersistsAcrossRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	args := []string{"-workers", "1", "-cachemb", "8", "-cachedir", dir}

	// First life: serve one partition (warming the verdict cache), then
	// shut down — run saves the snapshot on the way out.
	h, shutdown := startWorker(t, args)
	body := `{"eps":0.3,"minPts":2,"partition":{
		"seqs":[[1,2,3,4,5,6],[1,2,3,4,5,7],[8,8,8,8,8,8,8,8,8,8,8,8,8,8]],
		"weights":[1,1,1]}}`
	if rec := postPartition(t, h, body); rec.Code != http.StatusOK {
		t.Fatalf("first life: %d", rec.Code)
	}
	shutdown()

	// Second life: the snapshot must be loaded before any request runs.
	h2, shutdown2 := startWorker(t, args)
	defer shutdown2()
	hreq := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	hrec := httptest.NewRecorder()
	h2.ServeHTTP(hrec, hreq)
	out := hrec.Body.String()
	if strings.Contains(out, "cache-entries=0 ") {
		t.Fatalf("restarted worker came up with an empty cache: %q", out)
	}
	if rec := postPartition(t, h2, body); rec.Code != http.StatusOK {
		t.Fatalf("second life: %d", rec.Code)
	}
}

func TestWorkerFlagValidation(t *testing.T) {
	if err := run([]string{"-cachemb", "0", "-cachedir", t.TempDir()}, nil, nil); err == nil {
		t.Fatal("-cachedir without a cache budget must fail")
	}
	if err := run([]string{"-residentmb", "0"}, nil, nil); err == nil {
		t.Fatal("-residentmb 0 must fail: every worker keeps a resident set")
	}
}

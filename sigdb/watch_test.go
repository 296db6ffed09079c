package sigdb

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kizzle"
	"kizzle/synth"
)

// watchSigs trains a real signature set for the given revision; distinct
// revisions train on distinct days, so successive publishes change bytes.
func watchSigs(t *testing.T, rev int) []kizzle.Signature {
	t.Helper()
	return trainSignatures(t, synth.Date(time.August, 5+rev))
}

// watchServer mounts the store the way sigserve does: /signatures for
// polling, /signatures/watch for push.
func watchServer(s *Store, wait time.Duration) *httptest.Server {
	mux := http.NewServeMux()
	mux.Handle("/signatures", s.Handler())
	mux.Handle("/signatures/watch", s.watchHandler(wait))
	return httptest.NewServer(mux)
}

// TestWatchPushImmediate is the core push property: replicas parked on
// the watch endpoint learn about a publish without waiting any poll
// interval, and what they deploy is byte-identical to the store's
// snapshot.
func TestWatchPushImmediate(t *testing.T) {
	store := New()
	if _, err := store.Replace(watchSigs(t, 0), nil); err != nil {
		t.Fatal(err)
	}
	srv := watchServer(store, 30*time.Second)
	defer srv.Close()

	const replicas = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type applied struct {
		mu    sync.Mutex
		snaps []Snapshot
	}
	got := make([]applied, replicas)
	var wg sync.WaitGroup
	var ready sync.WaitGroup
	for i := 0; i < replicas; i++ {
		c := &Client{URL: srv.URL + "/signatures", JitterSeed: int64(i) + 1}
		// Arm each replica first so the publish finds all of them parked.
		if _, ok, err := c.Fetch(ctx); err != nil || !ok {
			t.Fatalf("replica %d initial fetch: ok=%v err=%v", i, ok, err)
		}
		wg.Add(1)
		ready.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			var once sync.Once
			go func() { time.Sleep(50 * time.Millisecond); once.Do(ready.Done) }()
			// The poll interval is an hour: any update that arrives arrived
			// by push, not by polling.
			c.Run(ctx, time.Hour, func(snap Snapshot) {
				got[i].mu.Lock()
				got[i].snaps = append(got[i].snaps, snap)
				got[i].mu.Unlock()
			}, nil)
		}(i, c)
	}
	ready.Wait()

	if _, err := store.Replace(watchSigs(t, 1), nil); err != nil {
		t.Fatal(err)
	}
	want := store.Snapshot()

	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < replicas; i++ {
		for {
			got[i].mu.Lock()
			n := len(got[i].snaps)
			got[i].mu.Unlock()
			if n > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d never saw the pushed update", i)
			}
			time.Sleep(5 * time.Millisecond)
		}
		got[i].mu.Lock()
		snap := got[i].snaps[0]
		got[i].mu.Unlock()
		if !reflect.DeepEqual(snap, want) {
			t.Errorf("replica %d deployed a different snapshot than the store holds", i)
		}
	}
	cancel()
	wg.Wait()
}

// TestWatchHandlerImmediateWhenBehind pins the non-blocking path: a
// watcher behind the store is answered at once with the normal wire
// format (delta included when smaller and asked for).
func TestWatchHandlerImmediateWhenBehind(t *testing.T) {
	store := New()
	if _, err := store.Replace(watchSigs(t, 0), nil); err != nil {
		t.Fatal(err)
	}
	h := store.watchHandler(30 * time.Second)
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/signatures/watch?since=0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("behind watcher blocked %v", elapsed)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != 1 {
		t.Fatalf("got version %d, want 1", snap.Version)
	}
	if rec.Header().Get("ETag") != versionETag(1) {
		t.Fatalf("etag %q", rec.Header().Get("ETag"))
	}
}

// TestWatchHandlerHeartbeat pins the park bound: a current watcher gets
// 304 after maxWait, carrying the current ETag.
func TestWatchHandlerHeartbeat(t *testing.T) {
	store := New()
	if _, err := store.Replace(watchSigs(t, 0), nil); err != nil {
		t.Fatal(err)
	}
	h := store.watchHandler(30 * time.Millisecond)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/signatures/watch?since=1", nil))
	if rec.Code != http.StatusNotModified {
		t.Fatalf("status %d, want 304", rec.Code)
	}
	if rec.Header().Get("ETag") != versionETag(1) {
		t.Fatalf("etag %q", rec.Header().Get("ETag"))
	}
}

// TestWatchHandlerBadRequest pins parameter validation.
func TestWatchHandlerBadRequest(t *testing.T) {
	store := New()
	h := store.WatchHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/signatures/watch?since=banana", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/signatures/watch", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", rec.Code)
	}
}

// TestWatchReconnectAfterDrop drops the first watch connections with 500
// and requires the client to retry (with backoff) and still deliver the
// pushed update once the endpoint heals.
func TestWatchReconnectAfterDrop(t *testing.T) {
	store := New()
	if _, err := store.Replace(watchSigs(t, 0), nil); err != nil {
		t.Fatal(err)
	}
	var failures atomic.Int64
	watch := store.watchHandler(30 * time.Second)
	mux := http.NewServeMux()
	mux.Handle("/signatures", store.Handler())
	mux.HandleFunc("/signatures/watch", func(w http.ResponseWriter, r *http.Request) {
		if failures.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		watch.ServeHTTP(w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := &Client{URL: srv.URL + "/signatures", JitterSeed: 7}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, ok, err := c.Fetch(ctx); err != nil || !ok {
		t.Fatalf("initial fetch: ok=%v err=%v", ok, err)
	}

	updates := make(chan Snapshot, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(ctx, time.Hour, func(snap Snapshot) { updates <- snap }, nil)
	}()

	// Give the client time to burn through the failing rounds, then
	// publish while it is parked on the healed endpoint.
	for failures.Load() < 3 {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := store.Replace(watchSigs(t, 1), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case snap := <-updates:
		if snap.Version != 2 {
			t.Fatalf("got version %d, want 2", snap.Version)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("update never arrived after watch stream drops")
	}
	if c.Metrics()["watch_drops"].(int64) < 2 {
		t.Errorf("watch_drops = %v, want >= 2", c.Metrics()["watch_drops"])
	}
	cancel()
	<-done
}

// TestWatchPacesEagerServer pins the anti-busy-loop floor: an endpoint
// that answers every watch round immediately with 304 (an intermediary,
// a non-store implementation — no server-side park at all) must see
// paced reconnects, not a tight request loop.
func TestWatchPacesEagerServer(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotModified)
	}))
	defer srv.Close()

	c := &Client{URL: srv.URL + "/signatures", JitterSeed: 5, watchFloor: 20 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	c.Run(ctx, time.Hour, func(Snapshot) {}, nil)

	// ~12 paced rounds fit in 250ms at a 20ms floor; an unpaced loop
	// against a local immediate responder would make thousands.
	if n := calls.Load(); n > 30 {
		t.Fatalf("eager 304 endpoint saw %d watch rounds in 250ms; pacing failed", n)
	}
	if c.Metrics()["watch_paced"].(int64) == 0 {
		t.Error("watch_paced = 0, want > 0")
	}
}

// TestWatchFallsBackToPolling pins the unsupported-endpoint path: against
// a server with only the poll endpoint, Run targets it for good and still
// delivers updates at poll cadence.
func TestWatchFallsBackToPolling(t *testing.T) {
	store := New()
	if _, err := store.Replace(watchSigs(t, 0), nil); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/signatures", store.Handler()) // no /signatures/watch
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := &Client{URL: srv.URL + "/signatures", JitterSeed: 11}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, ok, err := c.Fetch(ctx); err != nil || !ok {
		t.Fatalf("initial fetch: ok=%v err=%v", ok, err)
	}
	if _, err := store.Replace(watchSigs(t, 1), nil); err != nil {
		t.Fatal(err)
	}

	updates := make(chan Snapshot, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(ctx, 20*time.Millisecond, func(snap Snapshot) { updates <- snap }, nil)
	}()
	select {
	case snap := <-updates:
		if snap.Version != 2 {
			t.Fatalf("got version %d, want 2", snap.Version)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("polling fallback never delivered the update")
	}
	if c.Metrics()["watch_fallback"].(int64) != 1 {
		t.Errorf("watch_fallback = %v, want 1", c.Metrics()["watch_fallback"])
	}
	if c.Metrics()["watch_updates"].(int64) != 0 {
		t.Errorf("watch_updates = %v, want 0 (update came via polling)", c.Metrics()["watch_updates"])
	}
	cancel()
	<-done
}

// TestWatchTickReconnects pins the heartbeat loop: a server park bound
// shorter than the test means several 304 ticks, each reconnecting, and
// an update published mid-stream still lands.
func TestWatchTickReconnects(t *testing.T) {
	store := New()
	if _, err := store.Replace(watchSigs(t, 0), nil); err != nil {
		t.Fatal(err)
	}
	srv := watchServer(store, 15*time.Millisecond)
	defer srv.Close()

	// A floor under the heartbeat keeps the deliberately fast heartbeats
	// of this test from being paced (pacing itself is pinned separately).
	c := &Client{URL: srv.URL + "/signatures", JitterSeed: 3, watchFloor: time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, ok, err := c.Fetch(ctx); err != nil || !ok {
		t.Fatalf("initial fetch: ok=%v err=%v", ok, err)
	}
	updates := make(chan Snapshot, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(ctx, time.Hour, func(snap Snapshot) { updates <- snap }, nil)
	}()
	// Let a few heartbeat rounds pass, then publish.
	for c.Metrics()["watch_ticks"].(int64) < 3 {
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := store.Replace(watchSigs(t, 1), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case snap := <-updates:
		if snap.Version != 2 {
			t.Fatalf("got version %d, want 2", snap.Version)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("update never arrived across heartbeat reconnects")
	}
	cancel()
	<-done
}

// TestWatchBacksOffFailedRounds pins the failure pacing: against an
// endpoint that fails every round, Run reports each failure and spaces
// rounds by a doubling backoff from 250ms — never less than the floor —
// instead of retrying in a tight loop.
func TestWatchBacksOffFailedRounds(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := &Client{URL: srv.URL + "/signatures", watchFloor: 10 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 650*time.Millisecond)
	defer cancel()
	var errs atomic.Int64
	c.Run(ctx, time.Hour, func(Snapshot) { t.Error("no update possible from a failing server") },
		func(error) { errs.Add(1) })

	// Rounds start at 0, 250ms and 750ms: two fit in 650ms. A backoff
	// that did not double would fit a third at 500ms; an unpaced loop
	// would make thousands.
	if n := calls.Load(); n != 2 {
		t.Fatalf("failing endpoint saw %d rounds in 650ms, want 2", n)
	}
	if n := errs.Load(); n != calls.Load() {
		t.Errorf("reported %d errors for %d failed rounds", n, calls.Load())
	}
	if n := c.Metrics()["watch_drops"].(int64); n != calls.Load() {
		t.Errorf("watch_drops = %d, want %d", n, calls.Load())
	}
}

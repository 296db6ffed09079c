package gateway

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"kizzle/internal/contentcache"
	"kizzle/internal/verdictcache"
	"kizzle/synth"
)

// TestVetBytesMatchesVet pins the zero-copy entry points against the
// matcher's string path: VetBytes and VetAllBytes decide exactly what a
// direct Scan of the same document decides.
func TestVetBytesMatchesVet(t *testing.T) {
	day := synth.Date(time.August, 5)
	m := buildMatcher(t, day)
	cfg := synth.DefaultConfig()
	cfg.BenignPerDay = 10
	stream, err := synth.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var docs []string
	for _, s := range stream.Day(day) {
		docs = append(docs, s.Content)
	}
	docs = append(docs, "", "var benign = 1;")

	want := make([]Decision, len(docs))
	for i, doc := range docs {
		if matches := m.Scan(doc); len(matches) > 0 {
			want[i] = Decision{Blocked: true, Family: matches[0].Family}
		}
	}
	v := NewVetter(m)
	byteDocs := make([][]byte, len(docs))
	for i, doc := range docs {
		byteDocs[i] = []byte(doc)
		if got := v.VetBytes(byteDocs[i]); got != want[i] {
			t.Fatalf("doc %d: VetBytes %+v vs Scan %+v", i, got, want[i])
		}
	}
	for i, got := range NewVetter(m).VetAllBytes(byteDocs) {
		if got != want[i] {
			t.Fatalf("doc %d: VetAllBytes %+v vs Scan %+v", i, got, want[i])
		}
	}
}

// TestAdmitterMatchesDirect is the batched≡per-document differential:
// concurrent admissions through the batcher must produce exactly the
// decisions direct vetting produces, document for document.
func TestAdmitterMatchesDirect(t *testing.T) {
	day := synth.Date(time.August, 5)
	m := buildMatcher(t, day)
	cfg := synth.DefaultConfig()
	cfg.BenignPerDay = 20
	stream, err := synth.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var docs [][]byte
	for _, s := range stream.Day(day) {
		docs = append(docs, []byte(s.Content))
	}

	direct := NewVetter(m)
	want := make([]Decision, len(docs))
	for i, doc := range docs {
		want[i] = direct.VetBytes(doc)
	}

	v := NewVetter(m)
	a := NewAdmitter(v, 8, 200*time.Microsecond)
	defer a.Close()
	got := make([]Decision, len(docs))
	var wg sync.WaitGroup
	for i := range docs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = a.VetBytes(docs[i])
		}(i)
	}
	wg.Wait()
	for i := range docs {
		if got[i] != want[i] {
			t.Fatalf("doc %d: batched %+v vs direct %+v", i, got[i], want[i])
		}
	}
}

// TestAdmitterCoalescesDuplicates: identical in-flight documents must be
// scanned once per window, and every request must still get the right
// decision.
func TestAdmitterCoalescesDuplicates(t *testing.T) {
	day := synth.Date(time.August, 5)
	v := NewVetter(buildMatcher(t, day))
	// A long window so one batch holds the whole burst.
	a := NewAdmitter(v, 64, 50*time.Millisecond)
	defer a.Close()

	kit := []byte(kitDoc(t, day))
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d := a.VetBytes(kit); !d.Blocked || d.Family != "Angler" {
				t.Errorf("coalesced decision = %+v", d)
			}
		}()
	}
	wg.Wait()
	scanned, blocked := v.Stats()
	if scanned >= n {
		t.Errorf("scanned %d documents for %d identical requests; coalescing had no effect", scanned, n)
	}
	if blocked < 1 || blocked != scanned {
		t.Errorf("blocked = %d with %d scans", blocked, scanned)
	}
	mtr := a.Metrics()
	if mtr["requests"].(int64) != n {
		t.Errorf("requests metric = %v, want %d", mtr["requests"], n)
	}
	if mtr["coalesced"].(int64) != n-scanned {
		t.Errorf("coalesced metric = %v, want %d", mtr["coalesced"], n-scanned)
	}
}

// TestAdmitterDigestCollisionSafety: documents that merely share a digest
// bucket candidate must be verified byte-for-byte, so distinct documents
// always get their own scans and decisions.
func TestAdmitterDistinctDocsDistinctDecisions(t *testing.T) {
	day := synth.Date(time.August, 5)
	v := NewVetter(buildMatcher(t, day))
	a := NewAdmitter(v, 16, 20*time.Millisecond)
	defer a.Close()

	kit := []byte(kitDoc(t, day))
	benign := []byte(`var benign = 1;`)
	var wg sync.WaitGroup
	results := make([]Decision, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				results[i] = a.VetBytes(kit)
			} else {
				results[i] = a.VetBytes(benign)
			}
		}(i)
	}
	wg.Wait()
	for i, d := range results {
		if i%2 == 0 && (!d.Blocked || d.Family != "Angler") {
			t.Errorf("kit request %d: %+v", i, d)
		}
		if i%2 == 1 && d.Blocked {
			t.Errorf("benign request %d blocked", i)
		}
	}
}

// TestAdmitterCloseFallback: after Close, admissions still get correct
// decisions via the direct path, and Close drains queued requests.
func TestAdmitterCloseFallback(t *testing.T) {
	day := synth.Date(time.August, 5)
	v := NewVetter(buildMatcher(t, day))
	a := NewAdmitter(v, 32, time.Millisecond)
	kit := []byte(kitDoc(t, day))
	if d := a.VetBytes(kit); !d.Blocked {
		t.Fatal("pre-close admission missed kit")
	}
	a.Close()
	if d := a.VetBytes(kit); !d.Blocked || d.Family != "Angler" {
		t.Errorf("post-close admission = %+v", d)
	}
	if a.VetBytes([]byte("var benign = 1;")).Blocked {
		t.Error("post-close admission blocked benign")
	}
}

// TestVetterUpdateDuringVetAllBytes swaps signature sets while batched
// byte scans are in flight; run under -race this pins the hot-swap
// locking. Every decision must come from one coherent signature set.
func TestVetterUpdateDuringVetAllBytes(t *testing.T) {
	day := synth.Date(time.August, 5)
	m := buildMatcher(t, day)
	v := NewVetter(m)
	kit := []byte(kitDoc(t, day))
	docs := [][]byte{kit, []byte("var benign = 1;"), kit}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				v.Update(m)
				v.SetVersion(v.Version() + 1)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		out := v.VetAllBytes(docs)
		if !out[0].Blocked || out[1].Blocked || !out[2].Blocked {
			t.Fatalf("iteration %d: decisions %+v", i, out)
		}
	}
	close(stop)
	wg.Wait()
}

// TestProxyChunkedOversizedNotTruncated: a chunked (unknown-length)
// response that exceeds MaxScanBytes must pass through complete — the
// buffered prefix followed by the unread tail — not truncated at the
// scan bound.
func TestProxyChunkedOversizedNotTruncated(t *testing.T) {
	day := synth.Date(time.August, 5)
	big := bytes.Repeat([]byte("chunked-oversized-body."), 200) // ~4.6 KiB
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		// Flush after a prefix so the response goes out chunked with
		// ContentLength unknown to the proxy.
		w.Write(big[:100])
		w.(http.Flusher).Flush()
		w.Write(big[100:])
	}))
	defer upstream.Close()
	target, err := url.Parse(upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVetter(buildMatcher(t, day))
	p := NewProxy(target, v)
	p.MaxScanBytes = 1024
	front := httptest.NewServer(p)
	defer front.Close()

	resp, err := http.Get(front.URL + "/big.html")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !bytes.Equal(body, big) {
		t.Errorf("chunked oversized body corrupted: got %d bytes, want %d", len(body), len(big))
	}
	assertOversized(t, p, v, 1)
}

// TestProxyChunkedUnderLimitScanned: chunked delivery must not bypass
// scanning when the body fits the scan bound.
func TestProxyChunkedUnderLimitScanned(t *testing.T) {
	day := synth.Date(time.August, 5)
	kit := kitDoc(t, day)
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, kit[:40])
		w.(http.Flusher).Flush()
		io.WriteString(w, kit[40:])
	}))
	defer upstream.Close()
	target, err := url.Parse(upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(NewProxy(target, NewVetter(buildMatcher(t, day))))
	defer front.Close()

	resp, err := http.Get(front.URL + "/landing")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("chunked kit page: status %d, want 403", resp.StatusCode)
	}
}

// TestProxyWithAdmitter drives the proxy end to end through the
// admission batcher: kit blocked, benign served intact, duplicate
// concurrent fetches coalesced without changing any response.
func TestProxyWithAdmitter(t *testing.T) {
	day := synth.Date(time.August, 5)
	kit := kitDoc(t, day)
	benign := `<html><body><script>var x = document.title;</script></body></html>`
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		if r.URL.Path == "/landing" {
			io.WriteString(w, kit)
			return
		}
		io.WriteString(w, benign)
	}))
	defer upstream.Close()
	target, err := url.Parse(upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVetter(buildMatcher(t, day))
	a := NewAdmitter(v, 32, time.Millisecond)
	defer a.Close()
	p := NewProxy(target, v)
	p.UseAdmitter(a)
	front := httptest.NewServer(p)
	defer front.Close()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path, wantCode := "/landing", http.StatusForbidden
			if i%2 == 0 {
				path, wantCode = "/index.html", http.StatusOK
			}
			resp, err := http.Get(front.URL + path)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != wantCode {
				t.Errorf("%s: status %d, want %d", path, resp.StatusCode, wantCode)
			}
			if wantCode == http.StatusOK && string(body) != benign {
				t.Errorf("%s: body corrupted through pooled buffers", path)
			}
		}(i)
	}
	wg.Wait()
	if mtr := a.Metrics(); mtr["requests"].(int64) != 16 {
		t.Errorf("admitter saw %v requests, want 16", mtr["requests"])
	}
}

// TestAdmitterSharedStore pins fleet cache semantics: two replica
// admitters sharing one verdict cache produce decisions identical to
// direct vetting, the second replica hits verdicts the first scanned,
// and a version bump invalidates everything.
func TestAdmitterSharedStore(t *testing.T) {
	day := synth.Date(time.August, 5)
	cfg := synth.DefaultConfig()
	cfg.BenignPerDay = 20
	stream, err := synth.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var docs [][]byte
	for _, s := range stream.Day(day) {
		docs = append(docs, []byte(s.Content))
	}

	direct := NewVetter(buildMatcher(t, day))
	want := make([]Decision, len(docs))
	for i, doc := range docs {
		want[i] = direct.VetBytes(doc)
	}

	cache := verdictcache.New(0)
	replicas := make([]*Admitter, 2)
	vetters := make([]*Vetter, 2)
	for i := range replicas {
		vetters[i] = NewVetter(buildMatcher(t, day))
		vetters[i].SetVersion(1)
		replicas[i] = NewAdmitter(vetters[i], 8, 200*time.Microsecond)
		replicas[i].UseSharedStore(cache)
		defer replicas[i].Close()
	}

	// Replica 0 scans everything, populating the shared cache.
	for i, doc := range docs {
		if got := replicas[0].VetBytes(doc); got != want[i] {
			t.Fatalf("replica 0 doc %d: %+v, want %+v", i, got, want[i])
		}
	}
	// Replica 1 must answer identically — from the shared cache, without
	// scanning a single document.
	scannedBefore, _ := vetters[1].Stats()
	for i, doc := range docs {
		if got := replicas[1].VetBytes(doc); got != want[i] {
			t.Fatalf("replica 1 doc %d: %+v, want %+v", i, got, want[i])
		}
	}
	scannedAfter, _ := vetters[1].Stats()
	if scannedAfter != scannedBefore {
		t.Errorf("replica 1 scanned %d docs, want 0 (all shared hits)", scannedAfter-scannedBefore)
	}
	if hits := replicas[1].Metrics()["shared_hits"].(int64); hits != int64(len(docs)) {
		t.Errorf("shared_hits = %d, want %d", hits, len(docs))
	}

	// A version bump wipes the cache: replica 1 now scans again.
	vetters[1].SetVersion(2)
	if got := replicas[1].VetBytes(docs[0]); got != want[0] {
		t.Fatalf("post-bump decision %+v, want %+v", got, want[0])
	}
	scannedPostBump, _ := vetters[1].Stats()
	if scannedPostBump == scannedAfter {
		t.Error("version bump did not force a rescan")
	}
	if cache.Version() != 2 {
		t.Errorf("cache version %d, want 2", cache.Version())
	}
}

// TestAdmitterSharedStoreChecksumGuard pins the collision defense: the
// shared cache's 64-bit XXH64 key only nominates an entry, and an entry
// whose SHA-256 content sum does not match the document in hand — an
// attacker-constructed digest collision, or a corrupt store — must be
// ignored: the document is scanned locally and the poisoned entry
// overwritten with the genuine verdict.
func TestAdmitterSharedStoreChecksumGuard(t *testing.T) {
	day := synth.Date(time.August, 5)
	cache := verdictcache.New(0)
	v := NewVetter(buildMatcher(t, day))
	v.SetVersion(1)
	a := NewAdmitter(v, 8, 200*time.Microsecond)
	a.UseSharedStore(cache)
	defer a.Close()

	kit := []byte(kitDoc(t, day))
	kitKey := contentcache.Digest(string(kit))
	// Plant a clean verdict under the kit's cache key carrying the sum of
	// different content — what a digest-colliding benign twin, scanned
	// and cached clean, would leave behind for the kit page to ride on.
	cache.Put(1, kitKey, verdictcache.Verdict{
		Blocked: false,
		Sum:     verdictcache.ContentSum([]byte("benign colliding twin")),
	})
	if d := a.VetBytes(kit); !d.Blocked || d.Family != "Angler" {
		t.Fatalf("forged clean verdict bypassed the scanner: %+v", d)
	}
	if rejects := a.Metrics()["shared_rejects"].(int64); rejects != 1 {
		t.Errorf("shared_rejects = %d, want 1", rejects)
	}
	if hits := a.Metrics()["shared_hits"].(int64); hits != 0 {
		t.Errorf("shared_hits = %d, want 0", hits)
	}
	// The rescan published the genuine verdict over the forged entry.
	if got, ok := cache.Get(1, kitKey); !ok || !got.Blocked || got.Sum != verdictcache.ContentSum(kit) {
		t.Errorf("cache entry after rescan: %+v ok=%v", got, ok)
	}
}

// TestAdmitterSharedStoreUnversionedVetter pins the safety gate: a
// vetter that never recorded a matcher version must bypass the shared
// store entirely (an unpinned verdict could outlive a signature update).
func TestAdmitterSharedStoreUnversionedVetter(t *testing.T) {
	day := synth.Date(time.August, 5)
	cache := verdictcache.New(0)
	v := NewVetter(buildMatcher(t, day)) // version never set
	a := NewAdmitter(v, 8, 200*time.Microsecond)
	a.UseSharedStore(cache)
	defer a.Close()
	a.VetBytes([]byte(kitDoc(t, day)))
	if cache.Len() != 0 {
		t.Errorf("unversioned vetter published %d verdicts to the fleet", cache.Len())
	}
	if puts := a.Metrics()["shared_puts"].(int64); puts != 0 {
		t.Errorf("shared_puts = %d, want 0", puts)
	}
}

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

	"kizzle"
	"kizzle/internal/contentcache"
	"kizzle/internal/verdictcache"
	"kizzle/synth"
)

// TestVetBytesMatchesVet pins the zero-copy entry point against the
// matcher's string path: VetBytes decides exactly what a direct Scan of
// the same document decides.
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
}

// TestAdmitterMatchesDirect is the admitted≡per-document differential:
// concurrent admissions through the admitter must produce exactly the
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
	a := NewAdmitter(v, 0, 0)
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
			t.Fatalf("doc %d: admitted %+v vs direct %+v", i, got[i], want[i])
		}
	}
}

// heldScanner is a signature set whose scans block until the test
// releases them: it makes "in flight at the same moment" a state the test
// sets up instead of a timing it hopes for. Every scan announces its
// document on entered before it blocks; entered is buffered beyond any
// test's scan count so announcing never blocks a scan.
type heldScanner struct {
	inner   Scanner
	entered chan []byte
	release chan struct{}
}

func newHeldScanner(inner Scanner) *heldScanner {
	return &heldScanner{inner: inner, entered: make(chan []byte, 64), release: make(chan struct{})}
}

func (h *heldScanner) ScanBytes(doc []byte) []kizzle.Match {
	h.entered <- doc
	<-h.release
	return h.inner.ScanBytes(doc)
}

// awaitScan waits for the next held scan to start and returns its
// document.
func (h *heldScanner) awaitScan(t *testing.T) []byte {
	t.Helper()
	select {
	case doc := <-h.entered:
		return doc
	case <-time.After(10 * time.Second):
		t.Fatal("no scan started")
		return nil
	}
}

// awaitCounter polls an admitter counter until it reaches want.
func awaitCounter(t *testing.T, a *Admitter, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for a.Metrics()[name].(int64) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, a.Metrics()[name], want)
		}
		time.Sleep(time.Millisecond)
	}
}

// admitAsync starts one admission and returns the channel its decision
// arrives on.
func admitAsync(a *Admitter, doc []byte) <-chan Decision {
	out := make(chan Decision, 1)
	go func() { out <- a.VetBytes(doc) }()
	return out
}

// TestAdmitterCoalescesDuplicates: identical requests arriving while one
// scan of their document is held share that scan — one scan, n
// identical decisions, n-1 coalesced — each request keeping its own
// buffer.
func TestAdmitterCoalescesDuplicates(t *testing.T) {
	day := synth.Date(time.August, 5)
	held := newHeldScanner(buildMatcher(t, day))
	v := NewVetter(held)
	a := NewAdmitter(v, 0, 0)
	kit := kitDoc(t, day)

	const n = 16
	results := []<-chan Decision{admitAsync(a, []byte(kit))}
	held.awaitScan(t)
	for i := 1; i < n; i++ {
		results = append(results, admitAsync(a, []byte(kit)))
	}
	awaitCounter(t, a, "coalesced", n-1)
	close(held.release)
	for i, r := range results {
		if d := <-r; !d.Blocked || d.Family != "Angler" {
			t.Errorf("request %d: %+v", i, d)
		}
	}
	if scanned, blocked := v.Stats(); scanned != 1 || blocked != 1 {
		t.Errorf("scanned/blocked = %d/%d for %d identical in-flight requests, want 1/1", scanned, blocked, n)
	}
	mtr := a.Metrics()
	if mtr["requests"].(int64) != n || mtr["batches"].(int64) != 1 || mtr["coalesced"].(int64) != n-1 {
		t.Errorf("requests/batches/coalesced = %v/%v/%v, want %d/1/%d", mtr["requests"], mtr["batches"], mtr["coalesced"], n, n-1)
	}
}

// TestAdmitterHotSwapNeverJoinsOldFlight: a request that arrives after
// the signature set changed — by Update or by SetVersion — is decided
// by the new set even while an identical document is still being
// scanned by the old one.
func TestAdmitterHotSwapNeverJoinsOldFlight(t *testing.T) {
	day := synth.Date(time.August, 5)
	m := buildMatcher(t, day)
	held := newHeldScanner(m)
	v := NewVetter(held)
	v.SetVersion(1)
	a := NewAdmitter(v, 0, 0)
	kit := []byte(kitDoc(t, day))

	old := admitAsync(a, kit)
	held.awaitScan(t)
	v.Update(m)
	for _, step := range []string{"Update", "SetVersion"} {
		select {
		case d := <-admitAsync(a, kit):
			if !d.Blocked || d.Family != "Angler" {
				t.Errorf("after %s: %+v", step, d)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request after %s joined the flight held on the old set", step)
		}
		v.SetVersion(2)
	}
	close(held.release)
	if d := <-old; !d.Blocked || d.Family != "Angler" {
		t.Errorf("held request: %+v", d)
	}
	if c := a.Metrics()["coalesced"].(int64); c != 0 {
		t.Errorf("coalesced = %d across a signature change, want 0", c)
	}
	if scanned, _ := v.Stats(); scanned != 3 {
		t.Errorf("scanned = %d, want 3 (one per signature set)", scanned)
	}
}

// TestAdmitterDistinctDocsNeverShareFlight: a different document
// arriving while another is held is scanned on its own, never handed
// the held document's decision.
func TestAdmitterDistinctDocsNeverShareFlight(t *testing.T) {
	day := synth.Date(time.August, 5)
	held := newHeldScanner(buildMatcher(t, day))
	v := NewVetter(held)
	a := NewAdmitter(v, 0, 0)
	kit := []byte(kitDoc(t, day))
	benign := []byte(`var benign = 1;`)

	kitRes := admitAsync(a, kit)
	held.awaitScan(t)
	benignRes := admitAsync(a, benign)
	if got := held.awaitScan(t); !bytes.Equal(got, benign) {
		t.Fatalf("second scan got %q, want the benign document", got)
	}
	close(held.release)
	if d := <-kitRes; !d.Blocked || d.Family != "Angler" {
		t.Errorf("kit: %+v", d)
	}
	if d := <-benignRes; d.Blocked {
		t.Errorf("benign: %+v", d)
	}
	if c := a.Metrics()["coalesced"].(int64); c != 0 {
		t.Errorf("coalesced = %d for distinct documents, want 0", c)
	}
}

// TestAdmitterDigestCollisionDecidesAlone: a document whose digest
// nominates an in-flight flight holding different bytes is decided on
// its own at once, without waiting on the stranger's flight.
func TestAdmitterDigestCollisionDecidesAlone(t *testing.T) {
	day := synth.Date(time.August, 5)
	v := NewVetter(buildMatcher(t, day))
	a := NewAdmitter(v, 0, 0)
	kit := []byte(kitDoc(t, day))
	// Plant a flight that never lands under the kit's key, holding other
	// bytes: what a colliding document in flight looks like.
	key := flightKey{set: v.pin(), digest: contentcache.Digest(string(kit))}
	a.flights[key] = &flight{doc: []byte("colliding twin"), done: make(chan struct{})}
	select {
	case d := <-admitAsync(a, kit):
		if !d.Blocked || d.Family != "Angler" {
			t.Errorf("colliding kit: %+v", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a colliding document waited on a stranger's flight")
	}
	if c := a.Metrics()["coalesced"].(int64); c != 0 {
		t.Errorf("coalesced = %d on a digest collision, want 0", c)
	}
}

// TestAdmitterDistinctDocsDistinctDecisions: concurrent requests for
// different documents always get their own decisions.
func TestAdmitterDistinctDocsDistinctDecisions(t *testing.T) {
	day := synth.Date(time.August, 5)
	v := NewVetter(buildMatcher(t, day))
	a := NewAdmitter(v, 0, 0)

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
// decisions.
func TestAdmitterCloseFallback(t *testing.T) {
	day := synth.Date(time.August, 5)
	v := NewVetter(buildMatcher(t, day))
	a := NewAdmitter(v, 0, 0)
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

// TestVetterUpdateDuringVetBytes swaps signature sets while scans are in
// flight, through the vetter and the admitter alike; run under -race
// this pins the hot-swap locking. Every decision must come from one
// coherent signature set.
func TestVetterUpdateDuringVetBytes(t *testing.T) {
	day := synth.Date(time.August, 5)
	m := buildMatcher(t, day)
	v := NewVetter(m)
	a := NewAdmitter(v, 0, 0)
	a.UseSharedStore(verdictcache.New(0))
	kit := []byte(kitDoc(t, day))
	docs := [][]byte{kit, []byte("var benign = 1;"), kit}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for version := int64(1); ; version++ {
			select {
			case <-stop:
				return
			default:
				v.Update(m)
				v.SetVersion(version)
			}
		}
	}()
	var scans sync.WaitGroup
	for w := 0; w < 4; w++ {
		scans.Add(1)
		go func() {
			defer scans.Done()
			for i := 0; i < 50; i++ {
				for j, doc := range docs {
					want := j != 1
					if d := v.VetBytes(doc); d.Blocked != want {
						t.Errorf("iteration %d doc %d: vetter decided %+v", i, j, d)
					}
					if d := a.VetBytes(doc); d.Blocked != want {
						t.Errorf("iteration %d doc %d: admitter decided %+v", i, j, d)
					}
				}
			}
		}()
	}
	scans.Wait()
	close(stop)
	wg.Wait()
}

// recordingStore is a shared verdict store that keeps every publication.
type recordingStore struct {
	mu   sync.Mutex
	puts []int64
}

func (s *recordingStore) Get(int64, uint64) (verdictcache.Verdict, bool) {
	return verdictcache.Verdict{}, false
}

func (s *recordingStore) Put(version int64, _ uint64, _ verdictcache.Verdict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts = append(s.puts, version)
}

func (s *recordingStore) versions() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.puts...)
}

// TestAdmitterVersionPin: a set installed by Update runs unversioned
// until SetVersion names it, so a verdict it computes in between is
// never published under the version of the set it replaced.
func TestAdmitterVersionPin(t *testing.T) {
	day := synth.Date(time.August, 5)
	v := NewVetter(buildMatcher(t, day))
	v.SetVersion(1)
	store := &recordingStore{}
	a := NewAdmitter(v, 0, 0)
	a.UseSharedStore(store)
	kit := []byte(kitDoc(t, day))

	v.Update(buildMatcher(t, day))
	if d := a.VetBytes(kit); !d.Blocked {
		t.Fatalf("kit admitted between Update and SetVersion: %+v", d)
	}
	if got := store.versions(); len(got) != 0 {
		t.Fatalf("published under versions %v before the new set was named", got)
	}
	if got := v.Version(); got != 0 {
		t.Errorf("Version() = %d between Update and SetVersion, want 0", got)
	}
	v.SetVersion(2)
	a.VetBytes(kit)
	if got := store.versions(); len(got) != 1 || got[0] != 2 {
		t.Errorf("published under versions %v, want [2]", got)
	}
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
// admitter: kit blocked, benign served intact, duplicate concurrent
// fetches coalesced without changing any response.
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
	a := NewAdmitter(v, 0, 0)
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
		replicas[i] = NewAdmitter(vetters[i], 0, 0)
		replicas[i].UseSharedStore(cache)
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
	a := NewAdmitter(v, 0, 0)
	a.UseSharedStore(cache)

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
	a := NewAdmitter(v, 0, 0)
	a.UseSharedStore(cache)
	a.VetBytes([]byte(kitDoc(t, day)))
	if cache.Len() != 0 {
		t.Errorf("unversioned vetter published %d verdicts to the fleet", cache.Len())
	}
	if puts := a.Metrics()["shared_puts"].(int64); puts != 0 {
		t.Errorf("shared_puts = %d, want 0", puts)
	}
}

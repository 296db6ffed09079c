package gateway

import (
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"kizzle"
	"kizzle/internal/verdictcache"
	"kizzle/synth"
)

// trainSignatures produces a real signature set from one synthetic day.
func trainSignatures(t testing.TB, day int) []kizzle.Signature {
	t.Helper()
	c := kizzle.New(kizzle.WithSignatureSlack(2))
	for _, fam := range synth.Kits() {
		c.AddKnown(fam.String(), synth.Payload(fam, day-1))
	}
	cfg := synth.DefaultConfig()
	cfg.BenignPerDay = 60
	stream, err := synth.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var batch []kizzle.Sample
	for _, s := range stream.Day(day) {
		batch = append(batch, kizzle.Sample{ID: s.ID, Content: s.Content})
	}
	res, err := c.Process(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Signatures) == 0 {
		t.Fatal("no signatures trained")
	}
	return res.Signatures
}

// buildMatcher trains a matcher on one synthetic day.
func buildMatcher(t testing.TB, day int) *kizzle.Matcher {
	t.Helper()
	m, err := kizzle.NewMatcher(trainSignatures(t, day))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func kitDoc(t testing.TB, day int) string {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.BenignPerDay = 0
	stream, err := synth.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stream.Day(day) {
		if s.Family == synth.Angler {
			return s.Content
		}
	}
	t.Fatal("no Angler sample")
	return ""
}

func TestVetter(t *testing.T) {
	day := synth.Date(time.August, 5)
	v := NewVetter(buildMatcher(t, day))
	if d := v.VetBytes([]byte(`var x = document.title;`)); d.Blocked {
		t.Error("benign blocked")
	}
	d := v.VetBytes([]byte(kitDoc(t, day)))
	if !d.Blocked || d.Family != "Angler" {
		t.Errorf("kit decision = %+v", d)
	}
	scanned, blocked := v.Stats()
	if scanned != 2 || blocked != 1 {
		t.Errorf("stats = %d/%d, want 2/1", scanned, blocked)
	}
}

// TestVetterNilScanner: before any set is deployed every document
// passes, and counts as unarmed — never as scanned.
func TestVetterNilScanner(t *testing.T) {
	v := NewVetter(nil)
	const n = 3
	for i := 0; i < n; i++ {
		if d := v.VetBytes([]byte("anything")); d.Blocked {
			t.Error("nil scanner must pass everything")
		}
	}
	assertUnarmed(t, v, n)
}

// assertUnarmed checks that v scanned nothing and admitted n documents
// unarmed.
func assertUnarmed(t *testing.T, v *Vetter, n int64) {
	t.Helper()
	if scanned, _ := v.Stats(); scanned != 0 {
		t.Errorf("scanned = %d, want 0 (no scanner deployed)", scanned)
	}
	if got := v.Metrics()["unarmed"].(int64); got != n {
		t.Errorf("unarmed = %d, want %d", got, n)
	}
}

func TestVetterLiveUpdate(t *testing.T) {
	day := synth.Date(time.August, 5)
	v := NewVetter(nil)
	doc := kitDoc(t, day)
	if v.VetBytes([]byte(doc)).Blocked {
		t.Fatal("unarmed vetter blocked")
	}
	v.Update(buildMatcher(t, day))
	if !v.VetBytes([]byte(doc)).Blocked {
		t.Fatal("updated vetter must block")
	}
}

func TestVetterConcurrent(t *testing.T) {
	day := synth.Date(time.August, 5)
	v := NewVetter(buildMatcher(t, day))
	doc := []byte(kitDoc(t, day))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if !v.VetBytes(doc).Blocked {
					t.Error("concurrent vet missed")
					return
				}
			}
		}()
	}
	// Concurrent updates while scanning.
	for i := 0; i < 5; i++ {
		v.Update(buildMatcher(t, day))
	}
	wg.Wait()
}

// TestProxyBlocksKitServesBenign drives the reverse proxy end to end with
// a real upstream HTTP server.
func TestProxyBlocksKitServesBenign(t *testing.T) {
	day := synth.Date(time.August, 5)
	kit := kitDoc(t, day)
	benign := `<html><body><script>var x = document.title;</script></body></html>`

	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/landing":
			w.Header().Set("Content-Type", "text/html")
			io.WriteString(w, kit)
		case "/app.js":
			w.Header().Set("Content-Type", "application/javascript")
			io.WriteString(w, `console.log("hello");`)
		case "/logo.png":
			w.Header().Set("Content-Type", "image/png")
			w.Write([]byte{0x89, 'P', 'N', 'G'})
		default:
			w.Header().Set("Content-Type", "text/html")
			io.WriteString(w, benign)
		}
	}))
	defer upstream.Close()

	target, err := url.Parse(upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(NewProxy(target, NewVetter(buildMatcher(t, day))))
	defer front.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/landing"); code != http.StatusForbidden {
		t.Errorf("kit landing: status %d body %.60q, want 403", code, body)
	}
	if code, body := get("/index.html"); code != http.StatusOK || body != benign {
		t.Errorf("benign page: status %d, body mismatch", code)
	}
	if code, _ := get("/app.js"); code != http.StatusOK {
		t.Errorf("benign js: status %d", code)
	}
	if code, _ := get("/logo.png"); code != http.StatusOK {
		t.Errorf("image passthrough: status %d", code)
	}
}

// TestProxyScansDecodedBody pins that the proxy scans what the browser
// renders, whatever the client advertises: a gzipped kit landing is
// blocked, a gzipped benign page arrives decoded, and a body in a coding
// the proxy cannot decode (an unsolicited br) is refused and counted. A
// bodiless 304 that names a coding passes untouched.
func TestProxyScansDecodedBody(t *testing.T) {
	day := synth.Date(time.August, 5)
	kit := kitDoc(t, day)
	benign := `<html><body><script>var x = document.title;</script></body></html>`

	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		switch r.URL.Path {
		case "/br.html":
			w.Header().Set("Content-Encoding", "br")
			w.Write([]byte{0x1b, 0x03, 0x00, 0xf8})
			return
		case "/cached.html":
			w.Header().Set("Content-Encoding", "gzip")
			w.WriteHeader(http.StatusNotModified)
			return
		}
		page := benign
		if r.URL.Path == "/landing" {
			page = kit
		}
		if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
			io.WriteString(w, page)
			return
		}
		w.Header().Set("Content-Encoding", "gzip")
		zw := gzip.NewWriter(w)
		io.WriteString(zw, page)
		zw.Close()
	}))
	defer upstream.Close()

	target, err := url.Parse(upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(target, NewVetter(buildMatcher(t, day)))
	front := httptest.NewServer(p)
	defer front.Close()

	get := func(path string) (int, string) {
		req, err := http.NewRequest(http.MethodGet, front.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		// A browser's header: set explicitly, so the client does not
		// decode either, and the test sees exactly what the proxy sent.
		req.Header.Set("Accept-Encoding", "gzip, deflate, br")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/landing"); code != http.StatusForbidden {
		t.Errorf("gzipped kit landing: status %d body %.60q, want 403", code, body)
	}
	if code, body := get("/index.html"); code != http.StatusOK || body != benign {
		t.Errorf("gzipped benign page: status %d body %.60q, want 200 with the decoded page", code, body)
	}
	if code, _ := get("/br.html"); code != http.StatusBadGateway {
		t.Errorf("unsolicited br body: status %d, want 502", code)
	}
	if code, _ := get("/cached.html"); code != http.StatusNotModified {
		t.Errorf("bodiless 304: status %d, want 304", code)
	}
	if n := p.Metrics()["encoded"]; n != int64(1) {
		t.Errorf("encoded counter = %v, want 1", n)
	}
}

func TestProxyOversizedPassesUnscanned(t *testing.T) {
	day := synth.Date(time.August, 5)
	big := make([]byte, 2048)
	for i := range big {
		big[i] = 'a'
	}
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.Write(big)
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
	if resp.StatusCode != http.StatusOK || len(body) != len(big) {
		t.Errorf("oversized response: status %d, %d bytes (want 200, %d)", resp.StatusCode, len(body), len(big))
	}
	assertOversized(t, p, v, 1)
}

// assertOversized checks that p passed n responses through as oversized
// and that none of them reached the vetter.
func assertOversized(t *testing.T, p *Proxy, v *Vetter, n int64) {
	t.Helper()
	if got := p.Metrics()["oversized"].(int64); got != n {
		t.Errorf("oversized = %d, want %d", got, n)
	}
	if scanned, _ := v.Stats(); scanned != 0 {
		t.Errorf("scanned = %d, want 0 (oversized bodies pass unscanned)", scanned)
	}
}

func TestScannable(t *testing.T) {
	tests := []struct {
		ct   string
		want bool
	}{
		{"text/html; charset=utf-8", true},
		{"application/javascript", true},
		{"text/javascript", true},
		{"application/ecmascript", true},
		{"image/png", false},
		{"application/octet-stream", false},
		{"", false},
	}
	for _, tt := range tests {
		if got := scannable(tt.ct); got != tt.want {
			t.Errorf("scannable(%q) = %v, want %v", tt.ct, got, tt.want)
		}
	}
}

// TestAdmitterNilScanner: before any set is deployed the admitter passes
// every document unarmed, and publishes nothing to the shared store even
// when the vetter already carries a version.
func TestAdmitterNilScanner(t *testing.T) {
	v := NewVetter(nil)
	v.SetVersion(1)
	cache := verdictcache.New(0)
	a := NewAdmitter(v, 0, 0)
	a.UseSharedStore(cache)
	for _, doc := range []string{"a", "b"} {
		if d := a.VetBytes([]byte(doc)); d.Blocked {
			t.Error("nil scanner blocked a document")
		}
	}
	assertUnarmed(t, v, 2)
	if cache.Len() != 0 {
		t.Errorf("unarmed admissions published %d verdicts", cache.Len())
	}
}

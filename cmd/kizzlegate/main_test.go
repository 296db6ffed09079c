package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kizzle"
	"kizzle/sigdb"
	"kizzle/synth"
)

func TestRunValidation(t *testing.T) {
	if err := run([]string{"-sigfile", "x.json"}, nil); err == nil {
		t.Error("missing -upstream must fail")
	}
	if err := run([]string{"-upstream", "http://x"}, nil); err == nil {
		t.Error("missing signature source must fail")
	}
	if err := run([]string{"-upstream", "://bad", "-sigfile", "x.json"}, nil); err == nil {
		t.Error("bad upstream URL must fail")
	}
	if err := run([]string{"-upstream", "http://x", "-sigfile", "x.json", "-strict"}, nil); err == nil {
		t.Error("-strict without -sigurl must fail")
	}
	if err := run([]string{"-upstream", "http://x", "-sigurl", "http://s", "-certkey", "k"}, nil); err == nil {
		t.Error("-certkey without -strict must fail")
	}
	if err := run([]string{"-upstream", "http://x", "-sigurl", "http://s", "-attesturl", "http://a"}, nil); err == nil {
		t.Error("-attesturl without -strict must fail")
	}
	// A missing sigfile opens as an empty store; use the ready hook so no
	// listener is bound.
	ready := make(chan http.Handler, 1)
	if err := run([]string{"-upstream", "http://x", "-sigfile", filepath.Join(t.TempDir(), "missing.json")}, ready); err != nil {
		t.Errorf("missing sigfile should start empty, got %v", err)
	}
	<-ready
}

// TestGateEndToEnd builds a signature file from the synthetic stream and
// verifies the configured proxy handler blocks a kit landing page.
func TestGateEndToEnd(t *testing.T) {
	day := synth.Date(time.August, 5)

	// Train and persist signatures.
	c := kizzle.New(kizzle.WithSignatureSlack(2))
	for _, fam := range synth.Kits() {
		c.AddKnown(fam.String(), synth.Payload(fam, day-1))
	}
	scfg := synth.DefaultConfig()
	scfg.BenignPerDay = 40
	stream, err := synth.NewStream(scfg)
	if err != nil {
		t.Fatal(err)
	}
	var batch []kizzle.Sample
	var kitDoc string
	for _, s := range stream.Day(day) {
		batch = append(batch, kizzle.Sample{ID: s.ID, Content: s.Content})
		if s.Family == synth.Angler && kitDoc == "" {
			kitDoc = s.Content
		}
	}
	res, err := c.Process(batch)
	if err != nil {
		t.Fatal(err)
	}
	sigPath := filepath.Join(t.TempDir(), "sigs.json")
	store, err := sigdb.Open(sigPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Replace(res.Signatures, nil); err != nil {
		t.Fatal(err)
	}

	// Upstream origin serving the kit page and a benign page.
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		if r.URL.Path == "/landing" {
			io.WriteString(w, kitDoc)
			return
		}
		io.WriteString(w, "<html><body>ok</body></html>")
	}))
	defer upstream.Close()

	// Obtain the configured handler through the test hook.
	ready := make(chan http.Handler, 1)
	go func() {
		if err := run([]string{"-upstream", upstream.URL, "-sigfile", sigPath}, ready); err != nil {
			t.Error(err)
		}
	}()
	var handler http.Handler
	select {
	case handler = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("gate never became ready")
	}
	front := httptest.NewServer(handler)
	defer front.Close()

	resp, err := http.Get(front.URL + "/landing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("kit landing status = %d, want 403", resp.StatusCode)
	}
	resp, err = http.Get(front.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("benign page status = %d, want 200", resp.StatusCode)
	}
}

// TestGateMetricsAndSigurl runs the gate against a live signature server
// and an origin, with the metrics endpoint enabled: the ready hook hands
// back both handlers, the gate is armed from the server before ready (no
// unprotected window), and /metrics reports the serving counters.
func TestGateMetricsAndSigurl(t *testing.T) {
	day := synth.Date(time.August, 5)

	c := kizzle.New(kizzle.WithSignatureSlack(2))
	for _, fam := range synth.Kits() {
		c.AddKnown(fam.String(), synth.Payload(fam, day-1))
	}
	scfg := synth.DefaultConfig()
	scfg.BenignPerDay = 40
	stream, err := synth.NewStream(scfg)
	if err != nil {
		t.Fatal(err)
	}
	var batch []kizzle.Sample
	var kitDoc string
	for _, s := range stream.Day(day) {
		batch = append(batch, kizzle.Sample{ID: s.ID, Content: s.Content})
		if s.Family == synth.Angler && kitDoc == "" {
			kitDoc = s.Content
		}
	}
	res, err := c.Process(batch)
	if err != nil {
		t.Fatal(err)
	}
	store, err := sigdb.Open(filepath.Join(t.TempDir(), "sigs.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Replace(res.Signatures, nil); err != nil {
		t.Fatal(err)
	}
	sigServer := httptest.NewServer(store.Handler())
	defer sigServer.Close()

	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		if r.URL.Path == "/landing" {
			io.WriteString(w, kitDoc)
			return
		}
		io.WriteString(w, "<html><body>ok</body></html>")
	}))
	defer upstream.Close()

	ready := make(chan http.Handler, 2)
	go func() {
		if err := run([]string{
			"-upstream", upstream.URL,
			"-sigurl", sigServer.URL + "/signatures",
			"-metricslisten", "127.0.0.1:0",
		}, ready); err != nil {
			t.Error(err)
		}
	}()
	var proxy, metrics http.Handler
	for i := 0; i < 2; i++ {
		select {
		case h := <-ready:
			if proxy == nil {
				proxy = h
			} else {
				metrics = h
			}
		case <-time.After(5 * time.Second):
			t.Fatal("gate never became ready")
		}
	}

	front := httptest.NewServer(proxy)
	defer front.Close()
	resp, err := http.Get(front.URL + "/landing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("kit landing status = %d, want 403 (gate must be armed at ready)", resp.StatusCode)
	}
	resp, err = http.Get(front.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("benign page status = %d, want 200", resp.StatusCode)
	}

	rec := httptest.NewRecorder()
	metrics.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	var m struct {
		Vetter struct {
			DocsScanned int64 `json:"scanned"`
			DocsBlocked int64 `json:"blocked"`
			SigVersion  int64 `json:"matcher_version"`
		} `json:"vetter"`
		Proxy struct {
			Oversized *int64 `json:"oversized"`
		} `json:"proxy"`
		Admitter struct {
			Requests int64 `json:"requests"`
		} `json:"admitter"`
		Sigclient struct {
			FetchesFull int64 `json:"fetches_full"`
		} `json:"sigclient"`
		Runtime map[string]any `json:"runtime"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, rec.Body.String())
	}
	if m.Vetter.DocsScanned != 2 || m.Vetter.DocsBlocked != 1 {
		t.Errorf("vetter metrics scanned/blocked = %d/%d, want 2/1", m.Vetter.DocsScanned, m.Vetter.DocsBlocked)
	}
	if m.Vetter.SigVersion != 1 {
		t.Errorf("matcher_version = %d, want 1", m.Vetter.SigVersion)
	}
	if m.Proxy.Oversized == nil || *m.Proxy.Oversized != 0 {
		t.Errorf("proxy oversized = %v, want 0 (and present)", m.Proxy.Oversized)
	}
	if m.Admitter.Requests != 2 {
		t.Errorf("admitter requests = %d, want 2", m.Admitter.Requests)
	}
	if m.Sigclient.FetchesFull != 1 {
		t.Errorf("sigclient fetches_full = %d, want 1", m.Sigclient.FetchesFull)
	}
	if len(m.Runtime) == 0 {
		t.Error("runtime stats missing")
	}
}

// TestGateStrictAttestation runs the gate in strict mode against two
// publishers. The certified one (attested publish, shared HMAC key, the
// attest endpoint derived from -sigurl) arms the gate and blocks kit
// traffic; the uncertified one is refused — the strict gate deploys
// nothing from it and counts the rejection.
func TestGateStrictAttestation(t *testing.T) {
	day := synth.Date(time.August, 5)
	c := kizzle.New(kizzle.WithSignatureSlack(2))
	for _, fam := range synth.Kits() {
		c.AddKnown(fam.String(), synth.Payload(fam, day-1))
	}
	scfg := synth.DefaultConfig()
	scfg.BenignPerDay = 40
	stream, err := synth.NewStream(scfg)
	if err != nil {
		t.Fatal(err)
	}
	var batch []kizzle.Sample
	var kitDoc string
	for _, s := range stream.Day(day) {
		batch = append(batch, kizzle.Sample{ID: s.ID, Content: s.Content})
		if s.Family == synth.Angler && kitDoc == "" {
			kitDoc = s.Content
		}
	}
	res, err := c.Process(batch)
	if err != nil {
		t.Fatal(err)
	}

	key := "gate-strict-key"
	certified := sigdb.New()
	certified.SetCertKey([]byte(key))
	primary := sigdb.PathDescriptor{Mode: "fleet", Shards: 2, Dispatch: "stream", Affinity: true}
	verify := sigdb.PathDescriptor{Mode: "in-process", Dispatch: "batch", Seed: 7}
	if _, _, _, err := certified.PublishAttested(res.Signatures, nil, "corpus", primary, verify); err != nil {
		t.Fatal(err)
	}
	uncertified := sigdb.New()
	if _, err := uncertified.Replace(res.Signatures, nil); err != nil {
		t.Fatal(err)
	}

	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		if r.URL.Path == "/landing" {
			io.WriteString(w, kitDoc)
			return
		}
		io.WriteString(w, "<html><body>ok</body></html>")
	}))
	defer upstream.Close()

	startStrictGate := func(store *sigdb.Store) (http.Handler, http.Handler) {
		t.Helper()
		mux := http.NewServeMux()
		mux.Handle("/signatures", store.Handler())
		mux.Handle("/attest", store.AttestHandler())
		sigServer := httptest.NewServer(mux)
		t.Cleanup(sigServer.Close)
		ready := make(chan http.Handler, 2)
		go func() {
			// No -attesturl: the gate must derive it from -sigurl.
			if err := run([]string{
				"-upstream", upstream.URL,
				"-sigurl", sigServer.URL + "/signatures",
				"-strict", "-certkey", key,
				"-metricslisten", "127.0.0.1:0",
			}, ready); err != nil {
				t.Error(err)
			}
		}()
		var proxy, metrics http.Handler
		for i := 0; i < 2; i++ {
			select {
			case h := <-ready:
				if proxy == nil {
					proxy = h
				} else {
					metrics = h
				}
			case <-time.After(10 * time.Second):
				t.Fatal("strict gate never became ready")
			}
		}
		return proxy, metrics
	}
	gateMetrics := func(h http.Handler) map[string]json.RawMessage {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		var m struct {
			Sigclient map[string]json.RawMessage `json:"sigclient"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatalf("metrics not JSON: %v", err)
		}
		return m.Sigclient
	}

	// Certified publisher: the gate arms from the attested set and blocks.
	proxy, metrics := startStrictGate(certified)
	front := httptest.NewServer(proxy)
	defer front.Close()
	resp, err := http.Get(front.URL + "/landing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("kit landing through certified strict gate = %d, want 403", resp.StatusCode)
	}
	if sc := gateMetrics(metrics); string(sc["attest_verified"]) != "1" {
		t.Errorf("attest_verified = %s, want 1", sc["attest_verified"])
	}

	// Uncertified publisher: the strict gate refuses to deploy, so the kit
	// page passes through unblocked — and the rejection is counted.
	proxy, metrics = startStrictGate(uncertified)
	front2 := httptest.NewServer(proxy)
	defer front2.Close()
	resp, err = http.Get(front2.URL + "/landing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("kit landing through unarmed strict gate = %d, want 200 (nothing deployed)", resp.StatusCode)
	}
	if sc := gateMetrics(metrics); string(sc["attest_rejected"]) != "1" {
		t.Errorf("attest_rejected = %s, want 1", sc["attest_rejected"])
	}
}

// TestSigfileFormat guards the on-disk contract: the file written by sigdb
// is plain JSON with a version and signatures array.
func TestSigfileFormat(t *testing.T) {
	day := synth.Date(time.August, 5)
	c := kizzle.New()
	for _, fam := range synth.Kits() {
		c.AddKnown(fam.String(), synth.Payload(fam, day-1))
	}
	scfg := synth.DefaultConfig()
	scfg.BenignPerDay = 20
	stream, err := synth.NewStream(scfg)
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
	path := filepath.Join(t.TempDir(), "sigs.json")
	store, err := sigdb.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Replace(res.Signatures, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version    int64             `json:"version"`
		Signatures []json.RawMessage `json:"signatures"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != 1 || len(doc.Signatures) == 0 {
		t.Errorf("sigfile: version %d, %d signatures", doc.Version, len(doc.Signatures))
	}
}

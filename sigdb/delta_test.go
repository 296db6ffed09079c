package sigdb

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"kizzle"
	"kizzle/synth"
)

// oneFamilyChange returns base with one family's signatures swapped for
// that family's set from another training day — the steady-state shape of
// a provider update, where a day's batch touches a kit or two out of
// dozens. It also returns the changed family.
func oneFamilyChange(t *testing.T, base, other []kizzle.Signature) ([]kizzle.Signature, string) {
	t.Helper()
	target := base[0].Family()
	var out []kizzle.Signature
	for _, sig := range base {
		if sig.Family() != target {
			out = append(out, sig)
		}
	}
	n := len(out)
	for _, sig := range other {
		if sig.Family() == target {
			out = append(out, sig)
		}
	}
	if len(out) == n {
		t.Fatalf("other day trained no signatures for %s", target)
	}
	return out, target
}

// TestClientDeltaEquivalence is the delta≡full differential: a replica
// updated through the delta path must hold the byte-identical snapshot a
// full download yields, produce identical scan results, spend less than
// half the wire bytes on a one-family change, and recompile only the
// changed family. Both publishes are certified (PublishAttested) and
// both clients run strict, so the differential also proves the delta
// channel composes with attestation: the snapshot a replica reconstructs
// from a delta hashes to exactly the SetDigest the publisher attested.
func TestClientDeltaEquivalence(t *testing.T) {
	day := synth.Date(time.August, 5)
	v1 := trainSignatures(t, day)
	v2, changed := oneFamilyChange(t, v1, trainSignatures(t, day+1))

	key := []byte("delta-equivalence-key")
	store := New()
	store.SetCertKey(key)
	if _, _, _, err := store.PublishAttested(v1, nil, "corpus-day1", testPrimaryPath, testVerifyPath); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/signatures", store.Handler())
	mux.Handle("/attest", store.AttestHandler())
	srv := httptest.NewServer(mux)
	defer srv.Close()
	ctx := context.Background()
	strictClient := func() *Client {
		return &Client{URL: srv.URL + "/signatures", Strict: true, AttestURL: srv.URL + "/attest", CertKey: key}
	}

	deltaClient := strictClient()
	if _, ok, err := deltaClient.Fetch(ctx); err != nil || !ok {
		t.Fatalf("initial fetch: ok=%v err=%v", ok, err)
	}
	if _, _, _, err := store.PublishAttested(v2, nil, "corpus-day2", testPrimaryPath, testVerifyPath); err != nil {
		t.Fatal(err)
	}
	got, ok, err := deltaClient.Fetch(ctx)
	if err != nil || !ok {
		t.Fatalf("delta fetch: ok=%v err=%v", ok, err)
	}

	fullClient := strictClient()
	want, ok, err := fullClient.Fetch(ctx)
	if err != nil || !ok {
		t.Fatalf("full fetch: ok=%v err=%v", ok, err)
	}

	// The delta-reconstructed snapshot must hash to the digest the
	// publisher attested for this version — the end-to-end certification
	// claim across the delta wire.
	att, okAtt := store.Attestation(got.Version)
	if !okAtt {
		t.Fatalf("no attestation for delta-fetched v%d", got.Version)
	}
	gotDigest, err := got.SetDigest()
	if err != nil {
		t.Fatal(err)
	}
	if gotDigest != att.SetDigest {
		t.Fatalf("delta-reconstructed set digest %s, attested %s", gotDigest, att.SetDigest)
	}
	if deltaClient.Metrics()["attest_verified"].(int64) != 2 {
		t.Errorf("attest_verified = %v, want 2 (both strict fetches)", deltaClient.Metrics()["attest_verified"])
	}

	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("delta-updated snapshot differs from full download:\n%.200s\nvs\n%.200s", gotJSON, wantJSON)
	}

	dm := deltaClient.Metrics()
	if dm["fetches_delta"].(int64) != 1 || dm["delta_apply_failures"].(int64) != 0 {
		t.Fatalf("delta path not taken: %v", dm)
	}
	deltaBytes := dm["wire_bytes_delta"].(int64)
	fullBytes := fullClient.Metrics()["wire_bytes_full"].(int64)
	if deltaBytes*2 > fullBytes {
		t.Errorf("one-family delta cost %d wire bytes vs %d full — less than 50%% savings", deltaBytes, fullBytes)
	}
	if reused := dm["signatures_reused"].(int64); reused == 0 {
		t.Error("delta update recompiled every family; incremental cache unused")
	}

	// The compiled form deployed from the delta must scan identically.
	mDelta, _ := deltaClient.Matcher()
	mFull, _ := fullClient.Matcher()
	if mDelta == nil || mFull == nil {
		t.Fatal("Matcher() returned nil after successful Fetch")
	}
	cfg := synth.DefaultConfig()
	cfg.BenignPerDay = 10
	stream, err := synth.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stream.Day(day + 1) {
		a, b := mDelta.Scan(s.Content), mFull.Scan(s.Content)
		if len(a) != len(b) {
			t.Fatalf("sample %s: %d vs %d matches", s.ID, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("sample %s match %d: %+v vs %+v", s.ID, i, a[i], b[i])
			}
		}
	}
	_ = changed
}

// TestDeltaUnavailableFallsBack: a client whose version fell out of the
// digest history must get a full snapshot (correctness never depends on
// history depth), and snapshotAndDelta must refuse deltas it cannot
// prove.
func TestDeltaUnavailableFallsBack(t *testing.T) {
	day := synth.Date(time.August, 5)
	a := trainSignatures(t, day)
	b, _ := oneFamilyChange(t, a, trainSignatures(t, day+1))

	store := New()
	if _, err := store.Replace(a, nil); err != nil {
		t.Fatal(err)
	}
	// Push version 1 beyond the history window.
	for i := 0; i < deltaHistory+1; i++ {
		sigs := a
		if i%2 == 0 {
			sigs = b
		}
		if _, err := store.Replace(sigs, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, d := store.snapshotAndDelta(1); d != nil {
		t.Error("delta offered for a version outside history")
	}
	if _, d := store.snapshotAndDelta(store.Version() - 1); d == nil {
		t.Error("no delta for the immediately preceding version")
	}
	if _, d := store.snapshotAndDelta(0); d != nil {
		t.Error("delta offered against version 0")
	}
	if _, d := store.snapshotAndDelta(store.Version()); d != nil {
		t.Error("delta offered to an up-to-date client")
	}

	// Over the wire: a stale since with delta=1 still yields a usable full
	// snapshot.
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "?since=1&delta=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != store.Version() || len(snap.Signatures) == 0 {
		t.Fatalf("fallback snapshot v%d with %d signatures", snap.Version, len(snap.Signatures))
	}
}

// TestDeltaApplyRejectsMismatch: inconsistent deltas must error, never
// fabricate a signature set.
func TestDeltaApplyRejectsMismatch(t *testing.T) {
	day := synth.Date(time.August, 5)
	sigs := trainSignatures(t, day)
	prev := Snapshot{Version: 3, Signatures: sigs}

	if _, err := (Delta{Since: 2, Version: 4}).Apply(prev); err == nil {
		t.Error("wrong base version accepted")
	}
	if _, err := (Delta{Since: 3, Version: 4, Families: []string{"X"}, Order: []int{5}}).Apply(prev); err == nil {
		t.Error("out-of-range order index accepted")
	}
	fam := sigs[0].Family()
	over := Delta{Since: 3, Version: 4, Families: []string{fam}, Order: make([]int, len(sigs)+10)}
	if _, err := over.Apply(prev); err == nil {
		t.Error("over-consuming delta accepted")
	}
	under := Delta{Since: 3, Version: 4, Families: []string{fam}, Order: []int{0}}
	if len(sigsOfFamily(sigs, fam)) > 1 {
		if _, err := under.Apply(prev); err == nil {
			t.Error("under-consuming delta accepted")
		}
	}
}

func sigsOfFamily(sigs []kizzle.Signature, fam string) []kizzle.Signature {
	var out []kizzle.Signature
	for _, s := range sigs {
		if s.Family() == fam {
			out = append(out, s)
		}
	}
	return out
}

// TestHandlerETag: every GET carries a versioned ETag and If-None-Match
// short-circuits to 304; the Client uses it so steady-state polls move no
// body bytes.
func TestHandlerETag(t *testing.T) {
	day := synth.Date(time.August, 5)
	store := New()
	if _, err := store.Replace(trainSignatures(t, day), nil); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on 200")
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match hit returned %d, want 304", resp.StatusCode)
	}

	c := &Client{URL: srv.URL}
	ctx := context.Background()
	if _, ok, err := c.Fetch(ctx); err != nil || !ok {
		t.Fatalf("first fetch: ok=%v err=%v", ok, err)
	}
	if _, ok, err := c.Fetch(ctx); err != nil || ok {
		t.Fatalf("second fetch: ok=%v err=%v, want 304", ok, err)
	}
	if c.Metrics()["not_modified"].(int64) != 1 {
		t.Errorf("not_modified = %v, want 1", c.Metrics()["not_modified"])
	}
}

// TestJitteredInterval pins the poll-jitter bounds: within ±Jitter of the
// interval, never non-positive, and actually spread. The jitter source is
// per-client (seeded via JitterSeed), so the test depends on no global
// state and two clients with the same seed draw the same sequence.
func TestJitteredInterval(t *testing.T) {
	c := &Client{Jitter: 0.1, JitterSeed: 42}
	base := time.Second
	lo, hi := time.Duration(float64(base)*0.9), time.Duration(float64(base)*1.1)
	distinct := map[time.Duration]bool{}
	var seq []time.Duration
	for i := 0; i < 500; i++ {
		d := c.jitteredInterval(base)
		if d < lo || d > hi {
			t.Fatalf("jittered interval %v outside [%v, %v]", d, lo, hi)
		}
		distinct[d] = true
		seq = append(seq, d)
	}
	if len(distinct) < 10 {
		t.Errorf("jitter produced only %d distinct intervals", len(distinct))
	}
	// Same seed, same sequence: deterministic under test, yet two clients
	// with different seeds (or the default time-derived seed) still spread.
	twin := &Client{Jitter: 0.1, JitterSeed: 42}
	for i, want := range seq {
		if got := twin.jitteredInterval(base); got != want {
			t.Fatalf("same-seed draw %d: got %v, want %v", i, got, want)
		}
	}
	other := &Client{Jitter: 0.1, JitterSeed: 43}
	same := 0
	for _, want := range seq {
		if other.jitteredInterval(base) == want {
			same++
		}
	}
	if same == len(seq) {
		t.Error("different seeds produced identical jitter sequences")
	}
	if (&Client{}).jitteredInterval(base) != base {
		t.Error("zero jitter must leave the interval unchanged")
	}
}

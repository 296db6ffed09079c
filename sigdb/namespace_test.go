package sigdb

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kizzle"
	"kizzle/gateway"
	"kizzle/synth"
)

// webkitTrainDay is mid-epoch for every phishing-kit family (no version
// flips between day-1 known seeding and the day's traffic), so the
// webkit compile is deterministic across the days this file uses.
const webkitTrainDay = 34

// trainWebkitSignatures compiles the phishing-kit stream under the
// webkit ingest profile with workload-namespaced known labels, the way
// a sigserve publisher running -profile webkit does.
func trainWebkitSignatures(t testing.TB, day int) []kizzle.Signature {
	t.Helper()
	c := kizzle.New(kizzle.WithSignatureSlack(2), kizzle.WithProfile("webkit"))
	for _, fam := range synth.WebkitKits() {
		c.AddKnown("webkit/"+fam.String(), synth.WebkitPayload(fam, day-1))
	}
	cfg := synth.DefaultWebkitConfig()
	cfg.BenignPerDay = 20
	stream, err := synth.NewWebkitStream(cfg)
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
		t.Fatal("no webkit signatures trained")
	}
	for _, sig := range res.Signatures {
		if !strings.HasPrefix(sig.Family(), "webkit/") {
			t.Fatalf("webkit compile produced non-namespaced family %q", sig.Family())
		}
	}
	return res.Signatures
}

// TestNamespacedFamiliesEndToEnd walks a mixed JS + phishing-kit set
// through the whole distribution chain — certified publish, delta
// computation, strict-client delta reconstruction, attestation digest,
// gateway verdict — and checks the workload/family form survives every
// hop: the delta names the changed webkit family with its namespace,
// the reconstructed snapshot hashes to the attested digest, and a
// gateway built from it reports phishing hits under webkit/ names.
func TestNamespacedFamiliesEndToEnd(t *testing.T) {
	day := synth.Date(time.August, 5)
	jsV1 := trainSignatures(t, day)
	wkV1 := trainWebkitSignatures(t, webkitTrainDay)
	v1 := append(append([]kizzle.Signature{}, jsV1...), wkV1...)

	// v2 changes both workloads: one JS family swaps to the next day's
	// set, and one webkit family gains an extra signature (relabeled from
	// a spare JS one — the cheapest deterministic content change).
	jsV2, jsChanged := oneFamilyChange(t, jsV1, trainSignatures(t, day+1))
	wkChanged := wkV1[0].Family()
	extra := renameFamily(t, jsV1[len(jsV1)-1], wkChanged)
	v2 := append(append([]kizzle.Signature{}, jsV2...), wkV1...)
	v2 = append(v2, extra)

	key := []byte("namespace-e2e-key")
	mixedPath := PathDescriptor{Mode: "fleet", Shards: 2, Dispatch: "stream", Affinity: true, Profile: "js,webkit"}
	store := New()
	store.SetCertKey(key)
	if _, _, _, err := store.PublishAttested(v1, nil, "corpus-day1", mixedPath, testVerifyPath); err != nil {
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
	if _, _, _, err := store.PublishAttested(v2, nil, "corpus-day2", mixedPath, testVerifyPath); err != nil {
		t.Fatal(err)
	}

	// The server-side delta names changed families verbatim: the bare JS
	// family and the namespaced webkit one, never a stripped basename.
	_, d := store.snapshotAndDelta(1)
	if d == nil {
		t.Fatal("no delta offered for the immediately preceding version")
	}
	if _, ok := d.Changed[jsChanged]; !ok {
		t.Fatalf("delta changed set %v missing changed JS family %q", d.Families, jsChanged)
	}
	if _, ok := d.Changed[wkChanged]; !ok {
		t.Fatalf("delta changed set %v missing changed webkit family %q", d.Families, wkChanged)
	}
	if base := strings.TrimPrefix(wkChanged, "webkit/"); d.Changed[base] != nil {
		t.Fatalf("delta carries the stripped basename %q alongside %q", base, wkChanged)
	}
	for fam := range d.Changed {
		if fam != jsChanged && fam != wkChanged {
			t.Fatalf("delta recompiles untouched family %q", fam)
		}
	}

	got, ok, err := deltaClient.Fetch(ctx)
	if err != nil || !ok {
		t.Fatalf("delta fetch: ok=%v err=%v", ok, err)
	}
	if deltaClient.Metrics()["fetches_delta"].(int64) != 1 {
		t.Fatalf("delta path not taken: %v", deltaClient.Metrics())
	}

	// Delta reconstruction is byte-equivalent to a full download and
	// hashes to the digest the publisher attested for this version.
	fullClient := strictClient()
	want, ok, err := fullClient.Fetch(ctx)
	if err != nil || !ok {
		t.Fatalf("full fetch: ok=%v err=%v", ok, err)
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
	att, okAtt := store.Attestation(got.Version)
	if !okAtt {
		t.Fatalf("no attestation for v%d", got.Version)
	}
	gotDigest, err := got.SetDigest()
	if err != nil {
		t.Fatal(err)
	}
	if gotDigest != att.SetDigest {
		t.Fatalf("delta-reconstructed set digest %s, attested %s", gotDigest, att.SetDigest)
	}
	if att.Primary.Profile != "js,webkit" {
		t.Fatalf("attested primary-path profile %q, want js,webkit", att.Primary.Profile)
	}

	// Both namespaces survive reconstruction, and a gateway built from
	// the reconstructed set reports phishing hits under webkit/ names.
	var bare, namespaced int
	for _, sig := range got.Signatures {
		if strings.HasPrefix(sig.Family(), "webkit/") {
			namespaced++
		} else {
			bare++
		}
	}
	if bare == 0 || namespaced == 0 {
		t.Fatalf("reconstructed set has %d bare and %d namespaced families; want both > 0", bare, namespaced)
	}
	m, _, err := got.Matcher()
	if err != nil {
		t.Fatal(err)
	}
	vetter := gateway.NewVetter(m)
	cfg := synth.DefaultWebkitConfig()
	stream, err := synth.NewWebkitStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blocked := 0
	for _, s := range stream.MaliciousDay(webkitTrainDay) {
		dec := vetter.VetBytes([]byte(s.Content))
		if !dec.Blocked {
			continue
		}
		if !strings.HasPrefix(dec.Family, "webkit/") {
			t.Fatalf("gateway blocked phishing sample under non-namespaced family %q", dec.Family)
		}
		blocked++
	}
	if blocked == 0 {
		t.Fatal("gateway built from the delta-reconstructed set blocked no phishing traffic")
	}
}

// renameFamily relabels a trained signature through its JSON form — the
// only way a caller outside the compiler can hold a structurally valid
// signature under an arbitrary family name.
func renameFamily(t *testing.T, sig kizzle.Signature, fam string) kizzle.Signature {
	t.Helper()
	raw, err := json.Marshal(sig)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	fields["family"], err = json.Marshal(fam)
	if err != nil {
		t.Fatal(err)
	}
	raw, err = json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	var out kizzle.Signature
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPublishRejectsAmbiguousFamilies pins the namespacing guardrail on
// every publish entry point: a bare family and a namespaced one sharing
// a basename cannot coexist in a set (consumers keying thresholds or
// match reports by basename could not attribute hits to a workload),
// while distinct namespaces over the same basename are fine.
func TestPublishRejectsAmbiguousFamilies(t *testing.T) {
	day := synth.Date(time.August, 5)
	sigs := trainSignatures(t, day)
	if len(sigs) < 2 {
		t.Fatalf("need at least 2 trained signatures, got %d", len(sigs))
	}
	bare := renameFamily(t, sigs[0], "strato_v2")
	clashing := renameFamily(t, sigs[1], "webkit/strato_v2")
	ambiguous := []kizzle.Signature{bare, clashing}

	store := New()
	wantErr := "ambiguous family names"
	if _, _, err := store.Publish(ambiguous, nil); err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("Publish accepted bare+namespaced collision (err=%v)", err)
	}
	if _, err := store.Replace(ambiguous, nil); err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("Replace accepted bare+namespaced collision (err=%v)", err)
	}
	store.SetCertKey([]byte("collision-key"))
	if _, _, _, err := store.PublishAttested(ambiguous, nil, "corpus", testPrimaryPath, testVerifyPath); err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("PublishAttested accepted bare+namespaced collision (err=%v)", err)
	}
	if store.Version() != 0 {
		t.Fatalf("rejected publishes bumped the store to v%d", store.Version())
	}

	// Distinct namespaces sharing a basename are unambiguous.
	fine := []kizzle.Signature{
		renameFamily(t, sigs[0], "webkit/strato_v2"),
		renameFamily(t, sigs[1], "mailer/strato_v2"),
	}
	if _, _, err := store.Publish(fine, nil); err != nil {
		t.Fatalf("distinct namespaces over one basename rejected: %v", err)
	}
}

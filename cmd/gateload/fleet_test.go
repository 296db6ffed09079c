package main

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"kizzle"
	"kizzle/gateway"
	"kizzle/internal/verdictcache"
	"kizzle/sigdb"
	"kizzle/synth"
)

// fleetReplica is one member of the e2e fleet: a strict sigdb client
// feeding a vetter, an admitter plugged into the shared verdict cache,
// and a loopback front.
type fleetReplica struct {
	vetter *gateway.Vetter
	admit  *gateway.Admitter
	client *sigdb.Client
	front  *server
}

// TestFleetE2E is the PR's acceptance run, end to end: three gateway
// replicas behind a round-robin front, armed by a certified publish,
// sharing one verdict cache. It pins four properties:
//
//  1. a certified publish (PublishAttested under a cert key) reaches
//     every replica through the watch stream in seconds while the poll
//     interval is an hour — push, not poll-luck;
//  2. the shared verdict cache produces cross-replica hits: a document
//     scanned on replica 0 is admitted on replicas 1 and 2 with zero
//     additional scans;
//  3. under zipf load the cache keeps absorbing repeat scans fleet-wide;
//  4. every document's verdict through the fleet is byte-identical to
//     the single-replica path.
func TestFleetE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet e2e needs real training runs")
	}
	day := synth.Date(time.August, 5)
	docs, sigs, err := train(day)
	if err != nil {
		t.Fatal(err)
	}

	// Certified publisher: attested sets under a shared HMAC key, served
	// the way sigserve mounts them (poll + watch + attest).
	key := []byte("fleet-e2e-key")
	store := sigdb.New()
	store.SetCertKey(key)
	primary := sigdb.PathDescriptor{Mode: "fleet", Shards: 3, Dispatch: "stream", Affinity: true}
	verify := sigdb.PathDescriptor{Mode: "in-process", Dispatch: "batch", Seed: 7}
	if _, _, _, err := store.PublishAttested(sigs, nil, "corpus-day1", primary, verify); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/signatures", store.Handler())
	mux.Handle("/signatures/watch", store.WatchHandler())
	mux.Handle("/attest", store.AttestHandler())
	sigSrv := httptest.NewServer(mux)
	defer sigSrv.Close()

	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i, err := strconv.Atoi(r.URL.Path[1:])
		if err != nil || i < 0 || i >= len(docs) {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, docs[i])
	}))
	defer origin.Close()
	originURL := mustParse(t, origin.URL)

	// Single-replica reference: same signatures, no shared cache. Every
	// fleet verdict must match this path byte for byte.
	refMatcher, err := kizzle.NewMatcher(sigs)
	if err != nil {
		t.Fatal(err)
	}
	refVetter := gateway.NewVetter(refMatcher)
	refVetter.SetVersion(1)
	refProxy := gateway.NewProxy(originURL, refVetter)
	ref := httptest.NewServer(refProxy)
	defer ref.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cache := verdictcache.New(0)
	const replicas = 3
	fleet := make([]*fleetReplica, replicas)
	for i := range fleet {
		r := &fleetReplica{vetter: gateway.NewVetter(nil)}
		r.client = &sigdb.Client{
			URL:        sigSrv.URL + "/signatures",
			Strict:     true,
			CertKey:    key,
			AttestURL:  sigSrv.URL + "/attest",
			JitterSeed: int64(i) + 1,
		}
		deploy := func(snap sigdb.Snapshot) {
			m, _ := r.client.Matcher()
			if m == nil {
				if m, _, err = snap.Matcher(); err != nil {
					t.Errorf("replica deploy v%d: %v", snap.Version, err)
					return
				}
			}
			r.vetter.Update(m)
			r.vetter.SetVersion(snap.Version)
		}
		// Arm synchronously (the kizzlegate startup sequence), then park
		// on the watch stream with a poll interval so long that any later
		// update can only arrive by push.
		snap, ok, err := r.client.Fetch(ctx)
		if err != nil || !ok {
			t.Fatalf("replica %d initial fetch: ok=%v err=%v", i, ok, err)
		}
		deploy(snap)
		go r.client.Run(ctx, time.Hour, deploy, nil)

		r.admit = gateway.NewAdmitter(r.vetter, 0, 0)
		r.admit.UseSharedStore(cache)
		proxy := gateway.NewProxy(originURL, r.vetter)
		proxy.UseAdmitter(r.admit)
		r.front, err = serve(proxy)
		if err != nil {
			t.Fatal(err)
		}
		defer r.front.close()
		fleet[i] = r
	}
	for i, r := range fleet {
		if v := r.vetter.Version(); v != 1 {
			t.Fatalf("replica %d armed at version %d, want 1", i, v)
		}
	}

	hc := &http.Client{Timeout: 10 * time.Second}
	get := func(base string, doc int) (int, string) {
		t.Helper()
		resp, err := hc.Get(base + "/" + strconv.Itoa(doc))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	// A kit landing the reference blocks — the document whose verdict the
	// cache will carry across replicas.
	kitDoc := -1
	for i, d := range docs {
		if refVetter.VetBytes([]byte(d)).Blocked {
			kitDoc = i
			break
		}
	}
	if kitDoc < 0 {
		t.Fatal("corpus has no blocked landing")
	}

	// Cross-replica sharing, deterministically: replica 0 scans the kit
	// doc and publishes its verdict; replicas 1 and 2 must block it from
	// the shared cache without scanning at all.
	if code, _ := get(fleet[0].front.url.String(), kitDoc); code != http.StatusForbidden {
		t.Fatalf("replica 0 served the kit landing: %d", code)
	}
	for i := 1; i < replicas; i++ {
		before, _ := fleet[i].vetter.Stats()
		if code, _ := get(fleet[i].front.url.String(), kitDoc); code != http.StatusForbidden {
			t.Fatalf("replica %d served the kit landing: %d", i, code)
		}
		after, _ := fleet[i].vetter.Stats()
		if after != before {
			t.Errorf("replica %d scanned the kit doc itself (%d scans) instead of hitting the shared cache", i, after-before)
		}
		if hits, _ := fleet[i].admit.Metrics()["shared_hits"].(int64); hits < 1 {
			t.Errorf("replica %d shared_hits = %d, want >= 1", i, hits)
		}
	}

	// Zipf load through the round-robin front: hot documents repeat, so
	// the fleet cache must keep absorbing scans.
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.5, 1, uint64(len(docs)-1))
	var rr atomic.Int64
	for n := 0; n < 300; n++ {
		r := fleet[int(rr.Add(1))%replicas]
		get(r.front.url.String(), int(zipf.Uint64()))
	}
	m := cache.Metrics()
	if hits, _ := m["hits"].(int64); hits < 1 {
		t.Errorf("shared cache hits = %d under zipf load, want > 0", hits)
	}

	// Byte-identical verdicts: every document through the fleet matches
	// the single-replica path exactly — status and body.
	for i := range docs {
		wantCode, wantBody := get(ref.URL, i)
		gotCode, gotBody := get(fleet[i%replicas].front.url.String(), i)
		if gotCode != wantCode || gotBody != wantBody {
			t.Fatalf("doc %d: fleet verdict (%d, %d bytes) != single-replica (%d, %d bytes)",
				i, gotCode, len(gotBody), wantCode, len(wantBody))
		}
	}

	// Certified publish, pushed: train a second day's set, publish it
	// attested, and require every replica to deploy it within seconds —
	// the poll interval is an hour, so only the watch stream can deliver.
	_, sigs2, err := train(synth.Date(time.August, 6))
	if err != nil {
		t.Fatal(err)
	}
	v2, changed, _, err := store.PublishAttested(sigs2, nil, "corpus-day2", primary, verify)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("day-2 set did not change the store")
	}
	deadline := time.Now().Add(10 * time.Second)
	for i, r := range fleet {
		for r.vetter.Version() != v2 {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d still at v%d after %s: publish never arrived by push",
					i, r.vetter.Version(), 10*time.Second)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for i, r := range fleet {
		cm := r.client.Metrics()
		if upd, _ := cm["watch_updates"].(int64); upd < 1 {
			t.Errorf("replica %d watch_updates = %d: v2 did not arrive over the watch stream", i, upd)
		}
	}

	// Version-change invalidation: the first admission at v2 wipes the
	// shared cache and re-pins it to the new matcher version.
	get(fleet[0].front.url.String(), kitDoc)
	if got := cache.Version(); got != v2 {
		t.Errorf("shared cache pinned to v%d after publish, want v%d", got, v2)
	}
	if wipes, _ := cache.Metrics()["wipes"].(int64); wipes < 1 {
		t.Errorf("cache wipes = %d: version change must invalidate wholesale", wipes)
	}
}

func mustParse(t *testing.T, raw string) *url.URL {
	t.Helper()
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

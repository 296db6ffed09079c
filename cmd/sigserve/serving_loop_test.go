// End-to-end serving-loop test: a synthetic day flows through the sharded
// pipeline (a real-HTTP loopback fleet), the compiled set is served and
// push-updated over sigdb's wire protocol, sigserve recompiles
// incrementally, and a gateway vets traffic whose verdicts are pinned
// against both the in-process path and the unpacking oracle — at 1, 2,
// and 4 workers, and across one mid-recompile worker death.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kizzle"
	"kizzle/gateway"
	"kizzle/internal/shardcoord"
	"kizzle/sigdb"
	"kizzle/synth"
)

// startWorkerFleet launches n shard workers over real loopback HTTP and
// returns their base URLs, ready for a sigserve -shards flag.
func startWorkerFleet(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := httptest.NewServer(shardcoord.NewWorker().Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// startSigserve runs the sigserve command with the given extra flags via
// the ready-channel test hook (the initial recompile runs synchronously)
// and serves its handler over a real listener.
func startSigserve(t *testing.T, samplesDir, knownDir string, extra ...string) *httptest.Server {
	t.Helper()
	storePath := filepath.Join(t.TempDir(), "sigs.json")
	args := append([]string{
		"-store", storePath, "-samples", samplesDir, "-known", knownDir,
	}, extra...)
	ready := make(chan http.Handler, 1)
	go func() {
		if err := run(args, ready); err != nil {
			t.Error(err)
		}
	}()
	select {
	case handler := <-ready:
		srv := httptest.NewServer(handler)
		t.Cleanup(srv.Close)
		return srv
	case <-time.After(60 * time.Second):
		t.Fatal("sigserve never became ready")
		return nil
	}
}

// fetchSet pulls the published snapshot from a sigserve instance.
func fetchSet(t *testing.T, serverURL string) sigdb.Snapshot {
	t.Helper()
	client := &sigdb.Client{URL: serverURL + "/signatures"}
	snap, updated, err := client.Fetch(context.Background())
	if err != nil || !updated {
		t.Fatalf("fetch: updated=%v err=%v", updated, err)
	}
	return snap
}

// vetDay runs the fetched signature set through a gateway vetter over the
// probe documents.
func vetDay(t *testing.T, snap sigdb.Snapshot, docs []string) []gateway.Decision {
	t.Helper()
	m, _, err := snap.Matcher()
	if err != nil {
		t.Fatal(err)
	}
	v := gateway.NewVetter(m)
	out := make([]gateway.Decision, len(docs))
	for i, d := range docs {
		out[i] = v.VetBytes([]byte(d))
	}
	return out
}

// TestServingLoopEndToEnd drives the full publishing loop at three fleet
// sizes and pins every observable — published bytes, gateway verdicts,
// oracle agreement — to the in-process reference.
func TestServingLoopEndToEnd(t *testing.T) {
	day := synth.Date(time.August, 5)
	samplesDir, knownDir := writeCorpus(t)

	// Probe traffic: the day's full mix plus guaranteed-benign documents.
	cfg := synth.DefaultConfig()
	cfg.BenignPerDay = 20
	stream, err := synth.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var docs []string
	var malicious []bool
	for _, s := range stream.Day(day) {
		docs = append(docs, s.Content)
		malicious = append(malicious, s.Family.Malicious())
	}
	docs = append(docs, "<html><body>plain benign page</body></html>")
	malicious = append(malicious, false)

	// The oracle sees the same hidden corpus the publisher was seeded
	// with, under the same labels the publisher derives from the known
	// file names (writeCorpus strips spaces).
	oracle := kizzle.NewOracle()
	for _, fam := range synth.Kits() {
		oracle.AddKnown(strings.ReplaceAll(fam.String(), " ", ""), synth.Payload(fam, day-1))
	}

	// In-process reference.
	refSrv := startSigserve(t, samplesDir, knownDir)
	refSnap := fetchSet(t, refSrv.URL)
	refJSON, err := json.Marshal(refSnap.Signatures)
	if err != nil {
		t.Fatal(err)
	}
	refDecisions := vetDay(t, refSnap, docs)

	// The reference loop itself must be sound before differentials mean
	// anything: blocked verdicts agree with the oracle, and coverage of
	// the day's malicious traffic is high.
	blockedMalicious, totalMalicious := 0, 0
	for i, d := range refDecisions {
		if malicious[i] {
			totalMalicious++
		}
		if !d.Blocked {
			continue
		}
		v := oracle.Inspect(docs[i])
		if !v.Detected || v.Family != d.Family {
			t.Fatalf("doc %d: gateway blocked as %q but oracle says detected=%v family=%q",
				i, d.Family, v.Detected, v.Family)
		}
		blockedMalicious++
	}
	if blockedMalicious < totalMalicious*3/4 {
		t.Fatalf("reference loop blocked %d/%d malicious docs", blockedMalicious, totalMalicious)
	}

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			urls := startWorkerFleet(t, workers)
			srv := startSigserve(t, samplesDir, knownDir,
				"-shards", strings.Join(urls, ","),
				"-cachedir", t.TempDir())
			snap := fetchSet(t, srv.URL)
			gotJSON, err := json.Marshal(snap.Signatures)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, refJSON) {
				t.Fatal("fleet-published signature set diverged from in-process bytes")
			}
			if got := vetDay(t, snap, docs); !reflect.DeepEqual(got, refDecisions) {
				t.Fatal("fleet-backed gateway verdicts diverged from in-process path")
			}
		})
	}

	// Push path: a second day compiled by the (sharded) analysis pipeline
	// is POSTed to the publisher, whose scan endpoint then serves verdicts
	// from the new version — recompiling only what changed.
	t.Run("push-and-rescan", func(t *testing.T) {
		urls := startWorkerFleet(t, 2)
		srv := startSigserve(t, samplesDir, knownDir, "-shards", strings.Join(urls, ","))

		// Warm the scan matcher on v1 so the push exercises the
		// incremental rebuild, not a cold compile.
		firstScan := postScan(t, srv.URL, docs)
		if firstScan.Version != 1 {
			t.Fatalf("pre-push scan version = %d, want 1", firstScan.Version)
		}

		day2 := day + 1
		c := kizzle.New(kizzle.WithShardWorkers(urls...))
		for _, fam := range synth.Kits() {
			c.AddKnown(fam.String(), synth.Payload(fam, day2-1))
		}
		cfg := synth.DefaultConfig()
		cfg.BenignPerDay = 20
		stream, err := synth.NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var batch []kizzle.Sample
		var day2docs []string
		for _, s := range stream.Day(day2) {
			batch = append(batch, kizzle.Sample{ID: s.ID, Content: s.Content})
			day2docs = append(day2docs, s.Content)
		}
		res, err := c.Process(batch)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(map[string]any{"signatures": res.Signatures})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/signatures", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("push status = %d", resp.StatusCode)
		}

		scan := postScan(t, srv.URL, day2docs)
		if scan.Version != 2 {
			t.Fatalf("post-push scan version = %d, want 2", scan.Version)
		}
		// The served verdicts must equal a direct build of the pushed set.
		m, err := kizzle.NewMatcher(res.Signatures)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range scan.Verdicts {
			if want := len(m.Scan(day2docs[i])) > 0; v.Blocked != want {
				t.Fatalf("doc %d: served blocked=%v, direct matcher=%v", i, v.Blocked, want)
			}
		}
	})
}

// postScan submits a batch to the publisher's /scan endpoint.
func postScan(t *testing.T, serverURL string, docs []string) scanResponse {
	t.Helper()
	body, err := json.Marshal(scanRequest{Documents: docs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(serverURL+"/scan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan status = %d", resp.StatusCode)
	}
	var out scanResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServingLoopWorkerDeath kills one of two fleet workers partway into
// the publisher's recompile; coordinator failover must absorb the death
// and the published set must still be byte-identical to the in-process
// reference.
func TestServingLoopWorkerDeath(t *testing.T) {
	samplesDir, knownDir := writeCorpus(t)

	refSrv := startSigserve(t, samplesDir, knownDir)
	refJSON, err := json.Marshal(fetchSet(t, refSrv.URL).Signatures)
	if err != nil {
		t.Fatal(err)
	}

	// Worker 0 is healthy; worker 1 serves two work units and then dies
	// mid-recompile (connection-level failure from then on). The healthy
	// worker holds its first response until worker 1 has died, so the
	// shared pull queue must hand worker 1 its third unit whatever the
	// scheduling — the death is part of every run, not a race.
	var served atomic.Int64
	died := make(chan struct{})
	var dieOnce sync.Once
	healthyWorker := shardcoord.NewWorker().Handler()
	var first atomic.Bool
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			select {
			case <-died:
			case <-time.After(10 * time.Second):
			}
		}
		healthyWorker.ServeHTTP(w, r)
	}))
	t.Cleanup(healthy.Close)
	dyingWorker := shardcoord.NewWorker().Handler()
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 2 {
			dieOnce.Do(func() { close(died) })
			// Drop the connection without a response, as a crashed
			// process would.
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			http.Error(w, "worker dead", http.StatusServiceUnavailable)
			return
		}
		dyingWorker.ServeHTTP(w, r)
	}))
	t.Cleanup(dying.Close)

	srv := startSigserve(t, samplesDir, knownDir,
		"-shards", healthy.URL+","+dying.URL)
	gotJSON, err := json.Marshal(fetchSet(t, srv.URL).Signatures)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, refJSON) {
		t.Fatal("signature set diverged after mid-recompile worker death")
	}
	if served.Load() <= 2 {
		t.Fatalf("dying worker served %d units — death never happened mid-recompile", served.Load())
	}
}

// TestPublisherRestartKeepsWarmCache pins the restart economics the
// -cachedir flag buys: a restarted publisher that reloads its cache and
// reseeds the same known corpus re-labels day one with zero family sweeps
// (content-derived generations survive the restart) and republishes
// without a version bump.
func TestPublisherRestartKeepsWarmCache(t *testing.T) {
	samplesDir, knownDir := writeCorpus(t)
	cacheDir := t.TempDir()
	storePath := filepath.Join(t.TempDir(), "sigs.json")

	store, err := sigdb.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := newPublisher(store, samplesDir, knownDir, cacheDir, pathSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := pub.recompile()
	if err != nil {
		t.Fatal(err)
	}
	if st1.Version != 1 || !st1.Changed {
		t.Fatalf("first recompile = v%d changed=%v", st1.Version, st1.Changed)
	}
	if st1.Compile.LabelSweeps == 0 {
		t.Fatal("cold recompile swept nothing — sweep accounting broken")
	}

	// Same process, steady state: no corpus change, warm cache → no
	// sweeps, no version bump.
	st2, err := pub.recompile()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Changed || st2.Version != 1 {
		t.Fatalf("steady-state recompile bumped to v%d (changed=%v)", st2.Version, st2.Changed)
	}
	if st2.Compile.LabelSweeps != 0 {
		t.Fatalf("steady-state recompile swept %d families, want 0", st2.Compile.LabelSweeps)
	}
	if st2.KnownChanged != 0 {
		t.Fatalf("unchanged known dir re-seeded %d payloads", st2.KnownChanged)
	}

	// Restart: a fresh publisher over the same store, cache dir, and known
	// dir. Content-derived generations make the persisted label verdicts
	// valid again, so even the first recompile after restart is free of
	// family sweeps.
	store2, err := sigdb.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	pub2, err := newPublisher(store2, samplesDir, knownDir, cacheDir, pathSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st3, err := pub2.recompile()
	if err != nil {
		t.Fatal(err)
	}
	if st3.Changed || st3.Version != 1 {
		t.Fatalf("post-restart recompile bumped to v%d (changed=%v)", st3.Version, st3.Changed)
	}
	if st3.Compile.LabelSweeps != 0 {
		t.Fatalf("post-restart recompile swept %d families, want 0 (warm cache lost)", st3.Compile.LabelSweeps)
	}

	// A changed known payload after restart invalidates exactly that
	// family: sweeps return, and only for the touched family.
	if err := os.WriteFile(filepath.Join(knownDir, "Extra-kit.txt"),
		[]byte(synth.Payload(synth.RIG, synth.Date(time.August, 3))), 0o644); err != nil {
		t.Fatal(err)
	}
	st4, err := pub2.recompile()
	if err != nil {
		t.Fatal(err)
	}
	if st4.KnownChanged != 1 {
		t.Fatalf("new known file counted as %d changes, want 1", st4.KnownChanged)
	}
	if st4.Compile.LabelSweeps == 0 {
		t.Fatal("new family produced no label sweeps")
	}
	if st4.Compile.LabelSweeps >= st1.Compile.LabelSweeps {
		t.Fatalf("one-family bump swept %d ≥ cold %d — invalidation is not per-family",
			st4.Compile.LabelSweeps, st1.Compile.LabelSweeps)
	}
}

// TestKnownFileModifiedInPlace pins the corpus-rebuild semantics: editing
// a known payload file replaces its old content (the retracted payload
// must not stay live in the long-lived compiler), so a long-lived
// publisher and a freshly started one over the same directory publish the
// same bytes.
func TestKnownFileModifiedInPlace(t *testing.T) {
	samplesDir, knownDir := writeCorpus(t)

	store, err := sigdb.Open(filepath.Join(t.TempDir(), "sigs.json"))
	if err != nil {
		t.Fatal(err)
	}
	pub, err := newPublisher(store, samplesDir, knownDir, "", pathSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.recompile(); err != nil {
		t.Fatal(err)
	}

	// Retract one family's payload by overwriting its file with a
	// different day's capture, then recompile the long-lived publisher.
	day := synth.Date(time.August, 5)
	name := strings.ReplaceAll(synth.RIG.String(), " ", "") + ".txt"
	if err := os.WriteFile(filepath.Join(knownDir, name),
		[]byte(synth.Payload(synth.RIG, day-3)), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := pub.recompile()
	if err != nil {
		t.Fatal(err)
	}
	if st.KnownChanged != 1 {
		t.Fatalf("modified file counted as %d changes, want 1", st.KnownChanged)
	}

	// A publisher started fresh over the modified directory — what a
	// restart would see — must publish exactly the same bytes.
	freshStore, err := sigdb.Open(filepath.Join(t.TempDir(), "sigs.json"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := newPublisher(freshStore, samplesDir, knownDir, "", pathSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.recompile(); err != nil {
		t.Fatal(err)
	}
	live, err := json.Marshal(store.Snapshot().Signatures)
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := json.Marshal(freshStore.Snapshot().Signatures)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, restarted) {
		t.Fatal("long-lived publisher diverged from a fresh start over the same known dir")
	}
}

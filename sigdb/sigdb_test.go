package sigdb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kizzle"
	"kizzle/synth"
)

// trainSignatures produces a real signature set from the synthetic stream.
func trainSignatures(t testing.TB, day int) []kizzle.Signature {
	t.Helper()
	c := kizzle.New(kizzle.WithSignatureSlack(2))
	for _, fam := range synth.Kits() {
		c.AddKnown(fam.String(), synth.Payload(fam, day-1))
	}
	cfg := synth.DefaultConfig()
	cfg.BenignPerDay = 40
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

func TestStoreReplaceBumpsVersion(t *testing.T) {
	day := synth.Date(time.August, 5)
	s := New()
	if s.Version() != 0 {
		t.Fatalf("fresh store version = %d", s.Version())
	}
	sigs := trainSignatures(t, day)
	v, err := s.Replace(sigs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || s.Version() != 1 {
		t.Errorf("version = %d/%d, want 1", v, s.Version())
	}
	if _, err := s.Replace(sigs, nil); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 2 {
		t.Errorf("version = %d, want 2", s.Version())
	}
	snap := s.Snapshot()
	if len(snap.Signatures) != len(sigs) {
		t.Errorf("snapshot has %d signatures, want %d", len(snap.Signatures), len(sigs))
	}
}

// TestStorePublishSkipsUnchanged pins the delta-publish contract sigserve's
// recompilation loop relies on: republishing an identical set does not bump
// the version (so pollers stay on 304 and matcher caches stay warm), while
// any real change — including dropping back to a previous set — does.
func TestStorePublishSkipsUnchanged(t *testing.T) {
	day := synth.Date(time.August, 5)
	s := New()
	sigs := trainSignatures(t, day)

	v, changed, err := s.Publish(sigs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || !changed {
		t.Fatalf("first publish = (v%d, changed=%v), want (v1, true)", v, changed)
	}
	v, changed, err = s.Publish(sigs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || changed {
		t.Fatalf("identical republish = (v%d, changed=%v), want (v1, false)", v, changed)
	}
	// A genuinely different set (drop one signature) must bump.
	v, changed, err = s.Publish(sigs[1:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || !changed {
		t.Fatalf("changed publish = (v%d, changed=%v), want (v2, true)", v, changed)
	}
	// Publishing the original set again is also a change relative to v2.
	v, changed, err = s.Publish(sigs, nil)
	if err != nil || v != 3 || !changed {
		t.Fatalf("revert publish = (v%d, changed=%v, err=%v), want (v3, true, nil)", v, changed, err)
	}
	// A first publish on an empty store always establishes v1, even when
	// the candidate set is empty like the store's zero state.
	empty := New()
	v, changed, err = empty.Publish(nil, nil)
	if err != nil || v != 1 || !changed {
		t.Fatalf("empty first publish = (v%d, changed=%v, err=%v), want (v1, true, nil)", v, changed, err)
	}
}

func TestStoreRejectsInvalid(t *testing.T) {
	s := New()
	var bad kizzle.Signature
	if _, err := s.Replace([]kizzle.Signature{bad}, nil); err == nil {
		t.Error("invalid signature must be rejected")
	}
	if s.Version() != 0 {
		t.Error("failed replace must not bump the version")
	}
}

// TestStorePublishRejectsInvalid pins that Publish and PublishAttested,
// which compile a candidate only once it differs from the live set, still
// refuse a set that does not compile — on an empty store and over a
// serving version, which keeps serving with no audit record appended.
func TestStorePublishRejectsInvalid(t *testing.T) {
	var bad kizzle.Signature
	good := trainSignatures(t, synth.Date(time.August, 5))
	for _, tc := range []struct {
		name    string
		publish func(*Store, []kizzle.Signature) error
	}{
		{"Publish", func(s *Store, sigs []kizzle.Signature) error { _, _, err := s.Publish(sigs, nil); return err }},
		{"PublishAttested", func(s *Store, sigs []kizzle.Signature) error {
			_, _, _, err := s.PublishAttested(sigs, nil, "corpus", testPrimaryPath, testVerifyPath)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			if err := tc.publish(s, []kizzle.Signature{bad}); err == nil {
				t.Fatal("invalid signature set published on an empty store")
			}
			if s.Version() != 0 {
				t.Fatalf("failed publish moved the store to v%d", s.Version())
			}
			if err := tc.publish(s, good); err != nil {
				t.Fatal(err)
			}
			audit := len(s.AuditRecords())
			if err := tc.publish(s, append(append([]kizzle.Signature(nil), good...), bad)); err == nil {
				t.Fatal("invalid signature set published over v1")
			}
			if s.Version() != 1 || len(s.AuditRecords()) != audit {
				t.Fatalf("failed publish moved the store to v%d with %d audit records, want v1 with %d", s.Version(), len(s.AuditRecords()), audit)
			}
			if v, changed, err := s.Publish(good, nil); err != nil || v != 1 || changed {
				t.Fatalf("republishing the serving set = (v%d, changed=%v, %v), want (v1, false, nil)", v, changed, err)
			}
		})
	}
}

// TestStoreConcurrentPublishes races publishes of two valid sets and an
// invalid one against each other: every publish that reports a change
// bumps the version by exactly one, the invalid set never installs, and
// the live set is always one of the valid two — whichever way the
// unchanged check outside the write lock and the one under it fall.
func TestStoreConcurrentPublishes(t *testing.T) {
	a := trainSignatures(t, synth.Date(time.August, 5))
	b := a[:len(a)-1]
	var bad kizzle.Signature
	invalid := append(append([]kizzle.Signature(nil), a...), bad)
	s := New()
	var wg sync.WaitGroup
	var changes atomic.Int64
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				sigs := a
				switch (g + i) % 3 {
				case 1:
					sigs = b
				case 2:
					if _, _, err := s.Publish(invalid, nil); err == nil {
						t.Error("invalid set published")
					}
					continue
				}
				if _, changed, err := s.Publish(sigs, nil); err != nil {
					t.Error(err)
				} else if changed {
					changes.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := s.Version(); got != changes.Load() {
		t.Fatalf("store at v%d after %d changed publishes", got, changes.Load())
	}
	live, err := s.Snapshot().SetDigest()
	if err != nil {
		t.Fatal(err)
	}
	da, _ := SetDigest(a, nil)
	db, _ := SetDigest(b, nil)
	if live != da && live != db {
		t.Fatal("live set is neither published valid set")
	}
}

// trainMulti generates one multi-part signature from a synthetic day.
func trainMulti(t *testing.T, day int) kizzle.MultiSignature {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.BenignPerDay = 0
	stream, err := synth.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var docs []string
	for _, s := range stream.Day(day) {
		if s.Family == synth.SweetOrange {
			docs = append(docs, s.Content)
		}
	}
	multi, err := kizzle.GenerateMulti("Sweet Orange", docs, kizzle.WithMultiSlack(2))
	if err != nil {
		t.Fatal(err)
	}
	return multi
}

// TestStoreRefusesMulti pins that no publishing path installs multi-part
// signatures while no replica scans them: Publish, PublishAttested and
// Replace (behind POST /signatures) all refuse with ErrMultiUnenforced
// and leave the store untouched.
func TestStoreRefusesMulti(t *testing.T) {
	day := synth.Date(time.August, 6)
	sigs := trainSignatures(t, day)
	multi := []kizzle.MultiSignature{trainMulti(t, day)}
	for _, tc := range []struct {
		name    string
		publish func(*Store) error
	}{
		{"Publish", func(s *Store) error { _, _, err := s.Publish(sigs, multi); return err }},
		{"PublishAttested", func(s *Store) error {
			_, _, _, err := s.PublishAttested(sigs, multi, "corpus", PathDescriptor{}, PathDescriptor{})
			return err
		}},
		{"Replace", func(s *Store) error { _, err := s.Replace(sigs, multi); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := New()
			if err := tc.publish(store); !errors.Is(err, ErrMultiUnenforced) {
				t.Fatalf("err = %v, want ErrMultiUnenforced", err)
			}
			if store.Version() != 0 {
				t.Fatalf("a refused multi set moved the store to v%d", store.Version())
			}
		})
	}

	t.Run("POST", func(t *testing.T) {
		store := New()
		srv := httptest.NewServer(store.Handler())
		defer srv.Close()
		body, err := json.Marshal(map[string]any{"signatures": sigs, "multi": multi})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Post(srv.URL, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("status %d, want 422", resp.StatusCode)
		}
		if store.Version() != 0 {
			t.Fatalf("a refused multi set moved the store to v%d", store.Version())
		}
		// The single-run set alone still publishes.
		if v, _, err := store.Publish(sigs, nil); err != nil || v != 1 {
			t.Fatalf("Publish without multi: v%d, %v", v, err)
		}
	})
}

func TestStorePersistence(t *testing.T) {
	day := synth.Date(time.August, 5)
	path := filepath.Join(t.TempDir(), "sigs.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sigs := trainSignatures(t, day)
	if _, err := s.Replace(sigs, nil); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Version() != 1 {
		t.Errorf("reopened version = %d, want 1", reopened.Version())
	}
	snap := reopened.Snapshot()
	m, _, err := snap.Matcher()
	if err != nil {
		t.Fatal(err)
	}
	// The reloaded matcher must behave like the original.
	orig, err := kizzle.NewMatcher(sigs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := synth.DefaultConfig()
	cfg.BenignPerDay = 10
	stream, err := synth.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, smp := range stream.Day(day + 1) {
		if m.Detects(smp.Content) != orig.Detects(smp.Content) {
			t.Fatalf("reloaded matcher disagrees on %s", smp.ID)
		}
	}
}

func TestOpenMissingFileStartsEmpty(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Version() != 0 {
		t.Errorf("version = %d", s.Version())
	}
}

func TestOpenCorruptFileFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("corrupt store must fail to open")
	}
}

func TestHTTPDistribution(t *testing.T) {
	day := synth.Date(time.August, 5)
	store := New()
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()
	client := &Client{URL: srv.URL}
	ctx := context.Background()

	// Nothing published yet: the client at version 0 is current.
	if _, updated, err := client.Fetch(ctx); err != nil || updated {
		t.Fatalf("fetch on empty store: updated=%v err=%v", updated, err)
	}

	sigs := trainSignatures(t, day)
	if _, err := store.Replace(sigs, nil); err != nil {
		t.Fatal(err)
	}
	snap, updated, err := client.Fetch(ctx)
	if err != nil || !updated {
		t.Fatalf("fetch after publish: updated=%v err=%v", updated, err)
	}
	if snap.Version != 1 || len(snap.Signatures) != len(sigs) {
		t.Errorf("snapshot v%d with %d signatures", snap.Version, len(snap.Signatures))
	}
	// Now current again.
	if _, updated, err := client.Fetch(ctx); err != nil || updated {
		t.Fatalf("second fetch: updated=%v err=%v", updated, err)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	store := New()
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "?since=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad since: status %d", resp.StatusCode)
	}
	post, err := srv.Client().Post(srv.URL, "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 400 {
		t.Errorf("malformed POST: status %d", post.StatusCode)
	}
	del, err := http.NewRequest(http.MethodDelete, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = srv.Client().Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("DELETE: status %d", resp.StatusCode)
	}
}

// TestHTTPPostUpdate round-trips a signature set through the push side of
// the distribution channel: POST replaces the published set, bumps the
// version, and pollers pick the new set up.
func TestHTTPPostUpdate(t *testing.T) {
	day := synth.Date(time.August, 5)
	store := New()
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()

	sigs := trainSignatures(t, day)
	body, err := json.Marshal(map[string]any{"signatures": sigs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("POST: status %d", resp.StatusCode)
	}
	var v struct {
		Version int64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Version != 1 || store.Version() != 1 {
		t.Fatalf("POST version = %d (store %d), want 1", v.Version, store.Version())
	}
	snap := store.Snapshot()
	if len(snap.Signatures) != len(sigs) {
		t.Fatalf("published %d signatures, want %d", len(snap.Signatures), len(sigs))
	}

	// An invalid set must be rejected without touching the store.
	bad, err := srv.Client().Post(srv.URL, "application/json",
		strings.NewReader(`{"signatures": [{"family":"X","elements":[{"kind":2,"group":0}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != 422 {
		t.Errorf("invalid set: status %d, want 422", bad.StatusCode)
	}
	if store.Version() != 1 {
		t.Errorf("invalid set bumped version to %d", store.Version())
	}
}

// TestPollAppliesUpdatesAndStops pins Run's polling rounds: against a
// server without the watch endpoint, every publish is applied at poll
// cadence, and the loop stops on cancel.
func TestPollAppliesUpdatesAndStops(t *testing.T) {
	day := synth.Date(time.August, 5)
	store := New()
	mux := http.NewServeMux()
	mux.Handle("/signatures", store.Handler()) // no /signatures/watch
	srv := httptest.NewServer(mux)
	defer srv.Close()

	sigs := trainSignatures(t, day)
	if _, err := store.Replace(sigs, nil); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var got []int64
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	client := &Client{URL: srv.URL + "/signatures"}
	go func() {
		defer close(done)
		client.Run(ctx, 5*time.Millisecond, func(s Snapshot) {
			mu.Lock()
			got = append(got, s.Version)
			mu.Unlock()
		}, nil)
	}()

	// Wait for the first application, publish again, wait for the second.
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("poller never applied the first update")
		case <-time.After(time.Millisecond):
		}
	}
	if _, err := store.Replace(sigs, nil); err != nil {
		t.Fatal(err)
	}
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("poller never applied the second update")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("poller did not stop on cancel")
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("applied versions %v, want [1 2 ...]", got)
	}
	if m := client.Metrics(); m["watch_fallback"].(int64) != 1 || m["watch_updates"].(int64) != 0 {
		t.Errorf("watch_fallback = %v, watch_updates = %v; want 1, 0 (updates came by polling)", m["watch_fallback"], m["watch_updates"])
	}
}

func TestPollSurvivesServerErrors(t *testing.T) {
	// Point the client at a dead server: Run must keep running and
	// reporting errors until cancelled.
	client := &Client{URL: "http://127.0.0.1:1/nothing"}
	ctx, cancel := context.WithCancel(context.Background())
	errs := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		client.Run(ctx, time.Millisecond, func(Snapshot) {
			t.Error("no update possible from dead server")
		}, func(error) { errs++ })
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	<-done
	if errs == 0 {
		t.Error("expected transient errors to be reported")
	}
}

// TestFetchBoundsUpdateBody pins the client's read bound: a server that
// streams one byte more than maxUpdateBytes fails the round, and the
// client keeps serving the set it already holds. The body is a valid
// newer snapshot padded with whitespace, so only the bound stops it.
func TestFetchBoundsUpdateBody(t *testing.T) {
	store := New()
	if _, err := store.Replace(trainSignatures(t, synth.Date(time.August, 5)), nil); err != nil {
		t.Fatal(err)
	}
	newer := store.Snapshot()
	newer.Version++
	body, err := json.Marshal(newer)
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, bytes.Repeat([]byte(" "), maxUpdateBytes+1-len(body))...)
	var flood atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !flood.Load() {
			store.Handler().ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	defer srv.Close()

	c := &Client{URL: srv.URL}
	ctx := context.Background()
	if _, ok, err := c.Fetch(ctx); err != nil || !ok {
		t.Fatalf("initial fetch: ok=%v err=%v", ok, err)
	}
	held, _ := c.Matcher()
	flood.Store(true)
	if _, ok, err := c.Fetch(ctx); err == nil || ok {
		t.Fatalf("oversized update: ok=%v err=%v, want an error", ok, err)
	}
	if c.version != 1 {
		t.Errorf("client advanced to version %d on an oversized body", c.version)
	}
	if m, _ := c.Matcher(); m != held {
		t.Error("oversized body replaced the serving matcher")
	}
}

// TestPublishRefusesOversizedSet: no publishing path installs a set
// whose served snapshot clients would refuse to read.
func TestPublishRefusesOversizedSet(t *testing.T) {
	base := trainSignatures(t, synth.Date(time.August, 5))
	unit, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	var big []kizzle.Signature
	for size := 0; size <= maxUpdateBytes; size += len(unit) {
		big = append(big, base...)
	}
	store := New()
	if _, err := store.Replace(base, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Replace(big, nil); err == nil {
		t.Error("Replace accepted an oversized set")
	}
	if _, _, err := store.Publish(big, nil); err == nil {
		t.Error("Publish accepted an oversized set")
	}
	if _, _, _, err := store.PublishAttested(big, nil, "corpus", PathDescriptor{}, PathDescriptor{}); err == nil {
		t.Error("PublishAttested accepted an oversized set")
	}
	if v := store.Version(); v != 1 {
		t.Errorf("version = %d after refused publishes, want 1", v)
	}
}

package sigdb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"kizzle"
)

// maxUpdateBytes caps one signature set on the wire, in every direction:
// a POSTed update, a set the store will publish (see prepare), and an
// update body a Client reads. 4 MiB holds thousands of signatures;
// Figure 12 sizes run to ~2 KB each.
const maxUpdateBytes = 4 << 20

// Handler serves the store over HTTP:
//
//	GET  <path>?since=<version>[&delta=1]
//	POST <path>
//
// GET responds 304 when the client is current — judged by the since
// parameter or by If-None-Match against the versioned ETag every response
// carries — otherwise 200 with the signature set as JSON. By default that
// is the full Snapshot, which keeps consumers correct through any missed
// update. With delta=1 a client that holds version since may instead
// receive a Delta carrying only the families that changed (marked by a
// "delta" key in the body); the server picks whichever encoding is
// smaller and falls back to the full snapshot whenever its bounded digest
// history cannot prove what the client holds. POST replaces the published
// set with the {"signatures": [...], "multi": [...]} body — the push side
// of the distribution channel, used by compiler pipelines that publish
// signatures the moment a day's batch finishes — and responds with the
// new version. Invalid signature sets are rejected before they can reach
// any consumer.
func (s *Store) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
		case http.MethodPost:
			s.handleUpdate(w, r)
			return
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		since := int64(-1)
		if q := r.URL.Query().Get("since"); q != "" {
			v, err := strconv.ParseInt(q, 10, 64)
			if err != nil {
				http.Error(w, "bad since parameter", http.StatusBadRequest)
				return
			}
			since = v
		}
		live, delta := s.snapshotAndDelta(since)
		etag := versionETag(live.version)
		w.Header().Set("ETag", etag)
		if since >= live.version || r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		writeSetResponse(w, r, live, delta)
	})
}

// writeSetResponse writes one 200 signature-set response: the full
// snapshot, or (when the client asked with delta=1 and it is smaller)
// the per-family delta. Shared by the conditional GET handler and the
// long-poll watch handler so both speak the identical wire format. Both
// bodies are concatenations of cached signature encodings, and only the
// one served is built.
func writeSetResponse(w http.ResponseWriter, r *http.Request, live liveSet, delta *Delta) {
	var body []byte
	if delta != nil && r.URL.Query().Get("delta") == "1" {
		if db, err := delta.appendJSON(nil); err == nil && len(db) < live.bodyLen() {
			body = db
		}
	}
	if body == nil {
		body = live.body()
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// versionETag renders a store version as the strong ETag GET responses
// carry.
func versionETag(version int64) string { return fmt.Sprintf("%q", fmt.Sprintf("v%d", version)) }

// update is the POST body: a signature set without version (the store
// assigns the next version on Replace).
type update struct {
	Signatures []kizzle.Signature      `json:"signatures"`
	Multi      []kizzle.MultiSignature `json:"multi,omitempty"`
}

func (s *Store) handleUpdate(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxUpdateBytes)
	var u update
	if err := json.NewDecoder(r.Body).Decode(&u); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad update: "+err.Error(), status)
		return
	}
	version, err := s.Replace(u.Signatures, u.Multi)
	if err != nil {
		// Replace validates by compiling; a bad set never deploys.
		http.Error(w, "rejected: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"version\":%d}\n", version)
}

// Client keeps a replica's signature set current from a signature
// server. It asks for per-family deltas once it holds a snapshot
// (reconstructing and validating the full set locally), sends
// If-None-Match on conditional GETs so an unchanged set costs a 304 and
// no body, reads at most maxUpdateBytes of any update, and compiles what
// it fetches through an incremental per-family cache so a one-family
// delta recompiles one family. Fetch is one conditional GET; Run is the
// update loop (see watch.go). Fetch and Run must run from one goroutine;
// Metrics and Matcher are safe to call from others.
type Client struct {
	// URL is the update endpoint (the path Handler is mounted at).
	URL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Jitter spreads every wait in Run uniformly by ±Jitter fraction
	// (0.1 = ±10%), so a fleet of replicas started together does not
	// stampede the signature server on one synchronized tick. Zero means
	// fixed waits.
	Jitter float64
	// JitterSeed seeds this client's private jitter source. Zero draws a
	// unique seed per client (replicas still de-synchronize), a non-zero
	// seed makes the jitter sequence deterministic — fleet tests pin it so
	// schedules reproduce. The client never touches the process-global
	// math/rand state.
	JitterSeed int64
	// Strict refuses uncertified updates: every fetched set must carry an
	// attestation at AttestURL whose SetDigest matches the bytes fetched,
	// and (when CertKey is set) whose HMAC verifies. A rejected update
	// never advances the client — the last attested set keeps serving.
	Strict bool
	// AttestURL is the attestation endpoint (the path AttestHandler is
	// mounted at). Required when Strict is set.
	AttestURL string
	// CertKey, when non-empty, is the shared certification key used to
	// verify attestation MACs in strict mode.
	CertKey []byte

	// watchFloor overrides defaultWatchFloor when positive (tests pace
	// fast fake endpoints with it).
	watchFloor time.Duration

	version int64
	etag    string
	last    Snapshot
	cache   kizzle.MatcherCache
	rng     *rand.Rand

	matcher atomic.Pointer[kizzle.Matcher]
	multi   atomic.Pointer[kizzle.MultiMatcher]

	wireFull       atomic.Int64
	wireDelta      atomic.Int64
	fetchesFull    atomic.Int64
	fetchesDelta   atomic.Int64
	notModified    atomic.Int64
	sigsCompiled   atomic.Int64
	sigsReused     atomic.Int64
	deltaFailures  atomic.Int64
	attestVerified atomic.Int64
	attestRejected atomic.Int64
	watchUpdates   atomic.Int64
	watchTicks     atomic.Int64
	watchDrops     atomic.Int64
	watchFallback  atomic.Int64
	watchPaced     atomic.Int64
}

// Matcher returns the compiled form of the last applied snapshot (nil
// before the first successful Fetch). Consumers deploy these directly —
// Fetch already compiled them for validation, so taking them here makes
// an update cost one (incremental) compilation total.
func (c *Client) Matcher() (*kizzle.Matcher, *kizzle.MultiMatcher) {
	return c.matcher.Load(), c.multi.Load()
}

// Metrics returns the client's /metrics fields: wire bytes by response
// kind, fetch counts, 304s, and incremental-compilation reuse counters.
func (c *Client) Metrics() map[string]any {
	return map[string]any{
		"wire_bytes_full":      c.wireFull.Load(),
		"wire_bytes_delta":     c.wireDelta.Load(),
		"fetches_full":         c.fetchesFull.Load(),
		"fetches_delta":        c.fetchesDelta.Load(),
		"not_modified":         c.notModified.Load(),
		"signatures_compiled":  c.sigsCompiled.Load(),
		"signatures_reused":    c.sigsReused.Load(),
		"delta_apply_failures": c.deltaFailures.Load(),
		"attest_verified":      c.attestVerified.Load(),
		"attest_rejected":      c.attestRejected.Load(),
		"watch_updates":        c.watchUpdates.Load(),
		"watch_ticks":          c.watchTicks.Load(),
		"watch_drops":          c.watchDrops.Load(),
		"watch_fallback":       c.watchFallback.Load(),
		"watch_paced":          c.watchPaced.Load(),
	}
}

// Fetch asks the server for anything newer than the client's last applied
// version. It returns (snapshot, true) on an update and (zero, false) when
// already current. Updates are compile-validated before the client's state
// advances: a set that does not compile is never reported, and a delta
// that does not apply cleanly falls back to one full fetch.
func (c *Client) Fetch(ctx context.Context) (Snapshot, bool, error) {
	return c.round(ctx, c.URL)
}

// round performs one GET against base — URL or its watch endpoint, which
// speak the identical wire format — and runs any update through
// advance's gates. Deltas need the retained base snapshot, so they are
// asked for only once one is held.
func (c *Client) round(ctx context.Context, base string) (Snapshot, bool, error) {
	snap, etag, ok, err := c.fetchFrom(ctx, base, c.last.Version > 0)
	if err != nil || !ok {
		return Snapshot{}, false, err
	}
	return c.advance(ctx, snap, etag)
}

// advance runs one fetched snapshot through every deploy gate — compile
// validation, multi compilation, the strict attestation check — and
// commits the client's state only past all of them, so a pushed update
// obeys exactly the gates a polled one does.
func (c *Client) advance(ctx context.Context, snap Snapshot, etag string) (Snapshot, bool, error) {
	m, stats, buildErr := c.cache.Build(snap.Signatures)
	if buildErr != nil {
		return Snapshot{}, false, buildErr
	}
	mm, err := kizzle.NewMultiMatcher(snap.Multi)
	if err != nil {
		return Snapshot{}, false, err
	}
	if c.Strict {
		// Certification gate: refuse to deploy bytes whose provenance the
		// publisher cannot attest. Runs after compile validation and before
		// any state advances, so a rejected set leaves the client exactly
		// where it was — last attested matcher serving, same baseline.
		if err := c.verifyAttestation(ctx, snap); err != nil {
			c.attestRejected.Add(1)
			return Snapshot{}, false, err
		}
		c.attestVerified.Add(1)
	}
	c.sigsCompiled.Add(int64(stats.SignaturesCompiled))
	c.sigsReused.Add(int64(stats.SignaturesReused))
	c.matcher.Store(m)
	c.multi.Store(mm)
	// All state — including the ETag — advances only past every gate, so
	// a rejected update is re-encountered (and re-rejected) on the next
	// poll instead of being silently 304-skipped.
	c.etag = etag
	c.version = snap.Version
	c.last = snap
	return snap, true, nil
}

// verifyAttestation enforces strict mode for one fetched snapshot: the
// server must hold an attestation for the snapshot's version, its
// SetDigest must equal the digest of the signature set the client
// actually reconstructed (a delta that rebuilt different bytes fails
// here even if the server's own set is attested), and when a
// certification key is configured the attestation's HMAC must verify.
func (c *Client) verifyAttestation(ctx context.Context, snap Snapshot) error {
	if c.AttestURL == "" {
		return errors.New("sigdb: strict mode without AttestURL")
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	url := fmt.Sprintf("%s?version=%d", c.AttestURL, snap.Version)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("sigdb: build attestation request: %w", err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("sigdb: fetch attestation: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("sigdb: version %d is unattested", snap.Version)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("sigdb: attestation endpoint returned %s", resp.Status)
	}
	var att Attestation
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxUpdateBytes)).Decode(&att); err != nil {
		return fmt.Errorf("sigdb: decode attestation: %w", err)
	}
	if att.Version != snap.Version {
		return fmt.Errorf("sigdb: attestation covers version %d, want %d", att.Version, snap.Version)
	}
	got, err := snap.SetDigest()
	if err != nil {
		return err
	}
	if att.SetDigest != got {
		return fmt.Errorf("sigdb: attestation digest %.12s.. does not match fetched set %.12s..", att.SetDigest, got)
	}
	if len(c.CertKey) > 0 && !att.VerifyMAC(c.CertKey) {
		return fmt.Errorf("sigdb: attestation for version %d fails signature verification", snap.Version)
	}
	return nil
}

// statusError carries a non-OK HTTP status so callers can classify it
// (Run reads 404/405/501 from the watch endpoint as "endpoint
// unsupported").
type statusError struct {
	code   int
	status string
}

func (e *statusError) Error() string { return "sigdb: server returned " + e.status }

// fetchFrom performs one GET against base, optionally asking for a
// delta, and returns the (reconstructed) full snapshot plus the
// response's ETag. The caller commits the ETag once the update passes
// every gate; fetchFrom itself must not, or a rejected update would 304
// away on the next round. Only GETs against URL are conditional: the
// watch endpoint decides on since alone, and a parked watch request must
// not 304 against the ETag it already holds.
func (c *Client) fetchFrom(ctx context.Context, base string, wantDelta bool) (Snapshot, string, bool, error) {
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	url := fmt.Sprintf("%s?since=%d", base, c.version)
	if wantDelta {
		url += "&delta=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return Snapshot{}, "", false, fmt.Errorf("sigdb: build request: %w", err)
	}
	if base == c.URL && c.etag != "" {
		req.Header.Set("If-None-Match", c.etag)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return Snapshot{}, "", false, fmt.Errorf("sigdb: fetch: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		c.notModified.Add(1)
		return Snapshot{}, "", false, nil
	case http.StatusOK:
	default:
		return Snapshot{}, "", false, &statusError{code: resp.StatusCode, status: resp.Status}
	}
	// Bound the read: a broken or hostile server (or intermediary) must
	// not be able to exhaust a replica's memory. The round fails and the
	// last applied set keeps serving.
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxUpdateBytes+1))
	if err != nil {
		return Snapshot{}, "", false, fmt.Errorf("sigdb: read update: %w", err)
	}
	if len(body) > maxUpdateBytes {
		return Snapshot{}, "", false, fmt.Errorf("sigdb: update exceeds %d bytes", maxUpdateBytes)
	}
	var got setBody
	if err := json.Unmarshal(body, &got); err != nil {
		return Snapshot{}, "", false, fmt.Errorf("sigdb: decode update: %w", err)
	}
	etag := resp.Header.Get("ETag")
	if !got.IsDelta {
		c.wireFull.Add(int64(len(body)))
		c.fetchesFull.Add(1)
		return got.snapshot(), etag, true, nil
	}
	c.wireDelta.Add(int64(len(body)))
	c.fetchesDelta.Add(1)
	snap, err := got.Delta.Apply(c.last)
	if err != nil {
		// An inapplicable delta (base drift, truncated history semantics)
		// must not deploy a guess; take one full snapshot instead.
		c.deltaFailures.Add(1)
		return c.fetchFrom(ctx, c.URL, false)
	}
	return snap, etag, true, nil
}

// setBody is a 200 response body decoded once: a full Snapshot, or —
// when the "delta" key is true — a Delta. The two shapes share the
// version and multi fields.
type setBody struct {
	Delta
	Signatures []kizzle.Signature `json:"signatures"`
}

// snapshot returns the body's full Snapshot shape.
func (b *setBody) snapshot() Snapshot {
	return Snapshot{Version: b.Version, Signatures: b.Signatures, Multi: b.Multi}
}

// seedCounter de-duplicates default jitter seeds across clients created
// in the same nanosecond (fleet tests construct replicas in a tight
// loop).
var seedCounter atomic.Int64

// jitterRand returns this client's private jitter source, seeding it on
// first use. Per-instance state keeps fleet schedules independent of the
// process-global math/rand — deterministic when JitterSeed is set, and
// never perturbed by (or perturbing) other packages' random draws.
func (c *Client) jitterRand() *rand.Rand {
	if c.rng == nil {
		seed := c.JitterSeed
		if seed == 0 {
			seed = time.Now().UnixNano() ^ (seedCounter.Add(1) << 40)
		}
		c.rng = rand.New(rand.NewSource(seed))
	}
	return c.rng
}

// jitteredInterval spreads interval by ±Jitter.
func (c *Client) jitteredInterval(interval time.Duration) time.Duration {
	if c.Jitter <= 0 {
		return interval
	}
	f := 1 + c.Jitter*(2*c.jitterRand().Float64()-1)
	d := time.Duration(float64(interval) * f)
	if d <= 0 {
		d = interval
	}
	return d
}

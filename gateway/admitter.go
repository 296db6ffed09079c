package gateway

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"kizzle/internal/contentcache"
	"kizzle/internal/servemetrics"
	"kizzle/internal/verdictcache"
	"kizzle/internal/zerocopy"
)

// Admitter decides admissions on arrival and shares the work of identical
// documents that are in flight at the same moment.
//
// No request waits for company: VetBytes decides its document on the
// caller's goroutine. It pins the vetter's running signature set and
// version once, consults the shared verdict store (when one is plugged
// in), scans on a miss, and publishes the fresh verdict under the pinned
// version. A request whose document is byte-identical to one already
// being decided under the same pinned set joins that flight and takes
// its decision instead of scanning again; provider traffic is hot-key
// skewed, so the hottest landing pages are the ones most often in
// flight twice. Decisions are identical to per-document vetting:
// duplicates are verified byte-for-byte (a digest alone only nominates
// candidates), and every request still receives its own Decision.
//
// Buffer ownership follows VetBytes: the caller's document is only read
// until its VetBytes call returns, so pooled proxy buffers stay safe. A
// flight's leader withdraws the flight, and waits out any comparison
// against its document, before it returns.
type Admitter struct {
	v *Vetter
	// shared, when set by UseSharedStore, extends duplicate detection
	// across the fleet: verdicts for this matcher version computed by any
	// replica are consulted before a local scan.
	shared verdictcache.Store

	mu      sync.Mutex
	flights map[flightKey]*flight

	requests      atomic.Int64
	leads         atomic.Int64
	coalesced     atomic.Int64
	sharedHits    atomic.Int64
	sharedPuts    atomic.Int64
	sharedRejects atomic.Int64
	lat           servemetrics.Hist
}

// flightKey names one in-flight decision: the pinned signature set (a
// hot swap or a version change installs a new one, so a later request
// never joins a flight on a set that is no longer running) and the
// document's XXH64 digest, which only nominates joiners.
type flightKey struct {
	set    *armedSet
	digest uint64
}

// flight is one document being decided. doc is the leader's buffer; it
// stays valid until the leader returns, which it does only after the
// flight has left the map and every joiner has finished comparing.
type flight struct {
	doc       []byte
	done      chan struct{}
	d         Decision
	comparing sync.WaitGroup
}

// NewAdmitter builds an admitter in front of v. maxBatch and maxWait are
// ignored: they sized the collection window of an earlier admitter that
// made each document wait for company, and remain only so existing
// callers keep compiling.
func NewAdmitter(v *Vetter, maxBatch int, maxWait time.Duration) *Admitter {
	return &Admitter{v: v, flights: make(map[flightKey]*flight)}
}

// VetBytes decides one document: it joins an identical in-flight
// document's decision when there is one, and decides the document itself
// otherwise.
func (a *Admitter) VetBytes(doc []byte) Decision {
	a.requests.Add(1)
	start := time.Now()
	d := a.admit(doc)
	a.lat.Observe(time.Since(start))
	return d
}

// Close has nothing left to drain: every request is decided on its own
// goroutine, and the admitter keeps serving after Close.
func (a *Admitter) Close() {}

// UseSharedStore plugs a fleet-wide verdict store into the admitter:
// before a document is scanned locally it is looked up by (matcher
// version, content digest), and the verdict the local scan produces is
// published back for the other replicas — under the version pinned
// together with the scanner that computed it, so a signature update
// landing mid-decision can never leak a stale verdict into the fleet.
// Call before serving; decisions stay byte-identical to the unshared
// path because an entry only ever answers for the exact matcher version
// that computed it, and only when its SHA-256 content sum matches the
// document in hand — the 64-bit cache key alone nominates candidates
// exactly as in-flight coalescing does, where bytes.Equal plays the same
// role.
func (a *Admitter) UseSharedStore(s verdictcache.Store) { a.shared = s }

// admit pins the running set, then joins or leads the flight for doc.
func (a *Admitter) admit(doc []byte) Decision {
	key := flightKey{set: a.v.pin(), digest: contentcache.Digest(zerocopy.String(doc))}
	a.mu.Lock()
	if f, ok := a.flights[key]; ok {
		f.comparing.Add(1)
		a.mu.Unlock()
		same := bytes.Equal(f.doc, doc)
		f.comparing.Done()
		if same {
			a.coalesced.Add(1)
			<-f.done
			return f.d
		}
		// A digest collision with a different document in flight: decide
		// this one alone rather than queue behind a stranger.
		return a.decide(key, doc)
	}
	f := &flight{doc: doc, done: make(chan struct{})}
	a.flights[key] = f
	a.mu.Unlock()

	f.d = a.decide(key, doc)
	close(f.done)
	a.mu.Lock()
	delete(a.flights, key)
	a.mu.Unlock()
	f.comparing.Wait()
	return f.d
}

// decide resolves one document under the pinned set: shared verdict
// store first (when configured and the pinned set has a version), local
// scan on a miss, then publication of the fresh verdict under that same
// version. A shared entry answers only when its SHA-256 content sum
// matches the document in hand: the XXH64 cache key is
// attacker-collidable, so serving on bare key equality would let a
// crafted benign/malicious digest pair turn a cached clean verdict into
// a fleet-wide scanner bypass.
func (a *Admitter) decide(key flightKey, doc []byte) Decision {
	a.leads.Add(1)
	set, shared := key.set, a.shared
	if shared == nil || set.scanner == nil || set.version <= 0 {
		// No store, nothing armed, or no version to pin entries to — an
		// unpinned verdict could survive a signature update.
		return a.v.vet(set.scanner, doc)
	}
	sum := verdictcache.ContentSum(doc)
	if e, ok := shared.Get(set.version, key.digest); ok {
		if e.Sum == sum {
			a.sharedHits.Add(1)
			return Decision{Blocked: e.Blocked, Family: e.Family}
		}
		// The key nominated an entry computed for different content — a
		// digest collision (accidental or adversarial) or a corrupt
		// store. Either way the verdict does not cover these bytes.
		a.sharedRejects.Add(1)
	}
	d := a.v.vet(set.scanner, doc)
	shared.Put(set.version, key.digest, verdictcache.Verdict{Blocked: d.Blocked, Family: d.Family, Sum: sum})
	a.sharedPuts.Add(1)
	return d
}

// Metrics returns the admitter's /metrics fields: requests; batches, the
// requests that led their own decision (a shared-store lookup and, on a
// miss, a scan); coalesced, the requests that joined another request's
// in-flight decision; the shared-store counters; and the end-to-end
// admission latency summary.
func (a *Admitter) Metrics() map[string]any {
	return map[string]any{
		"requests":          a.requests.Load(),
		"batches":           a.leads.Load(),
		"coalesced":         a.coalesced.Load(),
		"shared_hits":       a.sharedHits.Load(),
		"shared_puts":       a.sharedPuts.Load(),
		"shared_rejects":    a.sharedRejects.Load(),
		"admission_latency": a.lat.Summary(),
	}
}

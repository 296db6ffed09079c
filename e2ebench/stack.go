package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"kizzle"
	"kizzle/gateway"
	"kizzle/internal/shardcoord"
	"kizzle/internal/verdictcache"
	"kizzle/sigdb"
)

// Shared secrets of the stack: the certification key strict clients
// verify attestations with, and the key verdict writes are signed with.
var (
	certKey    = []byte("e2ebench-certification-key")
	verdictKey = []byte("e2ebench-verdict-key")
)

// verifySeed is sigserve's default -certseed: the schedule permutation
// of its default in-process verification path.
const verifySeed = 1887

// stackConfig is what differs between the workloads' stacks.
type stackConfig struct {
	// shards is the number of shard workers the primary clusters on (0 =
	// in-process clustering).
	shards int
	// fresh builds a new primary compiler, with an empty content cache,
	// for every cycle instead of keeping one per profile.
	fresh bool
	// profiles are the ingest profiles compiled and published together.
	profiles []string
}

// armEvent is the strict client's apply callback reporting a version it
// deployed into the vetter.
type armEvent struct {
	snap       sigdb.Snapshot
	start, end time.Time
}

// stack is the system under test, in one process over loopback TCP: a
// publisher (sigdb store with the watch, attestation and shared verdict
// endpoints), optional shard workers, one strict sigdb client arming a
// gateway vetter, and the serving path origin → scanning proxy with
// admission batching → verdict sidecar.
type stack struct {
	cfg stackConfig
	tr  *tracer

	store     *sigdb.Store
	pub       *httptest.Server
	workers   []*httptest.Server
	shardURLs []string

	client  *sigdb.Client
	vetter  *gateway.Vetter
	admit   *gateway.Admitter
	vstore  *verdictcache.HTTPStore
	origin  *httptest.Server
	front   *httptest.Server
	armed   chan armEvent
	cancel  context.CancelFunc
	runDone chan struct{}
	// clientErrs counts errors the client's update loop reported.
	clientErrs atomic.Int64

	// primaries are the long-lived primary compilers (nil when fresh),
	// and corpus every AddKnown call they have seen, in order, so a
	// verifier can be seeded identically.
	primaries map[string]*kizzle.Compiler
	corpus    []known
}

// newStack starts every server and the client's update loop. docs are
// the documents the origin serves.
func newStack(cfg stackConfig, tr *tracer, docs []doc) (*stack, error) {
	s := &stack{cfg: cfg, tr: tr, armed: make(chan armEvent, 1), runDone: make(chan struct{})}
	s.store = sigdb.New()
	s.store.SetCertKey(certKey)
	mux := http.NewServeMux()
	mux.Handle("/signatures", s.store.Handler())
	mux.Handle("/signatures/watch", s.store.WatchHandler())
	mux.Handle("/attest", s.store.AttestHandler())
	mux.Handle("/verdicts", verdictcache.Handler(verdictcache.New(0), verdictKey))
	s.pub = httptest.NewServer(mux)

	for i := 0; i < cfg.shards; i++ {
		// One core per worker, resident sets on so the digest-first wire
		// runs, no pair-verdict cache so every cycle pays its clustering.
		w := shardcoord.NewWorker(shardcoord.WithWorkerParallelism(1), shardcoord.WithWorkerResidentBudget(4<<20))
		srv := httptest.NewServer(tr.traceHandler("shardcoord", true, w.Handler()))
		s.workers = append(s.workers, srv)
		s.shardURLs = append(s.shardURLs, srv.URL)
	}
	if !cfg.fresh {
		s.primaries = make(map[string]*kizzle.Compiler)
		for _, p := range cfg.profiles {
			s.primaries[p] = kizzle.New(s.primaryOptions(p)...)
		}
	}

	// The replica, wired as cmd/kizzlegate wires it.
	s.vetter = gateway.NewVetter(nil)
	s.client = &sigdb.Client{
		URL:       s.pub.URL + "/signatures",
		Strict:    true,
		AttestURL: s.pub.URL + "/attest",
		CertKey:   certKey,
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	go func() {
		defer close(s.runDone)
		s.client.Run(ctx, time.Minute, s.apply(ctx), func(error) { s.clientErrs.Add(1) })
	}()

	bodies := docBytes(docs)
	s.origin = httptest.NewServer(tr.traceHandler("gateway.origin", false, http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			i, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/d/"))
			if err != nil || i < 0 || i >= len(bodies) {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			w.Write(bodies[i])
		})))
	originURL, err := url.Parse(s.origin.URL)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("origin url: %w", err)
	}
	proxy := gateway.NewProxy(originURL, s.vetter)
	s.admit = gateway.NewAdmitter(s.vetter, 32, 500*time.Microsecond)
	s.vstore = &verdictcache.HTTPStore{URL: s.pub.URL + "/verdicts", Key: verdictKey}
	var shared verdictcache.Store = s.vstore
	if tr != nil {
		shared = &tracedStore{inner: s.vstore, tr: tr}
	}
	s.admit.UseSharedStore(shared)
	proxy.UseAdmitter(s.admit)
	s.front = httptest.NewServer(tr.traceHandler("gateway.front", false, proxy))
	return s, nil
}

// apply is the strict client's update callback: it arms the vetter with
// the client's compiled set, as cmd/kizzlegate's deploy does, and tells
// the publisher loop which version is now live.
func (s *stack) apply(ctx context.Context) func(sigdb.Snapshot) {
	return func(snap sigdb.Snapshot) {
		ev := armEvent{snap: snap, start: time.Now()}
		sp := s.tr.begin("sigdb.apply", snap.Version, 0)
		m, _ := s.client.Matcher()
		if m == nil {
			var err error
			if m, _, err = snap.Matcher(); err != nil {
				s.clientErrs.Add(1)
				return
			}
		}
		var sc gateway.Scanner = m
		if s.tr != nil {
			sc = &tracedScanner{m: m, tr: s.tr}
		}
		s.vetter.Update(sc)
		s.vetter.SetVersion(snap.Version)
		sp.end()
		ev.end = time.Now()
		select {
		case s.armed <- ev:
		case <-ctx.Done():
		}
	}
}

// close stops the client loop and every server, and waits for them.
func (s *stack) close() {
	s.cancel()
	<-s.runDone
	if s.front != nil {
		s.front.Close()
	}
	if s.admit != nil {
		s.admit.Close()
	}
	if s.origin != nil {
		s.origin.Close()
	}
	s.pub.Close()
	for _, w := range s.workers {
		w.Close()
	}
}

// primaryOptions is the primary compile path: the shard fleet with
// streamed dispatch when the stack has workers, in-process otherwise.
func (s *stack) primaryOptions(profile string) []kizzle.Option {
	var opts []kizzle.Option
	if len(s.shardURLs) > 0 {
		opts = append(opts, kizzle.WithShardWorkers(s.shardURLs...))
	}
	if profile != "js" {
		opts = append(opts, kizzle.WithProfile(profile))
	}
	return opts
}

// verifyOptions is sigserve's default diverse verification path
// (-certverify inprocess): a fresh in-process compiler, batch dispatch,
// schedule seed 1887.
func verifyOptions(profile string) []kizzle.Option {
	opts := []kizzle.Option{kizzle.WithBatchDispatch(), kizzle.WithScheduleSeed(verifySeed)}
	if profile != "js" {
		opts = append(opts, kizzle.WithProfile(profile))
	}
	return opts
}

// descriptors are the attested path descriptors of the two compiles.
func (s *stack) descriptors() (primary, verify sigdb.PathDescriptor) {
	primary = sigdb.PathDescriptor{Mode: "in-process", Dispatch: "stream"}
	if len(s.shardURLs) > 0 {
		primary = sigdb.PathDescriptor{Mode: "fleet", Shards: len(s.shardURLs), Dispatch: "stream", Affinity: true}
	}
	verify = sigdb.PathDescriptor{Mode: "in-process", Dispatch: "batch", Seed: verifySeed}
	if len(s.cfg.profiles) > 1 {
		primary.Profile = strings.Join(s.cfg.profiles, ",")
		verify.Profile = primary.Profile
	}
	return primary, verify
}

// cycleOut is one publish cycle's outcome.
type cycleOut struct {
	// armed is sample-to-armed: primary Process start until the replica
	// runs the new version (or, for an unchanged set, until the publish
	// returns).
	armed   time.Duration
	version int64
	changed bool
	// digest is the attested SetDigest of the published set.
	digest string
	// results are the primary compiles per profile.
	results map[string]*kizzle.Result
	// deliver is publish return → apply callback start.
	deliver time.Duration
	// sigs is the armed set.
	sigs []kizzle.Signature
}

// cycle runs one certified publish the way sigserve's certified loop
// does — primary compile, verification compile on a fresh diverse path,
// digest comparison, attested publish — and waits until the strict
// client has armed the vetter with the result.
func (s *stack) cycle(in compileInput, id int64) (cycleOut, error) {
	compilers := s.primaries
	corpus := in.known
	if s.cfg.fresh {
		compilers = make(map[string]*kizzle.Compiler)
		for _, p := range s.cfg.profiles {
			compilers[p] = kizzle.New(s.primaryOptions(p)...)
		}
	} else {
		s.corpus = append(s.corpus, in.known...)
		corpus = s.corpus
	}
	for _, k := range in.known {
		compilers[k.profile].AddKnown(k.family, k.payload)
	}

	out := cycleOut{results: make(map[string]*kizzle.Result)}
	start := time.Now()
	cyc := s.tr.begin("cycle", id, 0)
	defer cyc.end()
	var sigs, vsigs []kizzle.Signature
	for _, p := range s.cfg.profiles {
		sp := s.tr.begin("pipeline.primary", id, cyc.id())
		res, err := compilers[p].Process(in.samples[p])
		sp.end()
		if err != nil {
			return out, fmt.Errorf("primary compile (%s): %w", p, err)
		}
		out.results[p] = res
		sigs = append(sigs, res.Signatures...)
	}
	for _, p := range s.cfg.profiles {
		v := kizzle.New(verifyOptions(p)...)
		for _, k := range corpus {
			if k.profile == p {
				v.AddKnown(k.family, k.payload)
			}
		}
		sp := s.tr.begin("pipeline.verify", id, cyc.id())
		res, err := v.Process(in.samples[p])
		sp.end()
		if err != nil {
			return out, fmt.Errorf("verification compile (%s): %w", p, err)
		}
		vsigs = append(vsigs, res.Signatures...)
	}
	pd, err := sigdb.SetDigest(sigs, nil)
	if err != nil {
		return out, err
	}
	vd, err := sigdb.SetDigest(vsigs, nil)
	if err != nil {
		return out, err
	}
	primary, verify := s.descriptors()
	cd := corpusDigest(in, corpus, s.cfg.profiles)
	if pd != vd {
		if err := s.store.RecordQuarantine(sigdb.Quarantine{
			CorpusDigest: cd, Primary: primary, Verify: verify,
			PrimaryDigest: pd, VerifyDigest: vd, Reason: "benchmark cycle disagreement",
		}); err != nil {
			return out, fmt.Errorf("record quarantine: %w", err)
		}
		return out, fmt.Errorf("cycle %d quarantined: certification paths disagreed (%.12s vs %.12s)", id, pd, vd)
	}
	sp := s.tr.begin("sigdb.publish", id, cyc.id())
	version, changed, att, err := s.store.PublishAttested(sigs, nil, cd, primary, verify)
	sp.end()
	published := time.Now()
	if err != nil {
		return out, fmt.Errorf("publish: %w", err)
	}
	out.version, out.changed, out.digest, out.sigs = version, changed, att.SetDigest, sigs
	if att.SetDigest != pd {
		return out, fmt.Errorf("cycle %d: attested digest %.12s is not the compiled set's %.12s", id, att.SetDigest, pd)
	}
	if !changed {
		// The replica already runs this exact set.
		out.armed = published.Sub(start)
		if got := s.vetter.Version(); got != version {
			return out, fmt.Errorf("cycle %d: unchanged set v%d but the replica runs v%d", id, version, got)
		}
		return out, nil
	}
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for {
		select {
		case ev := <-s.armed:
			if ev.snap.Version != version {
				continue
			}
			out.armed = ev.end.Sub(start)
			out.deliver = ev.start.Sub(published)
			got, err := ev.snap.SetDigest()
			if err != nil {
				return out, err
			}
			if got != att.SetDigest {
				return out, fmt.Errorf("cycle %d: armed set %.12s does not hash to the attested %.12s", id, got, att.SetDigest)
			}
			return out, nil
		case <-timeout.C:
			return out, fmt.Errorf("cycle %d: v%d never armed (client errors %d)", id, version, s.clientErrs.Load())
		}
	}
}

// corpusDigest fingerprints a cycle's compile input for its attestation.
func corpusDigest(in compileInput, corpus []known, profiles []string) string {
	h := sha256.New()
	for _, k := range corpus {
		put(h, k.profile, k.family, k.payload)
	}
	for _, p := range profiles {
		for _, smp := range in.samples[p] {
			put(h, p, smp.ID, smp.Content)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tracedScanner is the signature set handed to the vetter in a traced
// run: it records a span around every scan the vetter asks for.
type tracedScanner struct {
	m  *kizzle.Matcher
	tr *tracer
}

func (t *tracedScanner) Scan(doc string) []kizzle.Match {
	sp := t.tr.begin("sigmatch.scan", 0, 0)
	out := t.m.Scan(doc)
	sp.endItems(int64(len(doc)), 1)
	return out
}

func (t *tracedScanner) ScanBytes(doc []byte) []kizzle.Match {
	sp := t.tr.begin("sigmatch.scan", 0, 0)
	out := t.m.ScanBytes(doc)
	sp.endItems(int64(len(doc)), 1)
	return out
}

func (t *tracedScanner) ScanAllBytes(docs [][]byte) [][]kizzle.Match {
	sp := t.tr.begin("sigmatch.scan", 0, 0)
	out := t.m.ScanAllBytes(docs)
	n := int64(0)
	for _, d := range docs {
		n += int64(len(d))
	}
	sp.endItems(n, int64(len(docs)))
	return out
}

// tracedStore is the shared verdict store handed to the admitter in a
// traced run: it records a span around every lookup and publication.
type tracedStore struct {
	inner verdictcache.Store
	tr    *tracer
}

func (t *tracedStore) Get(version int64, digest uint64) (verdictcache.Verdict, bool) {
	sp := t.tr.begin("verdictcache.get", 0, 0)
	v, ok := t.inner.Get(version, digest)
	sp.end()
	return v, ok
}

func (t *tracedStore) Put(version int64, digest uint64, v verdictcache.Verdict) {
	sp := t.tr.begin("verdictcache.put", 0, 0)
	t.inner.Put(version, digest, v)
	sp.end()
}

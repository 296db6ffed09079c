package kizzle

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"kizzle/internal/contentcache"
	"kizzle/internal/ingest"
	"kizzle/internal/jstoken"
	"kizzle/internal/pipeline"
	"kizzle/internal/shardcoord"
	"kizzle/internal/siggen"
	"kizzle/internal/sigmatch"
	"kizzle/internal/zerocopy"
)

// Sample is one input document.
type Sample struct {
	// ID identifies the sample in results.
	ID string
	// Content is a full HTML document (inline scripts are extracted) or
	// raw JavaScript.
	Content string
}

// Option configures a Compiler.
//
// Options validate their arguments: an out-of-range value (a negative
// worker count, a zero partition fanout, an empty shard URL, an unknown
// ingest profile) is recorded as a configuration fault instead of being
// silently clamped, and the first Process call on the misconfigured
// Compiler returns an error naming every faulty option.
type Option func(*pipeline.Config)

// fault records one option-validation failure on the config.
func fault(c *pipeline.Config, format string, args ...any) {
	c.Faults = append(c.Faults, fmt.Sprintf(format, args...))
}

// WithProfile selects the ingest profile — the tokenizer, streaming
// symbol lexer, unpacker, and abstraction alphabet the front half of the
// pipeline runs on. "js" (the default) is the paper's JavaScript
// exploit-kit front-end; "webkit" ingests HTML/PHP/JS web phishing-kit
// bundles. An unrecognized identifier is a configuration fault.
func WithProfile(id string) Option {
	return func(c *pipeline.Config) {
		p, ok := ingest.Lookup(id)
		if !ok {
			fault(c, "WithProfile: unknown ingest profile %q (registered: %s)", id, strings.Join(ingest.IDs(), ", "))
			return
		}
		c.Profile = p
	}
}

// Profiles lists the registered ingest profile identifiers, sorted —
// the valid arguments to WithProfile. Commands use it to validate
// -profile flags before constructing a compiler.
func Profiles() []string { return ingest.IDs() }

// WithWorkers sets clustering parallelism (default: GOMAXPROCS; 0 keeps
// the default). A negative count is a configuration fault.
func WithWorkers(n int) Option {
	return func(c *pipeline.Config) {
		if n < 0 {
			fault(c, "WithWorkers: negative worker count %d", n)
			return
		}
		c.Workers = n
	}
}

// WithEps sets the normalized token-edit-distance clustering threshold
// (default 0.10, the paper's empirically determined value). The distance
// is normalized to [0, 1], so eps outside (0, 1] is a configuration
// fault.
func WithEps(eps float64) Option {
	return func(c *pipeline.Config) {
		if eps <= 0 || eps > 1 {
			fault(c, "WithEps: threshold %g outside (0, 1]", eps)
			return
		}
		c.Eps = eps
	}
}

// WithMinPts sets DBSCAN's minimum (weighted) neighborhood size (0 keeps
// the default of 2). A negative value is a configuration fault.
func WithMinPts(n int) Option {
	return func(c *pipeline.Config) {
		if n < 0 {
			fault(c, "WithMinPts: negative neighborhood size %d", n)
			return
		}
		c.MinPts = n
	}
}

// WithThreshold sets the family-specific labeling threshold: the minimum
// winnow overlap between a cluster's unpacked prototype and the known
// corpus required to label the cluster with that family. An empty family
// name or a negative threshold is a configuration fault; thresholds
// above 1 are permitted (they make the family unlabelable, which tests
// use deliberately).
func WithThreshold(family string, threshold float64) Option {
	return func(c *pipeline.Config) {
		if family == "" {
			fault(c, "WithThreshold: empty family name")
			return
		}
		if threshold < 0 {
			fault(c, "WithThreshold(%q): negative threshold %g", family, threshold)
			return
		}
		if c.Thresholds == nil {
			c.Thresholds = make(map[string]float64)
		}
		c.Thresholds[family] = threshold
	}
}

// WithDefaultThreshold sets the labeling threshold for families without a
// family-specific one. A negative threshold is a configuration fault.
func WithDefaultThreshold(threshold float64) Option {
	return func(c *pipeline.Config) {
		if threshold < 0 {
			fault(c, "WithDefaultThreshold: negative threshold %g", threshold)
			return
		}
		c.DefaultThreshold = threshold
	}
}

// WithSignatureTokens bounds the common-token-run search: signatures
// shorter than min tokens are discarded, and the search is capped at max
// tokens (the paper caps at 200). min below 1 or max below min is a
// configuration fault.
func WithSignatureTokens(min, max int) Option {
	return func(c *pipeline.Config) {
		if min < 1 || max < min {
			fault(c, "WithSignatureTokens: invalid bounds [%d, %d]", min, max)
			return
		}
		c.Signature.MinTokens = min
		c.Signature.MaxTokens = max
	}
}

// WithSignatureSlack widens inferred class length bounds by n characters
// each way. The paper's algorithm uses the exactly observed lengths
// (slack 0) and relies on daily regeneration; positive slack makes
// signatures more robust across days at a small precision cost. Negative
// slack is a configuration fault.
func WithSignatureSlack(n int) Option {
	return func(c *pipeline.Config) {
		if n < 0 {
			fault(c, "WithSignatureSlack: negative slack %d", n)
			return
		}
		c.Signature.LengthSlack = n
	}
}

// WithPartitionSize sets the target number of unique token sequences per
// clustering partition (0 keeps the default of 300). A negative size is
// a configuration fault.
func WithPartitionSize(n int) Option {
	return func(c *pipeline.Config) {
		if n < 0 {
			fault(c, "WithPartitionSize: negative partition size %d", n)
			return
		}
		c.PartitionSize = n
	}
}

// WithPartitionFanout sets how many partitions fill concurrently during
// streaming dedup (default 8). New unique shapes scatter round-robin
// across the open partitions — the streaming stand-in for the paper's
// random partitioning — so one family's consecutive variants spread out
// instead of piling into one partition. A fanout below 1 is a
// configuration fault.
func WithPartitionFanout(n int) Option {
	return func(c *pipeline.Config) {
		if n < 1 {
			fault(c, "WithPartitionFanout: fanout %d below 1", n)
			return
		}
		c.PartitionFanout = n
	}
}

// WithBatchDispatch has no effect: the clustering stage always streams.
//
// Deprecated: batch dispatch was removed; compiles stream in-process or
// over WithShardWorkers. Use WithScheduleSeed for a diverse schedule.
func WithBatchDispatch() Option {
	return func(*pipeline.Config) {}
}

// WithCacheBytes bounds the compiler's content-addressed cache, which
// persists across Process calls so a day's batch pays only for content not
// seen on previous days (tokenization, unpacking, and fingerprinting are
// all content-keyed). 0 keeps the 64 MiB default; negative disables the
// persistent cache (each batch then uses a transient one).
func WithCacheBytes(n int) Option {
	return func(c *pipeline.Config) {
		if n < 0 {
			c.Cache = nil
			return
		}
		c.Cache = contentcache.New(n)
	}
}

// WithShardWorkers dispatches the clustering stage to remote shard
// workers (cmd/kizzleshard processes) at the given base URLs — the
// paper's 50-machine layout. Partitions stream to the fleet while this
// process is still deduplicating, each worker pre-reduces its partitions,
// and the reduce step's distance sweeps fan out as edge jobs; only
// abstract symbol sequences travel, raw documents never leave this
// process. Edge jobs are routed to the shard already holding their
// sequences and ship 20-byte content keys instead of sequence bytes the
// worker holds. Output is identical to single-process operation. An empty
// URL list keeps clustering in-process; an empty string within a
// non-empty list is a configuration fault.
func WithShardWorkers(urls ...string) Option {
	return func(c *pipeline.Config) {
		for i, u := range urls {
			if u == "" {
				fault(c, "WithShardWorkers: empty URL at position %d", i)
				return
			}
		}
		// The coordinator is constructed by New after all options are
		// applied, so WithScheduleSeed composes with the fleet regardless
		// of option order.
		c.ShardWorkers = append([]string(nil), urls...)
		if len(urls) == 0 {
			c.Clusterer = nil
		}
	}
}

// WithScheduleSeed runs the compile through a seeded alternative schedule:
// the reduce sweeps run over permuted row and col orders (in-process, the
// pairs are evaluated in a different order; on a fleet, every edge job is
// composed differently) and the shard coordinator's pull-queue assignment
// is relabeled through a seeded permutation. Both levers are provably
// output-invariant (every unordered pair is tested exactly once, final
// pair lists are sorted, and fleet results are matched by sequence
// number), so two compiles that differ only in seed must produce
// bit-identical signature sets — the diversity knob behind dual-path
// publish certification. 0 (the default) keeps the canonical schedule.
func WithScheduleSeed(seed int64) Option {
	return func(c *pipeline.Config) { c.ScheduleSeed = seed }
}

// Compiler is the Kizzle signature compiler.
type Compiler struct {
	cfg    pipeline.Config
	corpus *pipeline.Corpus
}

// defaultMaxPerFamily bounds the known-malware corpus per family. New and
// ResetKnown must agree on it: corpus generations are content-derived, so
// a long-lived publisher's rebuilt corpus and a restarted process's fresh
// one only compute equal generations if they evict identically.
const defaultMaxPerFamily = 64

// New builds a Compiler with the paper's default parameters. The compiler
// carries a content-addressed cache across Process calls (see
// WithCacheBytes), so consecutive daily batches only pay for new content.
func New(opts ...Option) *Compiler {
	cfg := pipeline.DefaultConfig()
	cfg.Cache = contentcache.New(0)
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Clusterer == nil && len(cfg.ShardWorkers) > 0 {
		cfg.Clusterer = shardcoord.NewCoordinator(shardcoord.NewHTTPTransport(cfg.ShardWorkers, nil),
			shardcoord.WithSchedulePermutation(cfg.ScheduleSeed))
	}
	return &Compiler{
		cfg:    cfg,
		corpus: pipeline.NewCorpus(cfg.Winnow, defaultMaxPerFamily),
	}
}

// CachePersistStats summarizes a persistent-cache save or load.
type CachePersistStats struct {
	// Entries is the number of cache entries written or restored.
	Entries int
	// Segments is the number of snapshot segment files involved.
	Segments int
	// CorruptSegments counts snapshot segments skipped on load for
	// checksum mismatch or truncation (always 0 on save).
	CorruptSegments int
	// SkippedEntries counts entries dropped individually (no codec,
	// failed verification); a lossy load degrades to a colder cache,
	// never to wrong answers.
	SkippedEntries int
}

// ErrNoCache is returned by SaveCache / LoadCache when the compiler's
// persistent cache was disabled via WithCacheBytes(-1).
var ErrNoCache = errors.New("kizzle: compiler has no cache to persist")

// SaveCache snapshots the compiler's content-addressed cache to dir, so a
// restarted process (see LoadCache) keeps the day-over-day economics: a
// day N+1 batch after a restart still pays only for content unseen on day
// N. Safe to call between Process calls; the snapshot replaces any
// previous one in dir.
func (c *Compiler) SaveCache(dir string) (CachePersistStats, error) {
	if c.cfg.Cache == nil {
		return CachePersistStats{}, ErrNoCache
	}
	st, err := c.cfg.Cache.Save(dir, pipeline.CacheCodecs())
	return CachePersistStats{Entries: st.Entries, Segments: st.Segments, SkippedEntries: st.Skipped}, err
}

// LoadCache restores a cache snapshot previously written by SaveCache
// into the compiler's cache (within its configured byte budget). Corrupt
// segments and stale entries are skipped, not fatal — a damaged snapshot
// simply yields a colder cache.
func (c *Compiler) LoadCache(dir string) (CachePersistStats, error) {
	if c.cfg.Cache == nil {
		return CachePersistStats{}, ErrNoCache
	}
	st, err := contentcache.LoadInto(c.cfg.Cache, dir, pipeline.CacheCodecs())
	return CachePersistStats{
		Entries:         st.Entries,
		Segments:        st.Segments,
		CorruptSegments: st.CorruptSegments,
		SkippedEntries:  st.SkippedEntries,
	}, err
}

// AddKnown seeds the known-malware corpus with a labeled unpacked payload.
// Kizzle must be seeded with at least one sample per kit it should track.
func (c *Compiler) AddKnown(family, unpackedPayload string) {
	c.corpus.Add(family, unpackedPayload)
}

// ResetKnown clears the known-malware corpus so it can be reseeded from
// scratch — publishers rebuild it whenever their known payload files
// change, keeping the corpus a pure function of the current file set (a
// retracted payload must actually go away, which Add alone cannot do).
// The reset is cheap for label caching: family generations are derived
// from contents, so families reseeded with identical payloads keep their
// generation and their cached label verdicts stay valid.
func (c *Compiler) ResetKnown() {
	c.corpus = pipeline.NewCorpus(c.cfg.Winnow, defaultMaxPerFamily)
}

// KnownFamilies lists the seeded family labels.
func (c *Compiler) KnownFamilies() []string { return c.corpus.Families() }

// Cluster is one cluster of structurally similar samples.
type Cluster struct {
	// SampleIDs are the IDs of the samples in the cluster.
	SampleIDs []string
	// Family is the kit label, or "" if the cluster is benign.
	Family string
	// Overlap is the winnow overlap behind the label.
	Overlap float64
	// Unpacked is the decoded payload of the cluster prototype.
	Unpacked string
	// SignatureIndex points into Result.Signatures (-1 if none).
	SignatureIndex int
}

// Signature is a compiled structural signature.
type Signature struct {
	inner siggen.Signature
}

// Family returns the kit the signature detects.
func (s Signature) Family() string { return s.inner.Family }

// Regex renders the signature in the AV-deployable dialect of Figure 10
// (named groups and back-references included).
func (s Signature) Regex() string { return s.inner.Regex() }

// TokenLength is the signature length in tokens.
func (s Signature) TokenLength() int { return s.inner.TokenLength() }

// Length is the signature length in characters of the rendered regex (the
// quantity plotted in Figure 12).
func (s Signature) Length() int { return s.inner.Length() }

// MarshalJSON serializes the signature in its structural form, so stored
// signature databases survive round trips (the regex rendering alone would
// lose the back-reference semantics for Go consumers).
func (s Signature) MarshalJSON() ([]byte, error) { return json.Marshal(s.inner) }

// UnmarshalJSON restores a serialized signature; validity is checked when
// it is compiled into a Matcher.
func (s *Signature) UnmarshalJSON(data []byte) error { return json.Unmarshal(data, &s.inner) }

// Result is the output of Process.
type Result struct {
	// Clusters are all clusters found, benign ones included.
	Clusters []Cluster
	// Signatures are the compiled signatures for malicious clusters.
	Signatures []Signature
	// Stats carries per-stage processing statistics.
	Stats Stats
}

// Stats summarizes one Process run.
type Stats struct {
	Samples           int
	UniqueSequences   int
	Partitions        int
	Clusters          int
	MaliciousClusters int
	// LabelSweeps counts per-family corpus sweeps during cluster labeling.
	// With a warm cache only families whose corpus slice changed since the
	// last run are re-swept (an AddKnown to one family costs one sweep per
	// re-labeled payload, not a full corpus pass); the count is
	// observational and never affects labels.
	LabelSweeps int
	// CacheHits / CacheMisses are this run's content-cache lookups. Zero
	// misses means the run added nothing to the cache — publishers use
	// that to skip redundant cache snapshots.
	CacheHits   int64
	CacheMisses int64
	// WireBytes / EdgeWireBytes are this run's shard-fleet traffic
	// (request+response bodies) — total and the edge-sweep share. Both are
	// zero for in-process clustering. On a fleet with resident sets, a
	// warm day's EdgeWireBytes shows the digest-first wire working: edge
	// jobs ship 20-byte keys instead of sequences already on the worker.
	WireBytes     int64
	EdgeWireBytes int64
}

// Process clusters, labels, and signs one batch of samples.
func (c *Compiler) Process(samples []Sample) (*Result, error) {
	inputs := make([]pipeline.Input, len(samples))
	for i, s := range samples {
		inputs[i] = pipeline.Input{ID: s.ID, Content: s.Content}
	}
	pres, err := pipeline.Process(inputs, c.corpus, c.cfg)
	if err != nil {
		if errors.Is(err, pipeline.ErrNoInputs) {
			return nil, fmt.Errorf("kizzle: %w", err)
		}
		return nil, fmt.Errorf("kizzle: process: %w", err)
	}

	out := &Result{
		Stats: Stats{
			Samples:           pres.Stats.Samples,
			UniqueSequences:   pres.Stats.UniqueSequences,
			Partitions:        pres.Stats.Partitions,
			Clusters:          pres.Stats.Clusters,
			MaliciousClusters: pres.Stats.Malicious,
			LabelSweeps:       pres.Stats.LabelSweeps,
			CacheHits:         pres.Stats.CacheHits,
			CacheMisses:       pres.Stats.CacheMisses,
			WireBytes:         pres.Stats.WireBytes,
			EdgeWireBytes:     pres.Stats.EdgeWireBytes,
		},
	}
	out.Signatures = make([]Signature, len(pres.Signatures))
	for i, sig := range pres.Signatures {
		out.Signatures[i] = Signature{inner: sig}
	}
	out.Clusters = make([]Cluster, len(pres.Clusters))
	for i, cl := range pres.Clusters {
		ids := make([]string, len(cl.Samples))
		for j, si := range cl.Samples {
			ids[j] = samples[si].ID
		}
		out.Clusters[i] = Cluster{
			SampleIDs:      ids,
			Family:         cl.Label,
			Overlap:        cl.Overlap,
			Unpacked:       cl.Unpacked,
			SignatureIndex: cl.SignatureIndex,
		}
	}
	return out, nil
}

// Match is one signature hit.
type Match struct {
	// Family is the detected kit.
	Family string
	// TokenOffset is the match position in the token stream.
	TokenOffset int
}

// Matcher is a deployed signature set — the consumer side of the AV
// distribution channel. Signatures compiled from different ingest
// profiles (resolved from each family's workload namespace, e.g.
// "webkit/strato_v2" → the webkit profile) coexist in one Matcher: a
// scanned document is lexed once per present profile and each profile's
// signatures match over their own token stream, so one gateway fleet
// serves JS exploit-kit and web phishing-kit corpora side by side.
type Matcher struct {
	// scanners holds one sigmatch scanner per ingest profile present in
	// the signature set, in first-seen family order (a js-only set has
	// exactly one entry and behaves bit-identically to the pre-profile
	// matcher).
	scanners []profileScanner
}

// profileScanner pairs one ingest profile's lexer with the scanner over
// that profile's signatures.
type profileScanner struct {
	profile ingest.Profile
	scanner *sigmatch.Scanner
}

// scannerFor returns the scanner for the given profile, appending a new
// empty one on first use.
func (m *Matcher) scannerFor(p ingest.Profile) *sigmatch.Scanner {
	for i := range m.scanners {
		if m.scanners[i].profile.ID() == p.ID() {
			return m.scanners[i].scanner
		}
	}
	s, _ := sigmatch.NewScanner(nil)
	m.scanners = append(m.scanners, profileScanner{profile: p, scanner: s})
	return s
}

// NewMatcher compiles signatures for scanning. Each signature's ingest
// profile is resolved from its family's workload namespace; matches for
// multi-profile sets are grouped by profile in first-seen family order.
func NewMatcher(sigs []Signature) (*Matcher, error) {
	grouped := make(map[string][]siggen.Signature)
	var order []string
	for _, s := range sigs {
		id := ingest.ProfileOf(s.inner.Family).ID()
		if _, seen := grouped[id]; !seen {
			order = append(order, id)
		}
		grouped[id] = append(grouped[id], s.inner)
	}
	m := &Matcher{}
	for _, id := range order {
		p, _ := ingest.Lookup(id)
		scanner, err := sigmatch.NewScanner(grouped[id])
		if err != nil {
			return nil, fmt.Errorf("kizzle: compile signatures: %w", err)
		}
		m.scanners = append(m.scanners, profileScanner{profile: p, scanner: scanner})
	}
	return m, nil
}

// Add deploys one more signature.
func (m *Matcher) Add(sig Signature) error {
	if err := m.scannerFor(ingest.ProfileOf(sig.inner.Family)).Add(sig.inner); err != nil {
		return fmt.Errorf("kizzle: add signature: %w", err)
	}
	return nil
}

// Len reports the number of deployed signatures.
func (m *Matcher) Len() int {
	n := 0
	for i := range m.scanners {
		n += m.scanners[i].scanner.Len()
	}
	return n
}

// appendMatches converts one scanner's hits onto out.
func appendMatches(out []Match, hits []sigmatch.Match) []Match {
	for _, h := range hits {
		out = append(out, Match{Family: h.Family, TokenOffset: h.TokenOffset})
	}
	return out
}

// ScanBytes scans a document held in a byte slice in place, without
// copying it into a string — the zero-copy core of the serving hot path,
// where the caller owns a pooled body buffer. The document is lexed once
// per deployed ingest profile and every profile's signatures run over
// their own token stream. The matcher retains no part of doc (matches
// carry only signature-owned family strings and integer offsets), so the
// buffer may be reused the moment the call returns. Results are
// identical to Scan(string(doc)).
func (m *Matcher) ScanBytes(doc []byte) []Match {
	out := make([]Match, 0)
	view := zerocopy.String(doc)
	for i := range m.scanners {
		ps := &m.scanners[i]
		out = appendMatches(out, ps.scanner.ScanTokens(ps.profile.LexDocument(view)))
	}
	return out
}

// Scan returns all signature matches in a document. It is a thin
// compatibility wrapper over ScanBytes: the string is viewed as bytes
// without copying and scanned through the byte path.
func (m *Matcher) Scan(doc string) []Match {
	return m.ScanBytes(zerocopy.Bytes(doc))
}

// DetectsBytes reports whether any signature matches the document,
// scanning the byte slice in place.
func (m *Matcher) DetectsBytes(doc []byte) bool {
	view := zerocopy.String(doc)
	for i := range m.scanners {
		ps := &m.scanners[i]
		if ps.scanner.DetectsTokens(ps.profile.LexDocument(view)) {
			return true
		}
	}
	return false
}

// Detects reports whether any signature matches the document — the
// string compatibility wrapper over DetectsBytes.
func (m *Matcher) Detects(doc string) bool {
	return m.DetectsBytes(zerocopy.Bytes(doc))
}

// ScanAllBytes scans a batch of byte-slice documents concurrently
// (tokenization included) without copying them, aligned with the input —
// the batched zero-copy core that bulk deployment channels (CDN
// admission queues, scan APIs) dispatch through. Buffer-reuse rules are
// those of ScanBytes.
func (m *Matcher) ScanAllBytes(docs [][]byte) [][]Match {
	// The single-profile common case keeps sigmatch's pooled batch path;
	// multi-profile sets scan per profile and merge in profile order so
	// per-document results match ScanBytes exactly.
	if len(m.scanners) == 1 {
		ps := &m.scanners[0]
		if ps.profile.ID() == ingest.Default().ID() {
			return convertBatch(ps.scanner.ScanDocumentsBytes(docs))
		}
	}
	out := make([][]Match, len(docs))
	for i := range m.scanners {
		ps := &m.scanners[i]
		streams := make([][]jstoken.Token, len(docs))
		for j, doc := range docs {
			streams[j] = ps.profile.LexDocument(zerocopy.String(doc))
		}
		for j, hits := range ps.scanner.ScanAll(streams) {
			if len(hits) > 0 {
				out[j] = appendMatches(out[j], hits)
			}
		}
	}
	return out
}

// ScanAll scans a batch of documents concurrently and returns
// per-document matches aligned with the input — the string compatibility
// wrapper over ScanAllBytes (documents are viewed as bytes without
// copying).
func (m *Matcher) ScanAll(docs []string) [][]Match {
	views := make([][]byte, len(docs))
	for i, doc := range docs {
		views[i] = zerocopy.Bytes(doc)
	}
	return m.ScanAllBytes(views)
}

// convertBatch converts sigmatch batch output, leaving no-hit documents
// nil.
func convertBatch(raw [][]sigmatch.Match) [][]Match {
	out := make([][]Match, len(raw))
	for i, hits := range raw {
		if len(hits) == 0 {
			continue
		}
		out[i] = appendMatches(make([]Match, 0, len(hits)), hits)
	}
	return out
}

// MatcherCache builds Matchers incrementally: compiled signatures are kept
// per family and reused across builds, so republishing a signature set
// where only one family changed recompiles only that family. Signature
// publishers recompile on every update (sigserve's /signatures POST and
// its periodic recompilation loop); with dozens of tracked families the
// full rebuild is almost entirely redundant work. The zero value is ready
// to use. A MatcherCache is not safe for concurrent use; callers serialize
// Build (sigserve holds its handler mutex).
type MatcherCache struct {
	families map[string]*familyCompiled
}

type familyCompiled struct {
	// sigs is the family's ordered signature list; reuse requires exact
	// structural equality, so a cache hit can never hand back the wrong
	// compilation.
	sigs     []siggen.Signature
	compiled []*sigmatch.Compiled
}

// sameSignatures reports structural equality of an ordered signature list
// against the family's cached one.
func (fc *familyCompiled) sameSignatures(sigs []Signature, idxs []int) bool {
	if len(fc.sigs) != len(idxs) {
		return false
	}
	for k, i := range idxs {
		a, b := fc.sigs[k], sigs[i].inner
		if a.Family != b.Family || a.Samples != b.Samples || len(a.Elements) != len(b.Elements) {
			return false
		}
		for e := range a.Elements {
			if a.Elements[e] != b.Elements[e] {
				return false
			}
		}
	}
	return true
}

// BuildStats reports what a MatcherCache.Build reused versus recompiled.
type BuildStats struct {
	FamiliesReused     int
	FamiliesRecompiled int
	SignaturesReused   int
	SignaturesCompiled int
}

// Build compiles sigs into a Matcher, reusing the compiled form of every
// family whose (ordered) signature list is unchanged since the previous
// Build. The resulting Matcher is identical to NewMatcher(sigs): scan
// results, signature indices, and anchor selection do not depend on what
// was cached.
func (mc *MatcherCache) Build(sigs []Signature) (*Matcher, BuildStats, error) {
	var stats BuildStats
	if mc.families == nil {
		mc.families = make(map[string]*familyCompiled)
	}

	// Group signature indices by family, preserving order.
	byFamily := make(map[string][]int)
	var order []string
	for i, s := range sigs {
		fam := s.inner.Family
		if _, seen := byFamily[fam]; !seen {
			order = append(order, fam)
		}
		byFamily[fam] = append(byFamily[fam], i)
	}

	compiled := make([]*sigmatch.Compiled, len(sigs))
	next := make(map[string]*familyCompiled, len(byFamily))
	for _, fam := range order {
		idxs := byFamily[fam]
		if prev, ok := mc.families[fam]; ok && prev.sameSignatures(sigs, idxs) {
			for k, i := range idxs {
				compiled[i] = prev.compiled[k]
			}
			next[fam] = prev
			stats.FamiliesReused++
			stats.SignaturesReused += len(idxs)
			continue
		}
		fc := &familyCompiled{
			sigs:     make([]siggen.Signature, len(idxs)),
			compiled: make([]*sigmatch.Compiled, len(idxs)),
		}
		for k, i := range idxs {
			c, err := sigmatch.Compile(sigs[i].inner)
			if err != nil {
				return nil, stats, fmt.Errorf("kizzle: compile signature %d: %w", i, err)
			}
			fc.sigs[k] = sigs[i].inner
			fc.compiled[k] = c
			compiled[i] = c
		}
		next[fam] = fc
		stats.FamiliesRecompiled++
		stats.SignaturesCompiled += len(idxs)
	}
	// Families absent from this build are dropped from the cache.
	mc.families = next

	// Assemble per-profile scanners from the compiled forms, grouped in
	// first-seen family order — the same shape NewMatcher(sigs) builds.
	m := &Matcher{}
	grouped := make(map[string][]*sigmatch.Compiled)
	var profOrder []string
	for i, s := range sigs {
		id := ingest.ProfileOf(s.inner.Family).ID()
		if _, seen := grouped[id]; !seen {
			profOrder = append(profOrder, id)
		}
		grouped[id] = append(grouped[id], compiled[i])
	}
	for _, id := range profOrder {
		p, _ := ingest.Lookup(id)
		m.scanners = append(m.scanners, profileScanner{
			profile: p,
			scanner: sigmatch.NewScannerFromCompiled(grouped[id]),
		})
	}
	return m, stats, nil
}

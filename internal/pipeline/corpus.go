package pipeline

import (
	"sort"
	"sync"

	"kizzle/internal/contentcache"
	"kizzle/internal/winnow"
)

// Corpus is the collection of known unpacked malware samples Kizzle is
// seeded with ("a collection of known unpacked malware samples (with
// exploit family labels)"). Cluster prototypes are labeled by comparing
// their winnow histogram against every corpus entry; the corpus grows over
// time as newly labeled cluster centroids are fed back, which is how Kizzle
// tracks kit drift day over day.
//
// Each family carries a content-derived generation (a digest of the
// family's current entries), so cached best-match verdicts are sliced per
// family: an Add to one family invalidates only that family's slice of a
// cached verdict, and a restarted process that reseeds the same corpus
// contents computes the same generations — a persisted label cache stays
// warm across restarts.
type Corpus struct {
	mu           sync.RWMutex
	cfg          winnow.Config
	maxPerFamily int
	entries      map[string][]corpusEntry
	// gens holds each family's content-derived generation, maintained on
	// every mutation of that family's entry list.
	gens map[string]uint64
	// families is the sorted family list, maintained on Add (families are
	// never removed), so read paths don't rebuild and re-sort it per call.
	families []string
	// version increases with every mutation (any family); kept for callers
	// that only need "did anything change".
	version uint64

	// scratchMu guards scratch, the fingerprinting state Add and
	// OverlapWith reuse; it is separate from mu so fingerprinting never
	// blocks a sweep.
	scratchMu sync.Mutex
	scratch   winnow.Scratch
}

type corpusEntry struct {
	compact winnow.Compact
	text    string
	digest  uint64
}

// NewCorpus builds an empty corpus. maxPerFamily bounds memory: when a
// family exceeds it, the oldest entries are evicted (recent variants matter
// most for tracking).
func NewCorpus(cfg winnow.Config, maxPerFamily int) *Corpus {
	if maxPerFamily <= 0 {
		maxPerFamily = 32
	}
	return &Corpus{
		cfg:          cfg,
		maxPerFamily: maxPerFamily,
		entries:      make(map[string][]corpusEntry),
		gens:         make(map[string]uint64),
	}
}

// familyGen digests a family's entry list into its generation: FNV-1a over
// the entries' content digests in order. Depending only on contents (not on
// mutation counts or process lifetime), two corpora holding the same texts
// for a family agree on its generation — including across restarts.
func familyGen(entries []corpusEntry) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, e := range entries {
		for shift := 0; shift < 64; shift += 8 {
			h ^= (e.digest >> shift) & 0xff
			h *= prime
		}
	}
	return h
}

// Add inserts one labeled unpacked sample, bumping only that family's
// generation. The entry is fingerprinted straight into compact form, the
// only form sweeps read.
func (c *Corpus) Add(family, text string) {
	entry := corpusEntry{
		compact: c.fingerprint(text),
		text:    text,
		digest:  contentcache.Digest(text),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old, existed := c.entries[family]
	list := append(old, entry)
	if len(list) > c.maxPerFamily {
		list = list[len(list)-c.maxPerFamily:]
	}
	c.entries[family] = list
	c.gens[family] = familyGen(list)
	if !existed {
		c.families = append(c.families, family)
		sort.Strings(c.families)
	}
	c.version++
}

// fingerprint computes text's compact winnow fingerprint.
func (c *Corpus) fingerprint(text string) winnow.Compact {
	c.scratchMu.Lock()
	defer c.scratchMu.Unlock()
	return c.scratch.FingerprintCompact(text, c.cfg)
}

// Version identifies the current corpus contents; it changes on every Add.
func (c *Corpus) Version() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// Generation returns a family's content-derived generation (0 for an
// unknown family). It changes exactly when the family's entry list changes
// — an Add to any other family leaves it untouched.
func (c *Corpus) Generation(family string) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.gens[family]
}

// Families returns the known family labels in sorted order.
func (c *Corpus) Families() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.families...)
}

// Size returns the number of entries stored for a family.
func (c *Corpus) Size(family string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries[family])
}

// Config returns the winnow configuration corpus entries are
// fingerprinted with; callers producing histograms for BestMatchHist must
// use the same configuration.
func (c *Corpus) Config() winnow.Config { return c.cfg }

// BestMatch returns the family with the highest winnow overlap against the
// given unpacked text and that overlap. A corpus with no entries returns
// ("", 0).
func (c *Corpus) BestMatch(text string) (string, float64) {
	return c.BestMatchHist(winnow.Fingerprint(text, c.cfg))
}

// BestMatchHist is BestMatch over a pre-computed (possibly cached)
// histogram; hist is read, never mutated, so shared cached histograms are
// safe to pass concurrently. The probe is compacted once and swept
// against the entries' pre-compacted forms with a merge walk — the tight
// no-verdicts path for callers like the oracle that inspect one document
// at a time; cache-backed labeling goes through ResolveHist instead.
func (c *Corpus) BestMatchHist(hist winnow.Histogram) (string, float64) {
	probe := hist.Compact()
	c.mu.RLock()
	defer c.mu.RUnlock()
	bestFamily, bestOverlap := "", 0.0
	for _, f := range c.families { // sorted: deterministic tie-break
		for _, e := range c.entries[f] {
			if o := winnow.OverlapCompact(probe, e.compact); o > bestOverlap {
				bestFamily, bestOverlap = f, o
			}
		}
	}
	return bestFamily, bestOverlap
}

// FamilyVerdict is one family's best overlap against a probe, tagged with
// the generation of the family it was computed against. A verdict is
// reusable exactly while its family's generation is unchanged.
type FamilyVerdict struct {
	Family  string
	Gen     uint64
	Overlap float64
}

// ResolveHist sweeps the probe histogram against the corpus family by
// family, reusing any prior verdict whose generation still matches and
// recomputing only the stale (or new) families. It returns the refreshed
// per-family verdicts (sorted by family), the overall best match under the
// deterministic sorted-family tie-break, and how many family sweeps were
// actually executed — the label cache's per-family invalidation seam: an
// Add to one family forces exactly one sweep here, not a full corpus pass.
//
// The entire resolve runs under one read lock, so the verdicts are a
// consistent snapshot even while another goroutine Adds concurrently.
func (c *Corpus) ResolveHist(hist winnow.Histogram, prior []FamilyVerdict) (verdicts []FamilyVerdict, family string, best float64, swept int) {
	c.mu.RLock()
	defer c.mu.RUnlock()

	// Fully warm fast path: prior is this method's own sorted output, so if
	// it covers every family at its current generation the verdicts are
	// reusable as-is — the steady-state labeling hot loop does one ordered
	// walk with zero allocations instead of a sort + map + slice rebuild.
	if len(prior) == len(c.families) {
		warm := true
		for i, f := range c.families {
			if prior[i].Family != f || prior[i].Gen != c.gens[f] {
				warm = false
				break
			}
		}
		if warm {
			for _, v := range prior {
				if v.Overlap > best {
					family, best = v.Family, v.Overlap
				}
			}
			return prior, family, best, 0
		}
	}

	reuse := make(map[string]FamilyVerdict, len(prior))
	for _, v := range prior {
		reuse[v.Family] = v
	}

	// The probe is compacted once and swept against the entries'
	// pre-compacted forms with a merge walk — but only if some family
	// actually needs a sweep; a fully warm resolve never compacts.
	var probe winnow.Compact
	compacted := false

	verdicts = make([]FamilyVerdict, 0, len(c.families))
	for _, f := range c.families { // sorted: deterministic tie-break
		gen := c.gens[f]
		v, ok := reuse[f]
		if !ok || v.Gen != gen {
			if !compacted {
				probe = hist.Compact()
				compacted = true
			}
			v = FamilyVerdict{Family: f, Gen: gen}
			for _, e := range c.entries[f] {
				if o := winnow.OverlapCompact(probe, e.compact); o > v.Overlap {
					v.Overlap = o
				}
			}
			swept++
		}
		verdicts = append(verdicts, v)
		if v.Overlap > best {
			family, best = f, v.Overlap
		}
	}
	return verdicts, family, best, swept
}

// OverlapWith returns the best overlap against a single family's entries,
// used by the similarity-over-time experiment (Figure 11).
func (c *Corpus) OverlapWith(family, text string) float64 {
	probe := c.fingerprint(text)
	c.mu.RLock()
	defer c.mu.RUnlock()
	best := 0.0
	for _, e := range c.entries[family] {
		if o := winnow.OverlapCompact(probe, e.compact); o > best {
			best = o
		}
	}
	return best
}

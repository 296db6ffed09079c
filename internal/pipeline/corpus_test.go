package pipeline

import (
	"sync"
	"testing"

	"kizzle/internal/contentcache"
	"kizzle/internal/ekit"
	"kizzle/internal/winnow"
)

// TestCorpusGenerations pins the generation contract the label cache
// depends on: generations are per family (an Add to one family leaves the
// others untouched), content-derived (two corpora holding the same texts
// agree, so a restarted process keeps its warm label cache), and move on
// every entry-list change, evictions included.
func TestCorpusGenerations(t *testing.T) {
	c := NewCorpus(winnow.DefaultConfig(), 3)
	if g := c.Generation("Angler"); g != 0 {
		t.Fatalf("unknown family generation = %d, want 0", g)
	}
	c.Add("Angler", "payload angler one")
	c.Add("RIG", "payload rig one")
	gAngler, gRIG := c.Generation("Angler"), c.Generation("RIG")
	if gAngler == 0 || gRIG == 0 || gAngler == gRIG {
		t.Fatalf("generations not distinct and nonzero: %d %d", gAngler, gRIG)
	}

	// An Add to RIG must not move Angler.
	c.Add("RIG", "payload rig two")
	if c.Generation("Angler") != gAngler {
		t.Fatal("Add to RIG moved Angler's generation")
	}
	if c.Generation("RIG") == gRIG {
		t.Fatal("Add to RIG did not move RIG's generation")
	}

	// Content-derived: rebuilding the same corpus reproduces the same
	// generations (the restart-warm property), while different content
	// does not.
	c2 := NewCorpus(winnow.DefaultConfig(), 3)
	c2.Add("Angler", "payload angler one")
	c2.Add("RIG", "payload rig one")
	c2.Add("RIG", "payload rig two")
	if c2.Generation("Angler") != c.Generation("Angler") || c2.Generation("RIG") != c.Generation("RIG") {
		t.Fatal("identical corpus contents produced different generations")
	}
	c3 := NewCorpus(winnow.DefaultConfig(), 3)
	c3.Add("Angler", "a different angler payload")
	if c3.Generation("Angler") == c.Generation("Angler") {
		t.Fatal("different contents produced the same generation")
	}

	// Eviction (maxPerFamily = 3) changes the entry list, so the
	// generation must move even though the newest entries recur.
	c.Add("RIG", "payload rig three")
	beforeEvict := c.Generation("RIG")
	c.Add("RIG", "payload rig four") // evicts "payload rig one"
	if c.Generation("RIG") == beforeEvict {
		t.Fatal("eviction did not move the generation")
	}
	if c.Size("RIG") != 3 {
		t.Fatalf("RIG size = %d, want 3", c.Size("RIG"))
	}
}

// TestResolveHistMatchesBruteForce pins ResolveHist's best-match result
// against the direct per-entry sweep, including the deterministic
// sorted-family tie-break, and checks verdict reuse returns the same
// answer with zero sweeps.
func TestResolveHistMatchesBruteForce(t *testing.T) {
	cfg := winnow.DefaultConfig()
	c := NewCorpus(cfg, 8)
	day := ekit.Date(8, 10)
	for _, fam := range ekit.Families {
		c.Add(fam.String(), ekit.Payload(fam, day-1))
		c.Add(fam.String(), ekit.Payload(fam, day-2))
	}
	probeText := ekit.Payload(ekit.FamilyAngler, day)
	hist := winnow.Fingerprint(probeText, cfg)

	// Brute force: per-family max, sorted sweep, strictly-greater wins.
	wantFam, wantBest := "", 0.0
	for _, fam := range c.Families() {
		if o := c.OverlapWith(fam, probeText); o > wantBest {
			wantFam, wantBest = fam, o
		}
	}

	verdicts, fam, best, swept := c.ResolveHist(hist, nil)
	if fam != wantFam || best != wantBest {
		t.Fatalf("ResolveHist = (%q, %v), brute force = (%q, %v)", fam, best, wantFam, wantBest)
	}
	if swept != len(c.Families()) {
		t.Fatalf("cold resolve swept %d families, want %d", swept, len(c.Families()))
	}

	// Warm: all generations match, nothing sweeps, same answer.
	verdicts2, fam2, best2, swept2 := c.ResolveHist(hist, verdicts)
	if swept2 != 0 {
		t.Fatalf("warm resolve swept %d families, want 0", swept2)
	}
	if fam2 != fam || best2 != best {
		t.Fatal("warm resolve changed the best match")
	}

	// Bump one family: exactly one sweep, and since the added entry is a
	// duplicate of an existing one the overlaps — and the labels they
	// imply — cannot change.
	c.Add("RIG", ekit.Payload(ekit.FamilyRIG, day-1))
	verdicts3, fam3, best3, swept3 := c.ResolveHist(hist, verdicts2)
	if swept3 != 1 {
		t.Fatalf("post-bump resolve swept %d families, want 1 (RIG only)", swept3)
	}
	if fam3 != fam || best3 != best {
		t.Fatal("duplicate-content generation bump changed the best match")
	}
	for i := range verdicts3 {
		if verdicts3[i].Overlap != verdicts2[i].Overlap {
			t.Fatalf("family %s overlap moved on duplicate add", verdicts3[i].Family)
		}
	}
}

// TestBestMatchCachedPerFamilyInvalidation drives the label cache the way
// labelClusters does and asserts the tentpole's incremental-labeling
// contract: warm lookups sweep nothing, a one-family corpus bump re-sweeps
// exactly that family, and verdicts never change when the bump carries
// duplicate content.
func TestBestMatchCachedPerFamilyInvalidation(t *testing.T) {
	cfg := winnow.DefaultConfig()
	corpus := NewCorpus(cfg, 8)
	day := ekit.Date(8, 12)
	for _, fam := range ekit.Families {
		corpus.Add(fam.String(), ekit.Payload(fam, day-1))
	}
	cache := contentcache.New(8 << 20)
	payloads := make([]string, 0, len(ekit.Families))
	for _, fam := range ekit.Families {
		payloads = append(payloads, ekit.Payload(fam, day))
	}

	families := len(corpus.Families())
	type verdict struct {
		family  string
		overlap float64
	}
	cold := make([]verdict, len(payloads))
	for i, p := range payloads {
		f, o, swept := bestMatchCached(cache, nil, corpus, p)
		if swept != families {
			t.Fatalf("cold lookup %d swept %d, want %d", i, swept, families)
		}
		cold[i] = verdict{f, o}
	}
	for i, p := range payloads {
		f, o, swept := bestMatchCached(cache, nil, corpus, p)
		if swept != 0 {
			t.Fatalf("warm lookup %d swept %d, want 0", i, swept)
		}
		if (verdict{f, o}) != cold[i] {
			t.Fatalf("warm lookup %d diverged", i)
		}
	}

	// Duplicate-content bump of one family: every payload re-sweeps only
	// that family, and no verdict moves.
	corpus.Add("Nuclear", ekit.Payload(ekit.FamilyNuclear, day-1))
	for i, p := range payloads {
		f, o, swept := bestMatchCached(cache, nil, corpus, p)
		if swept != 1 {
			t.Fatalf("post-bump lookup %d swept %d, want 1", i, swept)
		}
		if (verdict{f, o}) != cold[i] {
			t.Fatalf("post-bump lookup %d changed verdict: (%s,%v) vs (%s,%v)",
				i, f, o, cold[i].family, cold[i].overlap)
		}
	}
	// And the refreshed entries are warm again.
	for i, p := range payloads {
		if _, _, swept := bestMatchCached(cache, nil, corpus, p); swept != 0 {
			t.Fatalf("re-warmed lookup %d swept %d, want 0", i, swept)
		}
	}
}

// TestCorpusConcurrentFingerprinting runs Add and OverlapWith from
// several goroutines at once — they share the corpus's fingerprinting
// scratch — and checks every overlap against a corpus built serially.
func TestCorpusConcurrentFingerprinting(t *testing.T) {
	day := ekit.Date(8, 10)
	cfg := winnow.DefaultConfig()
	serial := NewCorpus(cfg, 8)
	for _, fam := range ekit.Families {
		serial.Add(fam.String(), ekit.Payload(fam, day-1))
	}
	c := NewCorpus(cfg, 8)
	var wg sync.WaitGroup
	for _, fam := range ekit.Families {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Add(fam.String(), ekit.Payload(fam, day-1))
			c.OverlapWith(fam.String(), ekit.Payload(fam, day))
		}()
	}
	wg.Wait()
	for _, fam := range ekit.Families {
		probe := ekit.Payload(fam, day)
		if got, want := c.OverlapWith(fam.String(), probe), serial.OverlapWith(fam.String(), probe); got != want {
			t.Errorf("%s: concurrent corpus overlap %v, serial %v", fam, got, want)
		}
	}
}

// BenchmarkCorpusAdd measures seeding a fresh corpus with known payloads —
// what a cold verification compiler pays for every AddKnown of the
// accumulated corpus before it can label anything.
func BenchmarkCorpusAdd(b *testing.B) {
	day := ekit.Date(8, 10)
	var texts, fams []string
	for d := 0; d < 8; d++ {
		for _, fam := range ekit.Families {
			fams = append(fams, fam.String())
			texts = append(texts, ekit.Payload(fam, day-d))
		}
	}
	size := 0
	for _, s := range texts {
		size += len(s)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewCorpus(winnow.DefaultConfig(), 0)
		for j, s := range texts {
			c.Add(fams[j], s)
		}
	}
}

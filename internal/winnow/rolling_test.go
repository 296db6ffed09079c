package winnow

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"kizzle/internal/ekit"
)

// referenceFingerprint is the original two-pass implementation: materialize
// every k-gram hash, then scan each window with an argmin. The streaming
// deque implementation must reproduce it bit for bit; this copy exists only
// to pin that equivalence.
func referenceFingerprint(text string, cfg Config) Histogram {
	if cfg.K <= 0 {
		cfg.K = DefaultConfig().K
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultConfig().Window
	}
	h := make(Histogram)
	if len(text) < cfg.K {
		h[hashBytes(text)]++
		return h
	}
	hashes := make([]uint64, len(text)-cfg.K+1)
	for i := range hashes {
		hashes[i] = hashBytes(text[i : i+cfg.K])
	}
	if len(hashes) <= cfg.Window {
		best := 0
		for i, x := range hashes {
			if x < hashes[best] {
				best = i
			}
		}
		h[hashes[best]]++
		return h
	}
	prevSel := -1
	for start := 0; start+cfg.Window <= len(hashes); start++ {
		window := hashes[start : start+cfg.Window]
		rel := 0
		for i, x := range window {
			if x <= window[rel] {
				rel = i
			}
		}
		abs := start + rel
		if abs != prevSel {
			h[hashes[abs]]++
			prevSel = abs
		}
	}
	return h
}

func histogramsEqual(a, b Histogram) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestRollingMatchesReferenceRandom pins the streaming deque implementation
// against the reference across random texts and a sweep of (K, Window)
// shapes, including degenerate ones (single window, text shorter than one
// gram, heavy repetition that stresses the rightmost tie-break).
func TestRollingMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	configs := []Config{
		{}, // defaults
		{K: 1, Window: 1},
		{K: 1, Window: 2},
		{K: 3, Window: 4},
		{K: 5, Window: 8},
		{K: 8, Window: 16},
		{K: 4, Window: 31}, // non-power-of-two window
	}
	var s Scratch
	for _, cfg := range configs {
		for _, n := range []int{0, 1, 4, 5, 12, 13, 100, 1000, 5000} {
			// A 4-letter alphabet forces many equal gram hashes, the case
			// where the tie-break direction is observable.
			text := randomAlphabetText(rng, n, "ab{}")
			want := referenceFingerprint(text, cfg)
			got := s.Fingerprint(text, cfg)
			if !histogramsEqual(want, got) {
				t.Fatalf("cfg %+v len %d: rolling fingerprint diverged from reference", cfg, n)
			}
		}
		// Pathological runs: constant text means every window is all-ties.
		constant := strings.Repeat("a", 400)
		if !histogramsEqual(referenceFingerprint(constant, cfg), s.Fingerprint(constant, cfg)) {
			t.Fatalf("cfg %+v: diverged on constant text", cfg)
		}
	}
}

// TestRollingMatchesReferenceQuick drives the equivalence with
// testing/quick's generator, which produces adversarial unicode-heavy
// strings the handwritten cases miss.
func TestRollingMatchesReferenceQuick(t *testing.T) {
	var s Scratch
	f := func(text string) bool {
		return histogramsEqual(referenceFingerprint(text, DefaultConfig()),
			s.Fingerprint(text, DefaultConfig()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestRollingMatchesReferenceEKCorpora pins equivalence on the real
// workload: every family's unpacked payload and packed sample across a
// week, plus benign documents — the exact texts labelClusters fingerprints.
func TestRollingMatchesReferenceEKCorpora(t *testing.T) {
	cfg := DefaultConfig()
	var s Scratch
	for day := ekit.AugustStart; day < ekit.AugustStart+7; day++ {
		for _, fam := range ekit.Families {
			payload := ekit.Payload(fam, day)
			if !histogramsEqual(referenceFingerprint(payload, cfg), s.Fingerprint(payload, cfg)) {
				t.Fatalf("%s day %d: diverged on unpacked payload", fam, day)
			}
			packed := ekit.Pack(fam, payload, day, 0)
			if !histogramsEqual(referenceFingerprint(packed, cfg), s.Fingerprint(packed, cfg)) {
				t.Fatalf("%s day %d: diverged on packed sample", fam, day)
			}
		}
	}
	for _, kind := range []string{ekit.BenignPluginDetect, ekit.BenignCharLoader, ekit.BenignHexLoader} {
		doc := ekit.BenignSample(kind, ekit.AugustStart, 0)
		if !histogramsEqual(referenceFingerprint(doc, cfg), s.Fingerprint(doc, cfg)) {
			t.Fatalf("benign %v: diverged", kind)
		}
	}
}

// TestAppendFingerprintAccumulates checks the into-histogram form both
// reuses the caller's map and accumulates counts like Merge would.
func TestAppendFingerprintAccumulates(t *testing.T) {
	var s Scratch
	text := strings.Repeat("document.write(unescape(payload));", 20)
	h := make(Histogram)
	if got := s.AppendFingerprint(h, text, DefaultConfig()); &got == nil || got.Total() == 0 {
		t.Fatal("append produced empty histogram")
	}
	once := h.Total()
	s.AppendFingerprint(h, text, DefaultConfig())
	if h.Total() != 2*once {
		t.Fatalf("second append total = %d, want %d", h.Total(), 2*once)
	}
	h.Reset()
	if h.Total() != 0 || len(h) != 0 {
		t.Fatal("Reset left entries behind")
	}
	if s.AppendFingerprint(nil, text, DefaultConfig()).Total() != once {
		t.Fatal("nil histogram not allocated")
	}
}

// TestFingerprintScratchZeroAlloc verifies the acceptance criterion: with a
// warm Scratch and a reused histogram the fingerprint path performs no
// allocations.
func TestFingerprintScratchZeroAlloc(t *testing.T) {
	var s Scratch
	text := strings.Repeat("var p = decode(buffer.split(d)); eval(p); ", 100)
	h := make(Histogram)
	// Warm up buckets and scratch.
	s.AppendFingerprint(h, text, DefaultConfig())
	allocs := testing.AllocsPerRun(20, func() {
		h.Reset()
		s.AppendFingerprint(h, text, DefaultConfig())
	})
	if allocs != 0 {
		t.Fatalf("warm fingerprint allocs/op = %v, want 0", allocs)
	}
}

// TestOverlapCompactMatchesOverlap pins the merge-walk containment against
// the map implementation bit for bit (both divide the same integer shared
// mass by the same integer minimum total).
func TestOverlapCompactMatchesOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultConfig()
	texts := []string{"", "ab", randomAlphabetText(rng, 300, "ab{};"), randomAlphabetText(rng, 5000, "abcdefg(){};=")}
	for i := 0; i < 30; i++ {
		texts = append(texts, randomAlphabetText(rng, 50+rng.Intn(2000), "abc{};=."))
	}
	hists := make([]Histogram, len(texts))
	compacts := make([]Compact, len(texts))
	for i, s := range texts {
		hists[i] = Fingerprint(s, cfg)
		compacts[i] = hists[i].Compact()
		if compacts[i].Total() != hists[i].Total() {
			t.Fatalf("compact total %d != histogram total %d", compacts[i].Total(), hists[i].Total())
		}
	}
	for i := range texts {
		for j := range texts {
			want := Overlap(hists[i], hists[j])
			got := OverlapCompact(compacts[i], compacts[j])
			if want != got {
				t.Fatalf("overlap(%d,%d): compact %v != map %v", i, j, got, want)
			}
		}
	}
	if OverlapCompact(Compact{}, compacts[2]) != 0 {
		t.Fatal("empty compact overlap should be 0")
	}
}

func randomAlphabetText(rng *rand.Rand, n int, alphabet string) string {
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; i < n; i++ {
		sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

// BenchmarkFingerprintScratch measures the streaming path with scratch and
// histogram reuse — the labelClusters configuration.
func BenchmarkFingerprintScratch(b *testing.B) {
	text := strings.Repeat("var payload = decode(buffer.split(delim)); eval(payload); ", 200)
	var s Scratch
	h := make(Histogram)
	s.AppendFingerprint(h, text, DefaultConfig())
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		s.AppendFingerprint(h, text, DefaultConfig())
	}
}

// TestFillGrams5MatchesScalar pins the 8-wide block gram hashing against
// the scalar FNV reference gram for gram: every lane of every block
// (including the ragged final lanes) must equal hashBytes of the same
// 5-byte gram.
func TestFillGrams5MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		// Lengths straddling lane boundaries: 5..5+3*laneWidth bytes.
		n := 5 + rng.Intn(3*laneWidth+1)
		text := randomAlphabetText(rng, n, "abcdefgh(){};=.,")
		grams := len(text) - 5 + 1
		dst := make([]uint64, grams)
		fillGrams5(dst, text, 0)
		for i := range dst {
			want := hashBytes(text[i : i+5])
			if dst[i] != want {
				t.Fatalf("len=%d gram=%d: got %#x want %#x", n, i, dst[i], want)
			}
		}
	}
}

// TestFingerprintCompactMatchesHistogram pins the map-free path the known
// corpus is fingerprinted with: FingerprintCompact must equal
// Fingerprint(text, cfg).Compact() exactly — same sorted hashes, counts
// and total — under the default and random K/Window configurations, with
// one Scratch reused across every document and configuration.
// Documents of every size reach both of sortSelected's paths.
func TestFingerprintCompactMatchesHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfgs := []Config{DefaultConfig(), {}}
	for i := 0; i < 12; i++ {
		cfgs = append(cfgs, Config{K: 1 + rng.Intn(9), Window: 1 + rng.Intn(20)})
	}
	// The repetitive texts select long runs of equal hashes, overfilling
	// sortSelected's buckets.
	texts := []string{"", "a", "abcd", "abcdefgh", strings.Repeat("ab", 40), strings.Repeat("abcdefgh", 500), strings.Repeat("x", 4000)}
	for i := 0; i < 25; i++ {
		texts = append(texts, randomAlphabetText(rng, rng.Intn(3000), "abc{};=.()"))
	}
	var s Scratch
	for _, cfg := range cfgs {
		for i, text := range texts {
			want := Fingerprint(text, cfg).Compact()
			got := s.FingerprintCompact(text, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cfg %+v text %d (%d bytes): FingerprintCompact differs from Fingerprint().Compact()", cfg, i, len(text))
			}
		}
	}
}

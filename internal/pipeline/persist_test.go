package pipeline

import (
	"fmt"
	"reflect"
	"testing"

	"kizzle/internal/contentcache"
	"kizzle/internal/ekit"
	"kizzle/internal/ingest"
	"kizzle/internal/jstoken"
	"kizzle/internal/siggen"
	"kizzle/internal/winnow"
)

// TestCacheCodecsRoundTrip pins every pipeline codec: encode → decode must
// reproduce the value exactly, and truncated encodings must fail rather
// than produce garbage.
func TestCacheCodecsRoundTrip(t *testing.T) {
	codecs := CacheCodecs()
	cases := []struct {
		name  string
		kind  contentcache.Kind
		value any
	}{
		{"symbols", kindRawSymbols, []jstoken.Symbol{3, 1, 4, 1, 5, 9, 2, 6}},
		{"symbols-empty", kindRawSymbols, []jstoken.Symbol{}},
		{"unpack", kindUnpack, unpackEntry{payload: "var decoded = 1;", method: "eval-unescape"}},
		{"unpack-unpacked", kindUnpack, unpackEntry{payload: "plain", method: ""}},
		{"fingerprint", kindFingerprint, fingerprintEntry{
			cfg:  winnow.Config{K: 5, Window: 8},
			hist: winnow.Histogram{0xdeadbeef: 3, 1: 1, 1 << 60: 7},
		}},
		{"label", kindLabel, labelEntry{cfg: winnow.Config{K: 3, Window: 4}, verdicts: []FamilyVerdict{
			{Family: "Nuclear", Gen: 42, Overlap: 0.875},
			{Family: "RIG", Gen: 7, Overlap: 0.31},
		}}},
		{"label-benign", kindLabel, labelEntry{cfg: winnow.DefaultConfig(), verdicts: []FamilyVerdict{
			{Family: "Angler", Gen: 1 << 63, Overlap: 0.01},
		}}},
		{"signature", kindSignature, signatureEntry{
			cfg: siggen.Config{MinTokens: 10, MaxTokens: 200, MaxLiteral: 64},
			sig: siggen.Signature{
				Family:  "Angler",
				Samples: 12,
				Elements: []siggen.Element{
					{Kind: siggen.KindLiteral, Literal: "eval", Group: -1},
					{Kind: 3, Class: "w", MinLen: 2, MaxLen: 9, Group: 1},
				},
			},
		}},
		{"verdict-true", kindPairVerdict, true},
		{"verdict-false", kindPairVerdict, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			codec, ok := codecs[tc.kind]
			if !ok {
				t.Fatalf("no codec for kind %d", tc.kind)
			}
			data, err := codec.Encode(tc.value)
			if err != nil {
				t.Fatal(err)
			}
			got, err := codec.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tc.value, got) {
				t.Fatalf("round trip diverged:\n want %#v\n got  %#v", tc.value, got)
			}
			for cut := 0; cut < len(data); cut++ {
				if _, err := codec.Decode(data[:cut]); err == nil {
					t.Fatalf("decode accepted truncation at %d/%d bytes", cut, len(data))
				}
			}
			if _, err := codec.Encode(struct{}{}); err == nil {
				t.Fatal("encode accepted a foreign type")
			}
		})
	}
}

// warmPair builds two overlapping days of inputs, the Figure 11 regime:
// ~85% of day N's distinct content recurs on day N+1.
func warmPair(t testing.TB) (day1, day2 []Input, corpus func() *Corpus) {
	t.Helper()
	day := ekit.Date(8, 9)
	d1 := dayInputs(t, day, 120)
	dn := dayInputs(t, day+1, 120)
	carried := int(float64(len(d1)) * 0.85)
	novel := len(d1) - carried
	if novel > len(dn) {
		t.Fatalf("not enough novel inputs: need %d, have %d", novel, len(dn))
	}
	d2 := append(append([]Input(nil), d1[:carried]...), dn[:novel]...)
	return d1, d2, func() *Corpus { return seededCorpus(day) }
}

// TestPersistentCacheRestart is the restart-economics test: a cache
// saved to disk and reloaded must (a) leave pipeline output untouched and
// (b) recover at least 80% of the warm-day hit rate an uninterrupted
// in-memory cache achieves. Every entry the pipeline writes must have a
// codec, so the retired token-stream kind (see
// TestSnapshotWithRetiredTokenKind) may not reappear unpersisted: a save
// that skips an entry fails here.
func TestPersistentCacheRestart(t *testing.T) {
	day1, day2, corpus := warmPair(t)
	cfg := DefaultConfig()

	// Reference: day 2 with no cache at all.
	ref, err := Process(day2, corpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stripTimings(&ref)

	runWarm := func(cache *contentcache.Cache) (Result, float64) {
		t.Helper()
		ccfg := cfg
		ccfg.Cache = cache
		cache.ResetStats()
		res, err := Process(day2, corpus(), ccfg)
		if err != nil {
			t.Fatal(err)
		}
		st := cache.Stats()
		rate := 0.0
		if st.Hits+st.Misses > 0 {
			rate = float64(st.Hits) / float64(st.Hits+st.Misses)
		}
		return res, rate
	}

	// Uninterrupted process: day 1 primes, day 2 runs warm.
	mem := contentcache.New(32 << 20)
	memCfg := cfg
	memCfg.Cache = mem
	if _, err := Process(day1, corpus(), memCfg); err != nil {
		t.Fatal(err)
	}
	memRes, memRate := runWarm(mem)

	// Restarted process: day 1 primes, snapshot to disk, reload, day 2.
	dir := t.TempDir()
	before := contentcache.New(32 << 20)
	beforeCfg := cfg
	beforeCfg.Cache = before
	if _, err := Process(day1, corpus(), beforeCfg); err != nil {
		t.Fatal(err)
	}
	saved, err := before.Save(dir, CacheCodecs())
	if err != nil {
		t.Fatal(err)
	}
	if saved.Skipped > 0 {
		t.Fatalf("%d pipeline entries had no codec", saved.Skipped)
	}
	reloaded, lstats, err := contentcache.Load(dir, CacheCodecs(), 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	if lstats.Entries != saved.Entries || lstats.SkippedEntries > 0 || lstats.CorruptSegments > 0 {
		t.Fatalf("lossy reload: saved %+v, loaded %+v", saved, lstats)
	}
	diskRes, diskRate := runWarm(reloaded)

	stripTimings(&memRes)
	stripTimings(&diskRes)
	if !reflect.DeepEqual(ref.Clusters, memRes.Clusters) || !reflect.DeepEqual(ref.Signatures, memRes.Signatures) {
		t.Fatal("in-memory warm run diverged from uncached run")
	}
	if !reflect.DeepEqual(ref.Clusters, diskRes.Clusters) || !reflect.DeepEqual(ref.Signatures, diskRes.Signatures) {
		t.Fatal("restarted warm run diverged from uncached run")
	}

	t.Logf("warm-day hit rate: in-memory %.1f%%, after restart %.1f%%", 100*memRate, 100*diskRate)
	if memRate == 0 {
		t.Fatal("in-memory warm run had no cache hits; test premise broken")
	}
	if diskRate < 0.8*memRate {
		t.Fatalf("restart kept %.1f%% hit rate, want ≥80%% of in-memory %.1f%%", 100*diskRate, 100*memRate)
	}
}

// snapshotBatch is one profile's batch behind testdata/snapshot-tokens.
type snapshotBatch struct {
	profile ingest.Profile
	inputs  []Input
	corpus  *Corpus
}

// snapshotBatches are two tiny batches, one per ingest profile, that each
// form one labeled cluster with a signature: four documents with one
// structure and different names and numbers.
func snapshotBatches() []snapshotBatch {
	webkit, _ := ingest.Lookup("webkit")
	js := snapshotBatch{profile: ingest.Default(), corpus: NewCorpus(winnow.DefaultConfig(), 4)}
	wk := snapshotBatch{profile: webkit, corpus: NewCorpus(winnow.DefaultConfig(), 4)}
	for i := 0; i < 4; i++ {
		n := 7 + 13*i
		js.inputs = append(js.inputs, Input{ID: fmt.Sprintf("js-%d", i), Content: fmt.Sprintf(
			`<html><body><script>var v%[1]d = "s%[2]d"; function g%[1]d(a, b) { if (a > b) { return a - b * %[2]d; } return b; } g%[1]d(v%[1]d.length, %[2]d); window.x%[1]d = g%[1]d;</script></body></html>`, i, n)})
		wk.inputs = append(wk.inputs, Input{ID: fmt.Sprintf("webkit-%d", i), Content: fmt.Sprintf(
			`<html><head><title>Sign in %[2]d</title></head><body><form action="p%[1]d.php" method="POST"><input type="text" name="u%[1]d"/><input type="password" name="p%[1]d"/><button>Go</button></form><script>var t%[1]d = %[2]d; if (t%[1]d > 1) { document.forms[0].submit(); }</script></body></html>`, i, n)})
	}
	js.corpus.Add("TinyKit", jstoken.ExtractScripts(js.inputs[0].Content))
	wk.corpus.Add("webkit/tinyphish", wk.inputs[0].Content)
	return []snapshotBatch{js, wk}
}

// TestSnapshotWithRetiredTokenKind loads testdata/snapshot-tokens, which
// the pipeline wrote over snapshotBatches while it still cached full
// token streams (kind 5, and 21 under the webkit profile) for the
// signature stage. Those eight entries, one per sampled document, have no
// codec any more and must be skipped one by one; the other sixteen
// (symbols, unpack, fingerprint, label and signature entries) must load,
// and a warm run over the same batches must answer every lookup from
// them and produce what an uncached run produces.
func TestSnapshotWithRetiredTokenKind(t *testing.T) {
	cache, st, err := contentcache.Load("testdata/snapshot-tokens", CacheCodecs(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 1 || st.CorruptSegments != 0 || st.SkippedEntries != 8 || st.Entries != 16 {
		t.Fatalf("load stats %+v, want 1 segment, 16 entries and the 8 token entries skipped", st)
	}
	for _, b := range snapshotBatches() {
		cfg := DefaultConfig()
		cfg.Profile = b.profile
		ref, err := Process(b.inputs, b.corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Signatures) != 1 {
			t.Fatalf("%s: %d signatures, want 1", b.profile.ID(), len(ref.Signatures))
		}
		cfg.Cache = cache
		warm, err := Process(b.inputs, b.corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Stats.CacheMisses != 0 || warm.Stats.CacheHits == 0 {
			t.Fatalf("%s: warm run had %d hits and %d misses, want only hits", b.profile.ID(), warm.Stats.CacheHits, warm.Stats.CacheMisses)
		}
		if !reflect.DeepEqual(ref.Clusters, warm.Clusters) || !reflect.DeepEqual(ref.Signatures, warm.Signatures) {
			t.Fatalf("%s: run on the restored snapshot diverged from an uncached run", b.profile.ID())
		}
	}
}

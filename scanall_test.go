package kizzle_test

import (
	"runtime"
	"strings"
	"testing"

	"kizzle"
	"kizzle/synth"
)

// webkitSignatureSet compiles one synthetic phishing-kit day under the
// webkit profile.
func webkitSignatureSet(t testing.TB, day int) []kizzle.Signature {
	t.Helper()
	cfg := synth.DefaultWebkitConfig()
	cfg.BenignPerDay = 20
	stream, err := synth.NewWebkitStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := kizzle.New(kizzle.WithProfile("webkit"), kizzle.WithSignatureSlack(2))
	for _, fam := range synth.WebkitKits() {
		c.AddKnown("webkit/"+fam.String(), synth.WebkitPayload(fam, day-1))
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
		t.Fatal("no webkit signatures trained")
	}
	return res.Signatures
}

// TestScanAllBytesMatchesScanBytes is the batch≡per-document
// differential for the matcher's batched entry point: for a js-only and
// a js+webkit signature set, at one and at four procs, every document's
// ScanAllBytes result equals its ScanBytes result in families and
// offsets — kit pages, phishing bundles, benign pages, the empty
// document and non-script bytes alike. DetectsBytes agrees with both.
func TestScanAllBytesMatchesScanBytes(t *testing.T) {
	const webkitDay = 35 // mid-epoch for every phishing-kit family
	jsSigs := buildSignatureSet(t, august(5))
	webkitSigs := webkitSignatureSet(t, webkitDay)

	var docs [][]byte
	jsStream, err := synth.NewStream(synth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range jsStream.Day(august(6)) {
		docs = append(docs, []byte(s.Content))
	}
	wcfg := synth.DefaultWebkitConfig()
	wcfg.BenignPerDay = 5
	webkitStream, err := synth.NewWebkitStream(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range webkitStream.Day(webkitDay + 1) {
		docs = append(docs, []byte(s.Content))
	}
	docs = append(docs,
		nil,
		[]byte{},
		[]byte("plain text, no markup and no script"),
		[]byte{0x89, 'P', 'N', 'G', '\r', '\n', 0x1a, '\n', 0, 0, 0, 0x0d},
		[]byte("<html><body><p>no script here</p></body></html>"),
	)

	sets := []struct {
		name string
		sigs []kizzle.Signature
	}{
		{"js", jsSigs},
		{"js+webkit", append(append([]kizzle.Signature(nil), jsSigs...), webkitSigs...)},
	}
	for _, set := range sets {
		m, err := kizzle.NewMatcher(set.sigs)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]kizzle.Match, len(docs))
		families := map[bool]int{} // webkit-namespaced hit → count
		for i, doc := range docs {
			want[i] = m.ScanBytes(doc)
			if m.DetectsBytes(doc) != (len(want[i]) > 0) {
				t.Fatalf("%s doc %d: DetectsBytes disagrees with ScanBytes %v", set.name, i, want[i])
			}
			for _, h := range want[i] {
				families[strings.HasPrefix(h.Family, "webkit/")]++
			}
		}
		if families[false] == 0 {
			t.Fatalf("%s: no js family matched any document; the differential is vacuous", set.name)
		}
		if set.name == "js+webkit" && families[true] == 0 {
			t.Fatalf("%s: no webkit family matched any document; the differential is vacuous", set.name)
		}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got := m.ScanAllBytes(docs)
			runtime.GOMAXPROCS(prev)
			if len(got) != len(docs) {
				t.Fatalf("%s/procs=%d: %d results for %d documents", set.name, procs, len(got), len(docs))
			}
			for i := range docs {
				if !sameMatches(got[i], want[i]) {
					t.Fatalf("%s/procs=%d doc %d: ScanAllBytes %v, ScanBytes %v", set.name, procs, i, got[i], want[i])
				}
			}
		}
	}
}

// sameMatches compares two match lists by family and offset, treating
// nil and empty alike.
func sameMatches(a, b []kizzle.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

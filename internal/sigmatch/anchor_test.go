package sigmatch

import (
	"fmt"
	"strings"
	"testing"

	"kizzle/internal/ekit"
	"kizzle/internal/jstoken"
	"kizzle/internal/parallel"
	"kizzle/internal/siggen"
)

// naiveScanTokens is the pre-anchor-index reference: every signature runs
// its own sliding scan over the whole token stream.
func naiveScanTokens(s *Scanner, tokens []jstoken.Token) []Match {
	var out []Match
	for i, c := range s.sigs {
		if off, ok := c.MatchTokens(tokens); ok {
			out = append(out, Match{Family: c.Family(), SignatureIndex: i, TokenOffset: off})
		}
	}
	return out
}

// ekitScanner compiles one signature per kit family from a day of samples
// and returns it alongside a mixed malicious+benign document corpus from
// the surrounding days.
func ekitScanner(t testing.TB, sigDay int) (*Scanner, []string) {
	t.Helper()
	cfg := ekit.DefaultStreamConfig()
	cfg.BenignPerDay = 40
	stream, err := ekit.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byFamily := make(map[string][][]jstoken.Token)
	for _, s := range stream.Day(sigDay) {
		if s.Family == ekit.FamilyBenign {
			continue
		}
		fam := s.Family.String()
		if len(byFamily[fam]) < 8 {
			byFamily[fam] = append(byFamily[fam], jstoken.LexDocument(s.Content))
		}
	}
	scanner, err := NewScanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range ekit.Families {
		samples := byFamily[fam.String()]
		if len(samples) < 2 {
			continue
		}
		sig, err := siggen.Generate(fam.String(), samples, siggen.Config{MinTokens: 8, MaxTokens: 200, MaxLiteral: 64})
		if err != nil {
			continue // some families may lack a common run on some days
		}
		if err := scanner.Add(sig); err != nil {
			t.Fatal(err)
		}
	}
	if scanner.Len() < 2 {
		t.Fatalf("only %d signatures generated", scanner.Len())
	}
	var docs []string
	for day := sigDay; day <= sigDay+1; day++ {
		for _, s := range stream.Day(day) {
			docs = append(docs, s.Content)
		}
	}
	return scanner, docs
}

// TestAnchorScanMatchesNaive: the anchor-indexed single-pass scan must
// produce exactly the matches of the per-signature sliding scan over a
// randomized kit+benign corpus.
func TestAnchorScanMatchesNaive(t *testing.T) {
	scanner, docs := ekitScanner(t, ekit.Date(8, 5))
	matchedDocs, totalMatches := 0, 0
	for di, doc := range docs {
		tokens := jstoken.LexDocument(doc)
		got := scanner.ScanTokens(tokens)
		want := naiveScanTokens(scanner, tokens)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("doc %d: anchored %v, naive %v", di, got, want)
		}
		if det := scanner.DetectsTokens(tokens); det != (len(want) > 0) {
			t.Fatalf("doc %d: Detects %v with %d naive matches", di, det, len(want))
		}
		if len(got) > 0 {
			matchedDocs++
			totalMatches += len(got)
		}
	}
	if matchedDocs == 0 {
		t.Fatal("corpus produced no matches; differential test vacuous")
	}
	t.Logf("%d/%d docs matched (%d matches)", matchedDocs, len(docs), totalMatches)
}

// TestAnchorFallbackUnanchored: a signature with no literal element (all
// classes) must still match via the sliding fallback.
func TestAnchorFallbackUnanchored(t *testing.T) {
	sig := siggen.Signature{Family: "X", Elements: []siggen.Element{
		{Kind: siggen.KindClass, Class: "[a-z]", MinLen: 3, MaxLen: 5, Group: 0},
		{Kind: siggen.KindClass, Class: "[0-9]", MinLen: 2, MaxLen: 2, Group: -1},
		{Kind: siggen.KindBackref, Group: 0},
	}}
	s, err := NewScanner([]siggen.Signature{sig})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.unanchored) != 1 {
		t.Fatalf("unanchored = %v, want one entry", s.unanchored)
	}
	tokens := jstoken.Lex(`foo 42 foo`)
	matches := s.ScanTokens(tokens)
	if len(matches) != 1 {
		t.Fatalf("matches = %v", matches)
	}
	if !s.DetectsTokens(tokens) {
		t.Error("DetectsTokens missed the unanchored signature")
	}
	if s.DetectsTokens(jstoken.Lex(`foo 42 bar`)) {
		t.Error("back-reference violated")
	}
}

// TestScanAllMatchesScanTokens: one Scanner shared by a worker pool (as
// kizzle.Matcher.ScanAllBytes shares it) must agree sample-for-sample
// with serial scans, and the string entry point with the token one.
func TestScanAllMatchesScanTokens(t *testing.T) {
	scanner, docs := ekitScanner(t, ekit.Date(8, 12))
	streams := make([][]jstoken.Token, len(docs))
	for i, doc := range docs {
		streams[i] = jstoken.LexDocument(doc)
	}
	batch := make([][]Match, len(streams))
	parallel.ForEach(len(streams), 4, 1, func(_, i int) {
		batch[i] = scanner.ScanTokens(streams[i])
	})
	byDoc := make([][]Match, len(docs))
	parallel.ForEach(len(docs), 4, 1, func(_, i int) {
		byDoc[i] = scanner.Scan(docs[i])
	})
	for i := range streams {
		want := scanner.ScanTokens(streams[i])
		if fmt.Sprint(batch[i]) != fmt.Sprint(want) {
			t.Fatalf("doc %d: pooled %v, serial %v", i, batch[i], want)
		}
		if fmt.Sprint(byDoc[i]) != fmt.Sprint(want) {
			t.Fatalf("doc %d: pooled Scan %v, serial ScanTokens %v", i, byDoc[i], want)
		}
	}
}

// TestGroupsGrownByBackref: groups derivation must be uniform across
// element kinds — a back-reference alone grows the capture space, so a
// signature whose backref group is the maximum does not index out of
// bounds even if validation rules change.
func TestGroupsGrownByBackref(t *testing.T) {
	sig := siggen.Signature{Family: "X", Elements: []siggen.Element{
		{Kind: siggen.KindClass, Class: "[a-z]", MinLen: 1, MaxLen: 8, Group: 1},
		{Kind: siggen.KindLiteral, Literal: ";", Group: -1},
		{Kind: siggen.KindBackref, Group: 1},
	}}
	c, err := Compile(sig)
	if err != nil {
		t.Fatal(err)
	}
	if c.Groups() != 2 {
		t.Errorf("Groups() = %d, want 2", c.Groups())
	}
	if _, ok := c.MatchTokens(jstoken.Lex(`ab ; ab`)); !ok {
		t.Error("signature must match consistent reuse")
	}
	if _, ok := c.MatchTokens(jstoken.Lex(`ab ; cd`)); ok {
		t.Error("signature must reject inconsistent reuse")
	}
}

// BenchmarkScanManySignatures deploys a realistic multi-signature set; the
// anchor index keeps per-token cost flat in the number of signatures where
// the naive scan pays sigs × offsets.
func BenchmarkScanManySignatures(b *testing.B) {
	scanner, _ := ekitScanner(b, ekit.Date(8, 5))
	// Pad the set with structural variants anchored on distinct literals.
	for i := 0; scanner.Len() < 40; i++ {
		marker := fmt.Sprintf("kit_%d_entry", i)
		sig := siggen.Signature{Family: "Pad", Elements: []siggen.Element{
			{Kind: siggen.KindLiteral, Literal: marker, Group: -1},
			{Kind: siggen.KindLiteral, Literal: "=", Group: -1},
			{Kind: siggen.KindClass, Class: "[0-9a-zA-Z]", MinLen: 4, MaxLen: 12, Group: 0},
			{Kind: siggen.KindLiteral, Literal: ";", Group: -1},
			{Kind: siggen.KindBackref, Group: 0},
		}}
		if err := scanner.Add(sig); err != nil {
			b.Fatal(err)
		}
	}
	doc := strings.Repeat(`var filler = compute(1, "x"); `, 300) + `kit_7_entry = abc123; abc123`
	tokens := jstoken.LexDocument(doc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(scanner.ScanTokens(tokens)) == 0 {
			b.Fatal("miss")
		}
	}
}

// BenchmarkScanManyNaive is the sliding-scan reference for the same set.
func BenchmarkScanManyNaive(b *testing.B) {
	scanner, _ := ekitScanner(b, ekit.Date(8, 5))
	for i := 0; scanner.Len() < 40; i++ {
		marker := fmt.Sprintf("kit_%d_entry", i)
		sig := siggen.Signature{Family: "Pad", Elements: []siggen.Element{
			{Kind: siggen.KindLiteral, Literal: marker, Group: -1},
			{Kind: siggen.KindLiteral, Literal: "=", Group: -1},
			{Kind: siggen.KindClass, Class: "[0-9a-zA-Z]", MinLen: 4, MaxLen: 12, Group: 0},
			{Kind: siggen.KindLiteral, Literal: ";", Group: -1},
			{Kind: siggen.KindBackref, Group: 0},
		}}
		if err := scanner.Add(sig); err != nil {
			b.Fatal(err)
		}
	}
	doc := strings.Repeat(`var filler = compute(1, "x"); `, 300) + `kit_7_entry = abc123; abc123`
	tokens := jstoken.LexDocument(doc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(naiveScanTokens(scanner, tokens)) == 0 {
			b.Fatal("miss")
		}
	}
}

// referenceScanAnchored is the pre-block-prefilter scalar loop: every
// token pays the length/first-byte test individually. The block-skip scan
// must visit exactly the same candidates in the same order, so its output
// (including the early-stop path) must be identical.
func referenceScanAnchored(s *Scanner, tokens []jstoken.Token, stop *bool) (offsets []int, found []bool) {
	if s.anchoredCount == 0 {
		return nil, nil
	}
	var captures []string
	if s.maxGroups > 0 {
		captures = make([]string, s.maxGroups)
	}
	remaining := s.anchoredCount
	for pos := range tokens {
		v := tokens[pos].Value()
		if len(v) < s.minAnchorLen || len(v) > s.maxAnchorLen || !s.anchorByte[v[0]] {
			continue
		}
		cands, ok := s.index[v]
		if !ok {
			continue
		}
		for _, cand := range cands {
			if found != nil && found[cand.sig] {
				continue
			}
			start := pos - cand.elem
			c := s.sigs[cand.sig]
			if start < 0 || start+len(c.sig.Elements) > len(tokens) {
				continue
			}
			if !c.matchAt(tokens, start, captures) {
				continue
			}
			if found == nil {
				found = make([]bool, len(s.sigs))
				offsets = make([]int, len(s.sigs))
			}
			found[cand.sig], offsets[cand.sig] = true, start
			if stop != nil {
				*stop = true
				return offsets, found
			}
			remaining--
			if remaining == 0 {
				return offsets, found
			}
		}
	}
	return offsets, found
}

// TestBlockPrefilterMatchesScalar pins the 64-byte-block skip loop against
// the scalar per-token prefilter on the EK corpus (multiple distinct
// anchor first bytes and candidate-dense malicious docs) and on synthetic
// streams padded so candidates straddle block boundaries.
func TestBlockPrefilterMatchesScalar(t *testing.T) {
	scanner, docs := ekitScanner(t, 12)
	if len(scanner.anchorFirst) < 1 {
		t.Fatal("no anchored signatures")
	}
	for _, doc := range docs {
		tokens := jstoken.LexDocument(doc)
		gotOff, gotFound := scanner.scanAnchored(tokens, nil)
		wantOff, wantFound := referenceScanAnchored(scanner, tokens, nil)
		for i := range scanner.sigs {
			gf := gotFound != nil && gotFound[i]
			wf := wantFound != nil && wantFound[i]
			if gf != wf || (gf && gotOff[i] != wantOff[i]) {
				t.Fatalf("sig %d: block (%v) vs scalar (%v) disagree", i, gf, wf)
			}
		}
		var gotStop, wantStop bool
		scanner.scanAnchored(tokens, &gotStop)
		referenceScanAnchored(scanner, tokens, &wantStop)
		if gotStop != wantStop {
			t.Fatalf("early-stop disagree: block %v scalar %v", gotStop, wantStop)
		}
	}
	// Synthetic: one anchor byte (IndexByte path) with candidates at block
	// edges, plus empty-value string tokens in the stream.
	sig := siggen.Signature{Family: "f", Elements: []siggen.Element{
		{Kind: siggen.KindLiteral, Literal: "needle"},
		{Kind: siggen.KindLiteral, Literal: "("},
	}}
	one, err := NewScanner([]siggen.Signature{sig})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := 0; i < 200; i++ {
		b.WriteString("x = '';\n") // empty string value tokens
		if i%63 == 0 {
			b.WriteString("needle(1);\n")
		}
	}
	tokens := jstoken.LexDocument(b.String())
	gotOff, gotFound := one.scanAnchored(tokens, nil)
	wantOff, wantFound := referenceScanAnchored(one, tokens, nil)
	if (gotFound == nil) != (wantFound == nil) {
		t.Fatalf("synthetic found mismatch: %v vs %v", gotFound, wantFound)
	}
	if gotFound != nil && (gotFound[0] != wantFound[0] || gotOff[0] != wantOff[0]) {
		t.Fatalf("synthetic: block (%v, %d) scalar (%v, %d)", gotFound[0], gotOff[0], wantFound[0], wantOff[0])
	}
	if !gotFound[0] {
		t.Fatal("synthetic needle not found")
	}
}

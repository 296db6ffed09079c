package siggen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"kizzle/internal/ekit"
	"kizzle/internal/ingest"
	"kizzle/internal/jstoken"
	"kizzle/internal/phishkit"
)

// referenceFindCommonRun is the paper's naive search, kept as the oracle
// FindCommonRun is pinned to: the same binary search over N, where each
// probe enumerates the shortest sequence's windows left to right and
// scans every sequence for each of them.
func referenceFindCommonRun(seqs [][]jstoken.Symbol, minTokens, maxTokens int) (CommonRun, bool) {
	if len(seqs) == 0 || minTokens <= 0 {
		return CommonRun{}, false
	}
	shortest := 0
	for i, s := range seqs {
		if len(s) < len(seqs[shortest]) {
			shortest = i
		}
	}
	hi := min(len(seqs[shortest]), maxTokens)
	if hi < minTokens {
		return CommonRun{}, false
	}
	var best CommonRun
	found := false
	lo := minTokens
	for lo <= hi {
		mid := (lo + hi) / 2
		if run, ok := commonRunOfLength(seqs, shortest, mid); ok {
			best, found = run, true
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best, found
}

// commonRunOfLength checks whether a common substring of exactly n symbols
// exists that is unique in every sequence. Candidates are enumerated from
// the shortest sequence; the first qualifying candidate (leftmost) wins.
func commonRunOfLength(seqs [][]jstoken.Symbol, shortest, n int) (CommonRun, bool) {
	base := seqs[shortest]
candidates:
	for start := 0; start+n <= len(base); start++ {
		window := base[start : start+n]
		starts := make([]int, len(seqs))
		for i, s := range seqs {
			pos, count := referenceOccurrences(s, window)
			if count != 1 {
				continue candidates
			}
			starts[i] = pos
		}
		return CommonRun{Length: n, Starts: starts}, true
	}
	return CommonRun{}, false
}

// referenceOccurrences returns the first match position of needle in
// haystack and the number of matches, stopping after the second.
func referenceOccurrences(haystack, needle []jstoken.Symbol) (first, count int) {
	first = -1
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if slices.Equal(haystack[i:i+len(needle)], needle) {
			if count == 0 {
				first = i
			}
			count++
			if count > 1 {
				return first, count
			}
		}
	}
	return first, count
}

// longestUniqueCommonRun is the exhaustive answer FindCommonRun's binary
// search approximates: the longest N in [minTokens, maxTokens] at which a
// probe succeeds, or 0.
func longestUniqueCommonRun(seqs [][]jstoken.Symbol, minTokens, maxTokens int) int {
	shortest := 0
	for i, s := range seqs {
		if len(s) < len(seqs[shortest]) {
			shortest = i
		}
	}
	for n := min(len(seqs[shortest]), maxTokens); n >= minTokens; n-- {
		if _, ok := commonRunOfLength(seqs, shortest, n); ok {
			return n
		}
	}
	return 0
}

func checkAgainstReference(t *testing.T, what string, seqs [][]jstoken.Symbol, minTokens, maxTokens int) {
	t.Helper()
	got, gok := FindCommonRun(seqs, minTokens, maxTokens)
	want, wok := referenceFindCommonRun(seqs, minTokens, maxTokens)
	if gok != wok || got.Length != want.Length || fmt.Sprint(got.Starts) != fmt.Sprint(want.Starts) {
		t.Fatalf("%s (min %d, max %d): FindCommonRun = %v %+v, reference %v %+v",
			what, minTokens, maxTokens, gok, got, wok, want)
	}
}

// junkDoc inserts a junk statement after each ';' of doc with
// probability 0.12: the §V evasion compile-cold's samples carry.
func junkDoc(doc string, rng *rand.Rand) string {
	ident := func() string {
		b := make([]byte, 3+rng.Intn(5))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	var sb strings.Builder
	for _, s := range strings.SplitAfter(doc, ";") {
		sb.WriteString(s)
		if rng.Float64() >= 0.12 {
			continue
		}
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&sb, "var %s=%s(%d);", ident(), ident(), 10+rng.Intn(90))
		case 1:
			sb.WriteString(ident() + "++;")
		case 2:
			fmt.Fprintf(&sb, "if(%s){%s=%d;}", ident(), ident(), 10+rng.Intn(90))
		default:
			fmt.Fprintf(&sb, "while(false){%s();}", ident())
		}
	}
	return sb.String()
}

// kitCluster is one cluster of signature inputs: its documents and the
// ingest profile that lexes them.
type kitCluster struct {
	profile ingest.Profile
	docs    []string
}

// tokens lexes every document in full, the input Generate takes.
func (c kitCluster) tokens() [][]jstoken.Token {
	out := make([][]jstoken.Token, len(c.docs))
	for i, doc := range c.docs {
		out[i] = c.profile.LexDocument(doc)
	}
	return out
}

// symbols lexes every document straight to its symbol sequence through
// one profile scratch, as the pipeline's cluster stage does before it
// caches them.
func (c kitCluster) symbols() [][]jstoken.Symbol {
	sc := c.profile.NewScratch()
	out := make([][]jstoken.Symbol, len(c.docs))
	for i, doc := range c.docs {
		out[i] = sc.AppendSymbols(nil, doc)
	}
	return out
}

// window lexes tokens lo through hi-1 of document i, as the pipeline's
// signature stage does.
func (c kitCluster) window(i, lo, hi int) []jstoken.Token {
	return c.profile.LexDocumentWindow(c.docs[i], lo, hi)
}

// kitClusters returns signature inputs shaped like the pipeline's: for
// every exploit-kit and phishing-kit family, 24 junk-insertion variants
// of the family's packed samples (the pipeline's per-cluster sample cap),
// and 24 identical copies of one packed sample.
func kitClusters() map[string]kitCluster {
	rng := rand.New(rand.NewSource(19))
	day := ekit.Date(8, 12)
	js := ingest.Default()
	webkit, _ := ingest.Lookup("webkit")
	out := map[string]kitCluster{}
	for _, fam := range ekit.Families {
		payload := ekit.Payload(fam, day)
		junk, same := kitCluster{profile: js}, kitCluster{profile: js}
		for i := 0; i < 24; i++ {
			junk.docs = append(junk.docs, junkDoc(ekit.Pack(fam, payload, day, i), rng))
			same.docs = append(same.docs, ekit.Pack(fam, payload, day, 0))
		}
		out[fam.String()+"/junk"], out[fam.String()+"/identical"] = junk, same
	}
	for _, fam := range phishkit.Families {
		payload := phishkit.Payload(fam, day)
		junk, same := kitCluster{profile: webkit}, kitCluster{profile: webkit}
		for i := 0; i < 24; i++ {
			junk.docs = append(junk.docs, junkDoc(phishkit.Pack(fam, payload, day, i), rng))
			same.docs = append(same.docs, phishkit.Pack(fam, payload, day, 0))
		}
		out[fam.String()+"/junk"], out[fam.String()+"/identical"] = junk, same
	}
	return out
}

func abstractAll(samples [][]jstoken.Token) [][]jstoken.Symbol {
	seqs := make([][]jstoken.Symbol, len(samples))
	for i, s := range samples {
		seqs[i] = jstoken.Abstract(s)
	}
	return seqs
}

// TestFindCommonRunMatchesReference pins the indexed search to the naive
// one — the same length and the same start in every sample — on random
// sequences over tiny alphabets (dense with repeats), on kit clusters,
// and on identical samples.
func TestFindCommonRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 3000; trial++ {
		alpha := 1 + rng.Intn(4)
		seq := func(n int) []jstoken.Symbol {
			s := make([]jstoken.Symbol, n)
			for i := range s {
				s[i] = jstoken.Symbol(1 + rng.Intn(alpha))
			}
			return s
		}
		common := seq(rng.Intn(12))
		seqs := make([][]jstoken.Symbol, 1+rng.Intn(5))
		for i := range seqs {
			// Random context around a shared core, so most trials have
			// common runs and many have repeated ones.
			seqs[i] = append(append(seq(rng.Intn(15)), common...), seq(rng.Intn(15))...)
		}
		checkAgainstReference(t, fmt.Sprintf("trial %d %v", trial, seqs), seqs, 1+rng.Intn(4), 1+rng.Intn(30))
	}
	for name, c := range kitClusters() {
		seqs := abstractAll(c.tokens())
		cfg := DefaultConfig()
		checkAgainstReference(t, name, seqs, cfg.MinTokens, cfg.MaxTokens)
		checkAgainstReference(t, name+" min 1", seqs, 1, cfg.MaxTokens)
	}
	same := [][]jstoken.Symbol{{3, 1, 4, 1, 5, 9, 2, 6}, {3, 1, 4, 1, 5, 9, 2, 6}, {3, 1, 4, 1, 5, 9, 2, 6}}
	checkAgainstReference(t, "identical", same, 1, 200)
}

// TestGenerateMatchesReference: signatures built on the indexed search
// are byte-identical, as JSON, to signatures built on the naive one, and
// GenerateWindows — over the symbol sequences the pipeline caches and
// token windows lexed for just the common run — builds the same bytes as
// Generate over full token streams.
func TestGenerateMatchesReference(t *testing.T) {
	cfg := DefaultConfig()
	for name, c := range kitClusters() {
		samples := c.tokens()
		got, err := Generate(name, samples, cfg)
		win, werr := GenerateWindows(name, c.symbols(), c.window, cfg)
		if werr != err {
			t.Fatalf("%s: GenerateWindows error %v, Generate error %v", name, werr, err)
		}
		gj, _ := json.Marshal(got)
		if wj, _ := json.Marshal(win); !bytes.Equal(gj, wj) {
			t.Fatalf("%s: GenerateWindows\n%s\nGenerate\n%s", name, wj, gj)
		}
		run, ok := referenceFindCommonRun(abstractAll(samples), cfg.MinTokens, cfg.MaxTokens)
		if !ok {
			if err != ErrNoCommonRun {
				t.Fatalf("%s: Generate error %v, reference finds no run", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var gs groupState
		want := Signature{Family: name, Elements: gs.build(samples, run, cfg), Samples: len(samples)}
		if wj, _ := json.Marshal(want); !bytes.Equal(gj, wj) {
			t.Fatalf("%s: signature\n%s\nreference\n%s", name, gj, wj)
		}
	}
}

// TestGenerateWindowsMatchesGenerate pins GenerateWindows to Generate, as
// JSON, on random documents over a tiny alphabet of code and markup
// fragments under both ingest profiles: the common runs land anywhere,
// and windows cut through regex/division ambiguities, scripts and tags.
func TestGenerateWindowsMatchesGenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	webkit, _ := ingest.Lookup("webkit")
	profiles := []ingest.Profile{ingest.Default(), webkit}
	fragments := []string{"a", "b", "/", "(", ")", "=", ";", " ", "1", "'x'", "\n", "<p>", "</p>", "<script>", "</script>", "<?php ", "?>"}
	text := func(n int) string {
		var sb strings.Builder
		for range n {
			sb.WriteString(fragments[rng.Intn(len(fragments))])
		}
		return sb.String()
	}
	signed := 0
	for trial := 0; trial < 2000; trial++ {
		c := kitCluster{profile: profiles[trial%2]}
		common := text(rng.Intn(16))
		for range 1 + rng.Intn(5) {
			c.docs = append(c.docs, text(rng.Intn(12))+common+text(rng.Intn(12)))
		}
		cfg := Config{MinTokens: 1 + rng.Intn(4), MaxTokens: 1 + rng.Intn(30), MaxLiteral: 64}
		got, err := Generate("tiny", c.tokens(), cfg)
		win, werr := GenerateWindows("tiny", c.symbols(), c.window, cfg)
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(win)
		if werr != err || !bytes.Equal(gj, wj) {
			t.Fatalf("trial %d (%s, %+v, %q):\nGenerateWindows %v %s\nGenerate        %v %s", trial, c.profile.ID(), cfg, c.docs, werr, wj, err, gj)
		}
		if err == nil {
			signed++
		}
	}
	// Most trials must build a signature, or the pin compares errors only.
	if signed < 1000 {
		t.Fatalf("%d of 2000 trials built a signature", signed)
	}
}

// TestGenerateWindowsRejectsDrift: a token window whose symbols are not
// the run it was asked for fails generation instead of building a
// signature from the wrong tokens.
func TestGenerateWindowsRejectsDrift(t *testing.T) {
	samples := figure9Samples()
	// Sample 1's window reads its first identifier as a number.
	reclassed := func(i, lo, hi int) []jstoken.Token {
		w := slices.Clone(samples[i][lo:hi])
		if i == 1 {
			w[0] = jstoken.MakeToken(jstoken.ClassNumber, "1", w[0].Pos, jstoken.SymNumber)
		}
		return w
	}
	cfg := Config{MinTokens: 3, MaxTokens: 200}
	if _, err := GenerateWindows("Figure9", abstractAll(samples), reclassed, cfg); !errors.Is(err, ErrWindowDrift) {
		t.Fatalf("reclassed window: error %v, want ErrWindowDrift", err)
	}
	short := func(i, lo, hi int) []jstoken.Token { return samples[i][lo : hi-1] }
	if _, err := GenerateWindows("Figure9", abstractAll(samples), short, cfg); !errors.Is(err, ErrWindowDrift) {
		t.Fatalf("short window: error %v, want ErrWindowDrift", err)
	}
}

// TestFindCommonRunBinarySearchMissesRuns pins a known defect, not a
// wanted behaviour: the binary search assumes that a unique common run of
// length N exists for every N below the longest, but the prefix of a
// unique run can repeat. On these inputs a unique common run exists and
// FindCommonRun still reports none, which leaves such a cluster without
// a signature. Changing the search changes signatures, so it is pinned
// here until it is mended deliberately.
func TestFindCommonRunBinarySearchMissesRuns(t *testing.T) {
	tests := []struct {
		name    string
		seqs    [][]jstoken.Symbol
		longest int
	}{
		{"one repetitive sequence", [][]jstoken.Symbol{{2, 2, 2, 2}}, 4},
		{"three sequences", [][]jstoken.Symbol{
			{2, 1, 1, 2, 1, 2, 2, 1},
			{1, 1, 1, 2, 2, 2, 1, 2, 1, 2, 1},
			{1, 2, 2, 2, 1, 1, 2, 2, 2},
		}, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := longestUniqueCommonRun(tt.seqs, 1, 200); got != tt.longest {
				t.Fatalf("longest unique common run = %d, want %d", got, tt.longest)
			}
			if run, ok := FindCommonRun(tt.seqs, 1, 200); ok {
				t.Fatalf("FindCommonRun = %+v; the binary search used to miss this run", run)
			}
			if _, ok := referenceFindCommonRun(tt.seqs, 1, 200); ok {
				t.Fatal("the reference search found a run")
			}
		})
	}
}

package siggen

import (
	"math/rand"
	"strings"
	"testing"

	"kizzle/internal/ekit"
	"kizzle/internal/jstoken"
)

func lexAll(srcs ...string) [][]jstoken.Token {
	out := make([][]jstoken.Token, len(srcs))
	for i, s := range srcs {
		out[i] = jstoken.Lex(s)
	}
	return out
}

// figure9Samples are the three cluster samples from the paper's Figure 9.
func figure9Samples() [][]jstoken.Token {
	return lexAll(
		`Euur1V = this["l9D"]("ev#333399al");`,
		`jkb0hA = this["uqA"]("ev#ccff00al");`,
		`QB0Xk = this["k3LSC"]("ev#33cc00al");`,
	)
}

// TestGenerateFigure9 reproduces the paper's worked example. The expected
// signature from Figure 9 is
//
//	[A-Za-z0-9]{5,6}=this\[[A-Za-z0-9]{3,5}\]\(.{11}\);
//
// modulo class spelling and the named-group rendering Figure 10 uses.
func TestGenerateFigure9(t *testing.T) {
	sig, err := Generate("Nuclear", figure9Samples(), Config{MinTokens: 5, MaxTokens: 200})
	if err != nil {
		t.Fatal(err)
	}
	if got := sig.TokenLength(); got != 10 {
		t.Fatalf("token length = %d, want 10 (all tokens of the samples)", got)
	}
	kinds := make([]ElementKind, len(sig.Elements))
	for i, e := range sig.Elements {
		kinds[i] = e.Kind
	}
	want := []ElementKind{
		KindClass,   // Euur1V / jkb0hA / QB0Xk
		KindLiteral, // =
		KindLiteral, // this
		KindLiteral, // [
		KindClass,   // l9D / uqA / k3LSC
		KindLiteral, // ]
		KindLiteral, // (
		KindClass,   // ev#...al
		KindLiteral, // )
		KindLiteral, // ;
	}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("element %d kind = %v, want %v", i, kinds[i], want[i])
		}
	}

	// First varying element: identifiers of length 5-6 over alphanumerics.
	e0 := sig.Elements[0]
	if e0.MinLen != 5 || e0.MaxLen != 6 {
		t.Errorf("var0 length range = {%d,%d}, want {5,6}", e0.MinLen, e0.MaxLen)
	}
	if e0.Class != "[0-9a-zA-Z]" {
		t.Errorf("var0 class = %s, want [0-9a-zA-Z]", e0.Class)
	}
	// Second varying element: the property strings, length 3-5.
	e4 := sig.Elements[4]
	if e4.MinLen != 3 || e4.MaxLen != 5 {
		t.Errorf("var1 length range = {%d,%d}, want {3,5}", e4.MinLen, e4.MaxLen)
	}
	// Third varying element: "ev#xxxxxxal" strings, fixed length 11,
	// catch-all class because '#' is outside every narrower template.
	e7 := sig.Elements[7]
	if e7.MinLen != 11 || e7.MaxLen != 11 {
		t.Errorf("payload length range = {%d,%d}, want {11,11}", e7.MinLen, e7.MaxLen)
	}
	if e7.Class != AnyClassName {
		t.Errorf("payload class = %s, want %s", e7.Class, AnyClassName)
	}

	re := sig.Regex()
	for _, needle := range []string{"this", `\[`, `\(`, "{5,6}", "{3,5}", ".{11}"} {
		if !strings.Contains(re, needle) {
			t.Errorf("rendered regex %q missing %q", re, needle)
		}
	}
	// Quotes must have been normalized away.
	if strings.Contains(re, `"`) {
		t.Errorf("rendered regex %q contains quotes; AV normalization must strip them", re)
	}
}

// TestGenerateBackref verifies templatized-variable detection: when every
// sample reuses the same (random) name at two offsets, the second offset
// becomes a back-reference (the var1/var2 pattern of Figure 10a).
func TestGenerateBackref(t *testing.T) {
	samples := lexAll(
		`aQw3["k"]("x"); aQw3["k"]("y1");`,
		`Zp0t["m"]("x"); Zp0t["m"]("y2");`,
		`m4Jq["z"]("x"); m4Jq["z"]("y3");`,
	)
	sig, err := Generate("Nuclear", samples, Config{MinTokens: 5, MaxTokens: 200})
	if err != nil {
		t.Fatal(err)
	}
	var backrefs, classes int
	for _, e := range sig.Elements {
		switch e.Kind {
		case KindBackref:
			backrefs++
		case KindClass:
			classes++
		}
	}
	if backrefs < 2 {
		t.Errorf("backrefs = %d, want >= 2 (identifier and property reuse)", backrefs)
	}
	re := sig.Regex()
	if !strings.Contains(re, `\k<var0>`) {
		t.Errorf("regex %q missing back-reference rendering", re)
	}
}

func TestGenerateRejectsShortRuns(t *testing.T) {
	samples := lexAll(`a=1;`, `b=2;`)
	if _, err := Generate("RIG", samples, Config{MinTokens: 10, MaxTokens: 200}); err != ErrNoCommonRun {
		t.Errorf("err = %v, want ErrNoCommonRun", err)
	}
}

func TestGenerateNoSamples(t *testing.T) {
	if _, err := Generate("RIG", nil, DefaultConfig()); err != ErrNoSamples {
		t.Errorf("err = %v, want ErrNoSamples", err)
	}
}

func TestGenerateSingleSampleIsAllLiterals(t *testing.T) {
	samples := lexAll(`var x = collect("47 y642y6100y6"); x.split("y6");`)
	sig, err := Generate("RIG", samples, Config{MinTokens: 5, MaxTokens: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range sig.Elements {
		if e.Kind != KindLiteral {
			t.Errorf("element %d kind = %v, want literal (single sample can't vary)", i, e.Kind)
		}
	}
}

func TestGenerateCapsAtMaxTokens(t *testing.T) {
	long := strings.Repeat(`f(1);`, 100)
	samples := lexAll(long, long, long)
	sig, err := Generate("Angler", samples, Config{MinTokens: 5, MaxTokens: 200})
	// The repeated body means no window is unique; uniqueness may fail at
	// every length. Accept either outcome but enforce the cap on success.
	if err == nil && sig.TokenLength() > 200 {
		t.Errorf("token length = %d, exceeds cap 200", sig.TokenLength())
	}
}

func TestGenerateUniquePrefixSelected(t *testing.T) {
	// Repeated prefix is non-unique; the distinctive tail must be chosen.
	mk := func(id string) string {
		return strings.Repeat(`x(1);`, 8) + `var ` + id + ` = document.createElement("script"); document.body.appendChild(` + id + `);`
	}
	samples := lexAll(mk("aaa1"), mk("bbb2"), mk("ccc3"))
	sig, err := Generate("RIG", samples, Config{MinTokens: 6, MaxTokens: 200})
	if err != nil {
		t.Fatal(err)
	}
	re := sig.Regex()
	if !strings.Contains(re, "createElement") {
		t.Errorf("signature %q should cover the unique tail", re)
	}
}

func TestFindCommonRunTable(t *testing.T) {
	abstract := func(src string) []jstoken.Symbol { return jstoken.Abstract(jstoken.Lex(src)) }
	tests := []struct {
		name      string
		seqs      [][]jstoken.Symbol
		minTokens int
		wantOK    bool
		wantLen   int
	}{
		{
			"identical sequences",
			[][]jstoken.Symbol{abstract("a=1;b=2;"), abstract("c=3;d=4;")},
			4, true, 8,
		},
		{
			"no overlap",
			[][]jstoken.Symbol{abstract("a=1;"), abstract("function f(){}")},
			3, false, 0,
		},
		{
			"empty input",
			nil, 1, false, 0,
		},
		{
			"one empty sequence",
			[][]jstoken.Symbol{abstract("a=1;"), nil},
			1, false, 0,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			run, ok := FindCommonRun(tt.seqs, tt.minTokens, 200)
			if ok != tt.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tt.wantOK)
			}
			if ok && run.Length != tt.wantLen {
				t.Errorf("length = %d, want %d", run.Length, tt.wantLen)
			}
		})
	}
}

func TestFindCommonRunUniqueness(t *testing.T) {
	// "xyxy" style repetition: window "xy" occurs twice, so only runs that
	// include the distinguishing suffix are unique.
	a := jstoken.Abstract(jstoken.Lex("f(1);f(1);g(2);"))
	run, ok := FindCommonRun([][]jstoken.Symbol{a, a}, 3, 200)
	if !ok {
		t.Fatal("expected a run")
	}
	// The run must be unique: verify by scanning.
	window := a[run.Starts[0] : run.Starts[0]+run.Length]
	_, count := occurrences(a, window)
	if count != 1 {
		t.Errorf("selected run occurs %d times, want 1", count)
	}
}

func TestInferClassTable(t *testing.T) {
	tests := []struct {
		name   string
		values []string
		want   string
	}{
		{"digits", []string{"12", "99"}, "[0-9]"},
		{"lower", []string{"ab", "zz"}, "[a-z]"},
		{"upper", []string{"AB", "ZZ"}, "[A-Z]"},
		{"alpha", []string{"aB", "Zz"}, "[a-zA-Z]"},
		{"lower digits", []string{"a1", "z9"}, "[0-9a-z]"},
		{"alnum", []string{"a1", "Z9"}, "[0-9a-zA-Z]"},
		{"ident chars", []string{"_a", "$9"}, "[0-9a-zA-Z_$]"},
		{"quoted", []string{`"a"`, "'b'"}, `[0-9a-zA-Z"']`},
		{"anything", []string{"a#b", "c!d"}, AnyClassName},
		{"empty strings", []string{"", ""}, "[0-9]"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := inferClass(tt.values); got.Name != tt.want {
				t.Errorf("inferClass(%v) = %s, want %s", tt.values, got.Name, tt.want)
			}
		})
	}
}

func TestClassByName(t *testing.T) {
	for _, cls := range classTemplates {
		got, ok := ClassByName(cls.Name)
		if !ok || got.Name != cls.Name {
			t.Errorf("ClassByName(%s) failed", cls.Name)
		}
	}
	if _, ok := ClassByName("[bogus]"); ok {
		t.Error("unknown class resolved")
	}
}

// Property: generated signatures structurally match every sample they were
// generated from (checked here at the element level; end-to-end matching is
// tested in sigmatch).
func TestGenerateSelfConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 30; iter++ {
		n := 2 + rng.Intn(5)
		srcs := make([]string, n)
		for i := range srcs {
			srcs[i] = randomPackerSample(rng)
		}
		samples := lexAll(srcs...)
		sig, err := Generate("RIG", samples, Config{MinTokens: 5, MaxTokens: 200})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		seqs := make([][]jstoken.Symbol, n)
		for i := range samples {
			seqs[i] = jstoken.Abstract(samples[i])
		}
		run, ok := FindCommonRun(seqs, 5, 200)
		if !ok {
			t.Fatalf("iter %d: run vanished", iter)
		}
		for si, s := range samples {
			for o, e := range sig.Elements {
				v := s[run.Starts[si]+o].Value()
				switch e.Kind {
				case KindLiteral:
					if v != e.Literal {
						t.Fatalf("iter %d sample %d offset %d: literal %q != %q", iter, si, o, v, e.Literal)
					}
				case KindClass:
					if len(v) < e.MinLen || len(v) > e.MaxLen {
						t.Fatalf("iter %d sample %d offset %d: len %d outside {%d,%d}", iter, si, o, len(v), e.MinLen, e.MaxLen)
					}
					cls, ok := ClassByName(e.Class)
					if !ok {
						t.Fatalf("unknown class %s", e.Class)
					}
					for b := 0; b < len(v); b++ {
						if !cls.Match(v[b]) {
							t.Fatalf("iter %d: class %s rejects %q", iter, e.Class, v)
						}
					}
				}
			}
		}
	}
}

// randomPackerSample emits a RIG-like unpacker with randomized identifiers
// and delimiter, structurally constant.
func randomPackerSample(rng *rand.Rand) string {
	ident := func() string {
		const chars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
		n := 4 + rng.Intn(4)
		b := make([]byte, n)
		b[0] = chars[rng.Intn(52)]
		for i := 1; i < n; i++ {
			b[i] = chars[rng.Intn(len(chars))]
		}
		return string(b)
	}
	buf, delim, fn := ident(), ident(), ident()
	return `var ` + buf + ` = ""; var ` + delim + ` = "` + ident() + `"; function ` + fn +
		`(t) { ` + buf + ` += t; } var pieces = ` + buf + `.split(` + delim + `);`
}

func BenchmarkGenerate(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	srcs := make([]string, 20)
	for i := range srcs {
		// Five structurally distinct sections per sample: repetition
		// would defeat the uniqueness constraint by construction.
		srcs[i] = randomPackerSample(rng) +
			" if(check){ " + randomPackerSample(rng) + " } " +
			" try{ " + randomPackerSample(rng) + " }catch(e){} " +
			" function outer(){ " + randomPackerSample(rng) + " } " +
			" for(;;){ " + randomPackerSample(rng) + " break; }"
	}
	samples := lexAll(srcs...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate("RIG", samples, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateWindows times signature generation the way the
// pipeline runs it, on 24 junk-insertion variants of the Sweet Orange and
// Angler kits: "windows" starts from the symbol sequences the cluster
// stage caches and lexes token values for the common run only;
// "whole-stream" lexes every sample's full token stream first and calls
// Generate. Their B/op difference is what whole-stream lexing costs.
func BenchmarkGenerateWindows(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	day := ekit.Date(8, 12)
	for _, fam := range []ekit.Family{ekit.FamilySweetOrange, ekit.FamilyAngler} {
		payload := ekit.Payload(fam, day)
		docs := make([]string, 24)
		seqs := make([][]jstoken.Symbol, len(docs))
		var sc jstoken.Scratch
		for i := range docs {
			docs[i] = junkDoc(ekit.Pack(fam, payload, day, i), rng)
			seqs[i] = sc.AppendSymbols(nil, docs[i])
		}
		window := func(i, lo, hi int) []jstoken.Token { return jstoken.LexDocumentWindow(docs[i], lo, hi) }
		b.Run(fam.String()+"/windows", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := GenerateWindows(fam.String(), seqs, window, DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fam.String()+"/whole-stream", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				samples := make([][]jstoken.Token, len(docs))
				for k, doc := range docs {
					samples[k] = jstoken.LexDocument(doc)
				}
				if _, err := Generate(fam.String(), samples, DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFindCommonRun times the common-run search at the pipeline's
// 24-sample cap on the four exploit kits, one search per kit per op:
// identical samples, where the first candidate of every probe wins, and
// junk-insertion variants, where most candidates fail on some sample.
func BenchmarkFindCommonRun(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	day := ekit.Date(8, 12)
	clusters := map[string][][][]jstoken.Symbol{}
	for _, fam := range ekit.Families {
		payload := ekit.Payload(fam, day)
		var junk, same [][]jstoken.Symbol
		for i := 0; i < 24; i++ {
			junk = append(junk, jstoken.Abstract(jstoken.Lex(junkDoc(ekit.Pack(fam, payload, day, i), rng))))
			same = append(same, jstoken.Abstract(jstoken.Lex(ekit.Pack(fam, payload, day, 0))))
		}
		clusters["junk"] = append(clusters["junk"], junk)
		clusters["identical"] = append(clusters["identical"], same)
	}
	cfg := DefaultConfig()
	for _, name := range []string{"identical", "junk"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, seqs := range clusters[name] {
					if _, ok := FindCommonRun(seqs, cfg.MinTokens, cfg.MaxTokens); !ok {
						b.Fatal("no common run")
					}
				}
			}
		})
	}
}

package jstoken

import (
	"slices"
	"testing"
)

// FuzzJSTokenize pins the three JS lexing surfaces to each other on
// arbitrary documents: the symbol-only lex equals the abstraction of the
// full lex, and the windowed lex returns exactly LexDocument(doc)[lo:hi],
// cut to the token count — with the regex/division decisions of a full
// lex however the window cuts the stream.
func FuzzJSTokenize(f *testing.F) {
	for i, src := range lexCases {
		f.Add(src, i%3, i%3+4)
	}
	f.Add("<script>a = b / c;</script><p>x</p><SCRIPT>r = /re/g;</SCRIPT>", 3, 8)
	f.Add("return /a/ / 2 /b/", -2, 3)
	f.Fuzz(func(t *testing.T, doc string, lo, hi int) {
		tokens := LexDocument(doc)
		var s Scratch
		if syms := s.LexDocumentSymbols(doc); !slices.Equal(syms, Abstract(tokens)) {
			t.Fatalf("LexDocumentSymbols %v, Abstract(LexDocument) %v", syms, Abstract(tokens))
		}
		space := Symbol(SymbolSpace())
		for i, tok := range tokens {
			if tok.Symbol() >= space {
				t.Fatalf("token %d (%q) symbol %d outside alphabet [0, %d)", i, tok.Text, tok.Symbol(), space)
			}
		}
		a := min(max(lo, 0), len(tokens))
		want := tokens[a:min(max(hi, a), len(tokens))]
		if got := LexDocumentWindow(doc, lo, hi); !slices.Equal(got, want) {
			t.Fatalf("window [%d, %d) of %d tokens: got %v, want %v", lo, hi, len(tokens), got, want)
		}
	})
}

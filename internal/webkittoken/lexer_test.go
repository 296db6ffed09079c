package webkittoken

import (
	"slices"
	"strings"
	"testing"

	"kizzle/internal/jstoken"
)

// TestLexAlphabetAndDeterminism pins the lexer's core contracts on a
// representative phishing-kit bundle: every emitted symbol stays inside
// the declared alphabet, repeated lexes agree byte-for-byte, and the
// three lexing surfaces (Lex, LexSymbols, Scratch.AppendSymbols) produce
// the same abstraction sequence.
func TestLexAlphabetAndDeterminism(t *testing.T) {
	doc := `<?php $key = base64_decode("dmFy"); echo $key; ?>
<html><head><title>Secure Login</title></head>
<body onload="init()">
<form action="post.php" method="POST">
<input type="text" name="user"/><input type="password" name="pass">
<script>var go = function(){ if (true) { document.forms[0].submit(); } };</script>
</form></body></html>`

	tokens := Lex(doc)
	if len(tokens) == 0 {
		t.Fatal("lexer produced no tokens")
	}
	space := jstoken.Symbol(SymbolSpace())
	for i, tok := range tokens {
		if s := tok.Symbol(); s >= space {
			t.Fatalf("token %d (%q) symbol %d outside alphabet [0, %d)", i, tok.Text, s, space)
		}
	}

	fromTokens := jstoken.Abstract(tokens)
	direct := LexSymbols(doc)
	var scratch Scratch
	scratched := scratch.AppendSymbols(nil, doc)
	if len(direct) != len(fromTokens) || len(scratched) != len(fromTokens) {
		t.Fatalf("surface lengths diverge: tokens=%d direct=%d scratch=%d",
			len(fromTokens), len(direct), len(scratched))
	}
	for i := range fromTokens {
		if direct[i] != fromTokens[i] || scratched[i] != fromTokens[i] {
			t.Fatalf("symbol %d diverges: tokens=%d direct=%d scratch=%d",
				i, fromTokens[i], direct[i], scratched[i])
		}
	}
	again := LexSymbols(doc)
	for i := range direct {
		if again[i] != direct[i] {
			t.Fatalf("re-lex diverged at symbol %d", i)
		}
	}

	// The bundle exercises all three languages: markup tag names, PHP
	// keywords, and JS keywords must each surface as keyword tokens.
	wantKeywords := []string{"html", "input", "echo", "var", "function", "if"}
	seenKw, seenPunct := make(map[string]bool), make(map[string]bool)
	for _, tok := range tokens {
		switch tok.Class {
		case jstoken.ClassKeyword:
			seenKw[tok.Text] = true
		case jstoken.ClassPunct:
			seenPunct[tok.Text] = true
		}
	}
	for _, kw := range wantKeywords {
		if !seenKw[kw] {
			t.Errorf("keyword %q not lexed as ClassKeyword", kw)
		}
	}
	for _, p := range []string{"<?php", "?>", "</", "{"} {
		if !seenPunct[p] {
			t.Errorf("punctuator %q not lexed as ClassPunct", p)
		}
	}
}

// TestUnpack pins the PHP base64 unpacker: single and nested layers
// decode deterministically (always the first occurrence), the nesting
// bound holds, and unpacked-free documents return ErrNotPacked.
func TestUnpack(t *testing.T) {
	// base64("var x = 1;") = dmFyIHggPSAxOw==
	got, err := Unpack(`<?php eval(base64_decode("dmFyIHggPSAxOw==")); ?>`)
	if err != nil || got != "var x = 1;" {
		t.Fatalf("single layer: got %q, err %v", got, err)
	}
	// Nested: base64 of the single-layer document above.
	inner := `eval(base64_decode('dmFyIHggPSAxOw=='));`
	outer := `<?php eval(base64_decode("` + b64(inner) + `")); ?>`
	got, err = Unpack(outer)
	if err != nil || got != "var x = 1;" {
		t.Fatalf("nested layers: got %q, err %v", got, err)
	}
	// First occurrence wins when two calls are present.
	got, err = Unpack(`base64_decode("dmFyIHggPSAxOw==") base64_decode("emVybw==")`)
	if err != nil || got != "var x = 1;" {
		t.Fatalf("first occurrence: got %q, err %v", got, err)
	}
	for _, doc := range []string{
		"",
		"<html><body>plain page</body></html>",
		`base64_decode($var)`,           // non-literal argument
		`base64_decode("!!!notbase64")`, // undecodable literal
		`base64_decode("dmFyIHggPSAxOw`, // unterminated literal
	} {
		if _, err := Unpack(doc); err == nil {
			t.Errorf("Unpack(%.40q) found packing in an unpacked document", doc)
		}
	}
}

func b64(s string) string {
	const std = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	var sb strings.Builder
	b := []byte(s)
	for len(b) >= 3 {
		n := int(b[0])<<16 | int(b[1])<<8 | int(b[2])
		sb.WriteByte(std[n>>18])
		sb.WriteByte(std[n>>12&63])
		sb.WriteByte(std[n>>6&63])
		sb.WriteByte(std[n&63])
		b = b[3:]
	}
	switch len(b) {
	case 1:
		n := int(b[0]) << 16
		sb.WriteByte(std[n>>18])
		sb.WriteByte(std[n>>12&63])
		sb.WriteString("==")
	case 2:
		n := int(b[0])<<16 | int(b[1])<<8
		sb.WriteByte(std[n>>18])
		sb.WriteByte(std[n>>12&63])
		sb.WriteByte(std[n>>6&63])
		sb.WriteByte('=')
	}
	return sb.String()
}

// FuzzWebkitTokenize fuzzes the full webkit ingest surface — the
// HTML/PHP/JS lexer and the base64 unpacker — with attacker-shaped
// documents. Phishing pages are the most hostile bytes the pipeline
// sees; neither stage may panic, every emitted symbol must stay inside
// the declared alphabet, and lexing must be deterministic. The windowed
// lex must return exactly Lex(doc)[lo:hi], cut to the token count.
func FuzzWebkitTokenize(f *testing.F) {
	f.Add("<html><body>hi</body></html>", 1, 4)
	f.Add("<?php echo base64_decode(\"dmFy\"); ?>", 2, 5)
	f.Add("<script>var x = '</script><script>'</script>", 4, 12)
	f.Add("<div class=\"a\" onclick='f(", 0, 3)
	f.Add("<?= $x ?><?php if ($a): ?><b><?php endif", 5, 100)
	f.Add("<!-- <script> --><input type=text value=\"\x00\xff\">", -1, 1)
	f.Add("base64_decode(\""+strings.Repeat("dmFy", 500)+"\")", 1, 2)
	f.Add("<a href=\"javascript:eval('\\u0041')\">»</a>", 3, 3)
	f.Fuzz(func(t *testing.T, doc string, lo, hi int) {
		syms := LexSymbols(doc)
		space := jstoken.Symbol(SymbolSpace())
		for i, s := range syms {
			if s >= space {
				t.Fatalf("symbol %d = %d outside alphabet [0, %d)", i, s, space)
			}
		}
		tokens := Lex(doc)
		fromTokens := jstoken.Abstract(tokens)
		if len(fromTokens) != len(syms) {
			t.Fatalf("Lex emits %d symbols, LexSymbols %d", len(fromTokens), len(syms))
		}
		for i := range syms {
			if fromTokens[i] != syms[i] {
				t.Fatalf("symbol %d: Lex=%d LexSymbols=%d", i, fromTokens[i], syms[i])
			}
		}
		a := min(max(lo, 0), len(tokens))
		want := tokens[a:min(max(hi, a), len(tokens))]
		if got := LexDocumentWindow(doc, lo, hi); !slices.Equal(got, want) {
			t.Fatalf("window [%d, %d) of %d tokens: got %v, want %v", lo, hi, len(tokens), got, want)
		}
		if payload, err := Unpack(doc); err == nil {
			// Whatever the unpacker recovered must itself lex cleanly.
			for i, s := range LexSymbols(payload) {
				if s >= space {
					t.Fatalf("unpacked symbol %d = %d outside alphabet", i, s)
				}
			}
		}
	})
}

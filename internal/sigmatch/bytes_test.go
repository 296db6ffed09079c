package sigmatch

import (
	"fmt"
	"math/rand"
	"testing"

	"kizzle/internal/jstoken"
	"kizzle/internal/siggen"
	"kizzle/internal/zerocopy"
)

// TestScanBytesMatchesScan pins the contract the byte entry points of
// kizzle.Matcher rely on: tokens lexed from a zero-copy string view of a
// byte slice scan exactly like the string path — same documents, same
// matches, same detection verdicts — including documents the scanner was
// not trained on and the empty document.
func TestScanBytesMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sigs []siggen.Signature
	var docs []string
	for k := 0; k < 6; k++ {
		srcs := make([]string, 3)
		for i := range srcs {
			id := randIdent(rng)
			srcs[i] = `var ` + id + ` = window["` + randIdent(rng) + `"](` + fmt.Sprint(10+rng.Intn(90)) + `); ` +
				id + `.go("` + randIdent(rng) + `");`
		}
		samples := make([][]jstoken.Token, len(srcs))
		for i, s := range srcs {
			samples[i] = jstoken.Lex(s)
		}
		sig, err := siggen.Generate(fmt.Sprintf("F%d", k), samples, siggen.Config{MinTokens: 5, MaxTokens: 200})
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, sig)
		docs = append(docs, srcs...)
	}
	docs = append(docs,
		"",
		"var benign = 1;",
		`<html><script>var q = window["x"](42); q.go("y");</script></html>`,
	)
	s, err := NewScanner(sigs)
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	for i, doc := range docs {
		want := s.Scan(doc)
		view := zerocopy.String([]byte(doc))
		got := s.ScanTokens(jstoken.LexDocument(view))
		if len(got) != len(want) {
			t.Fatalf("doc %d: byte view %d matches, Scan %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("doc %d match %d: bytes %+v vs string %+v", i, j, got[j], want[j])
			}
		}
		if s.DetectsTokens(jstoken.LexDocument(view)) != s.Detects(doc) {
			t.Fatalf("doc %d: DetectsTokens on the byte view disagrees with Detects", i)
		}
		if len(want) > 0 {
			detected++
		}
	}
	if detected < 6 {
		t.Fatalf("only %d documents matched; the differential needs the trained families to fire", detected)
	}
}

package siggen

import (
	"encoding/json"
	"testing"
)

// FuzzSignatureJSON pins Signature.AppendJSON to json.Marshal for
// arbitrary family, literal and class strings and integer fields. The
// published set digest hashes AppendJSON's bytes while consumers and
// older publishers produced json.Marshal's, so any divergence would move
// every attested digest.
func FuzzSignatureJSON(f *testing.F) {
	// shape 0 leaves Elements nil and 0x20 empty; 0xff gives three
	// elements with every field set, so the omitempty integers are
	// tested at both signs.
	f.Add("", "", "", 0, 0, 0, 0, 0, uint8(0))
	f.Add("", "", "", 0, 0, 0, 0, 0, uint8(0x20))
	f.Add("Angler", "eval", "", 1, 0, 0, -1, 3, uint8(0x05))
	f.Add("webkit/<kit>&co", "a<b>&c", "[A-Za-z0-9]", 2, 4, 12, 0, 7, uint8(0xff))
	f.Add("x<y", "p>q", "m&n", 2, -3, -1, 0, 0, uint8(0xff))
	f.Add("nul\x00fam", "\x00\x01\x1f\x7f", "ctl\x08\x0c\n\r\t", 3, -5, 1<<40, 2, -1, uint8(0xff))
	f.Add("\xff\xfe", "bad\xc3utf8", "\xed\xa0\x80", 1, 0, 0, -1, 0, uint8(0x6e))
	f.Add("line\u2028sep", "para\u2029sep", `quote"back\slash`, 0, 1, 1, 1, 1, uint8(0xff))
	f.Fuzz(func(t *testing.T, family, literal, class string, kind, minLen, maxLen, group, samples int, shape uint8) {
		sig := Signature{Family: family, Samples: samples}
		// shape picks nil vs empty elements and how many fields each of
		// up to three elements carries, so omitempty is exercised both ways.
		if shape != 0 {
			sig.Elements = []Element{}
		}
		for i := 0; i < int(shape%4); i++ {
			e := Element{Kind: ElementKind(kind + i), Group: group - i}
			if shape&(4<<i) != 0 {
				e.Literal = literal
			}
			if shape&(32<<i) != 0 {
				e.Class, e.MinLen, e.MaxLen = class, minLen, maxLen
			}
			sig.Elements = append(sig.Elements, e)
		}
		want, err := json.Marshal(sig)
		if err != nil {
			t.Fatal(err)
		}
		if got := sig.AppendJSON([]byte("prefix")); string(got) != "prefix"+string(want) {
			t.Fatalf("AppendJSON diverges from json.Marshal:\n got %s\nwant %s", got[len("prefix"):], want)
		}
	})
}

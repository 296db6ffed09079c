package canonjson

import (
	"encoding/json"
	"testing"
)

func FuzzAppendString(f *testing.F) {
	for _, s := range []string{"", "eval", "<", ">", "&", "a<b>&c", "\x00\x1f\x7f", "\xff\xfe", "  ", `"\`, "\b\f\n\r\t", "ünï"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal = %s", s, got[1:], want)
		}
	})
}

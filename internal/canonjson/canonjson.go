package canonjson

import "encoding/json"

// AppendString appends s as a JSON string exactly as json.Marshal(s)
// writes it: HTML-escaped <, > and &, \u00XX control escapes, \ufffd for
// invalid UTF-8 and escaped U+2028/U+2029. A string of plain printable
// ASCII needing none of that is copied between quotes; any other string
// goes through json.Marshal itself.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s) // a string always encodes
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

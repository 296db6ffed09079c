// Package canonjson appends JSON fragments byte-for-byte as
// encoding/json's Marshal writes them, so hand-built encodings (the
// published signature sets, whose SHA-256 is the attested set digest)
// can be assembled by concatenation without changing one output byte.
package canonjson

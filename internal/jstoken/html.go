package jstoken

import "strings"

// foldIndex returns the first index >= from where tag occurs in doc,
// comparing ASCII case-insensitively, or -1. tag must be lowercase and
// start with a byte that has no case ('<' here), so the lead byte can be
// found with the vectorized IndexByte. This replaces a strings.ToLower
// copy of the whole document: the scanner lexes every incoming response,
// so extraction must not allocate proportional to the document.
func foldIndex(doc string, from int, tag string) int {
	if len(tag) == 0 {
		return from
	}
	for i := from; i+len(tag) <= len(doc); {
		off := strings.IndexByte(doc[i:len(doc)-len(tag)+1], tag[0])
		if off < 0 {
			return -1
		}
		i += off
		if foldEqual(doc[i:i+len(tag)], tag) {
			return i
		}
		i++
	}
	return -1
}

func toLowerByte(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// foldEqual reports whether s equals lowercase tag under ASCII folding.
func foldEqual(s, tag string) bool {
	for i := 0; i < len(tag); i++ {
		if toLowerByte(s[i]) != tag[i] {
			return false
		}
	}
	return true
}

// ExtractScripts pulls the contents of all inline <script> elements out of
// an HTML document. A sample in the paper "consists of a complete HTML
// document, including all inline script elements"; Kizzle tokenizes the
// concatenation of those scripts. Inputs that contain no <script> tag are
// treated as raw JavaScript and returned unchanged.
func ExtractScripts(doc string) string {
	first := foldIndex(doc, 0, "<script")
	if first < 0 {
		return doc
	}
	var sb strings.Builder
	i := first
	for {
		open := foldIndex(doc, i, "<script")
		if open < 0 {
			break
		}
		tagEnd := strings.IndexByte(doc[open:], '>')
		if tagEnd < 0 {
			break
		}
		bodyStart := open + tagEnd + 1
		closeIdx := foldIndex(doc, bodyStart, "</script")
		if closeIdx < 0 {
			sb.WriteString(doc[bodyStart:])
			sb.WriteByte('\n')
			break
		}
		sb.WriteString(doc[bodyStart:closeIdx])
		sb.WriteByte('\n')
		closeEnd := strings.IndexByte(doc[closeIdx:], '>')
		if closeEnd < 0 {
			break
		}
		i = closeIdx + closeEnd + 1
	}
	return sb.String()
}

// LexDocument extracts inline scripts from an HTML document (or accepts raw
// JavaScript) and tokenizes the result.
func LexDocument(doc string) []Token {
	return Lex(ExtractScripts(doc))
}

// LexDocumentWindow is LexWindow over the document's extracted scripts:
// tokens lo through hi-1 of LexDocument(doc).
func LexDocumentWindow(doc string, lo, hi int) []Token {
	return LexWindow(ExtractScripts(doc), lo, hi)
}

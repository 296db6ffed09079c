package webkittoken

import (
	"strings"

	"kizzle/internal/jstoken"
)

// Lex tokenizes a full HTML/PHP/JS bundle into tokens carrying their
// webkit abstraction symbols. HTML character references are decoded
// first (see DecodeEntities), so entity-encoded markup cannot hide from
// the alphabet; token positions refer to the decoded document.
func Lex(src string) []jstoken.Token {
	lx := lexer{src: DecodeEntities(src)}
	lx.run()
	return lx.tokens
}

// LexDocument is Lex: for webkit bundles the whole document is the
// source — markup structure is part of the alphabet, so nothing is
// extracted or discarded first. The name mirrors jstoken.LexDocument so
// profiles expose a uniform surface.
func LexDocument(doc string) []jstoken.Token { return Lex(doc) }

// LexDocumentWindow returns tokens lo through hi-1 of LexDocument(doc)
// without storing the others: tokens before lo are lexed and counted,
// and lexing stops once token hi-1 is out. A negative lo counts as 0; a
// window past the last token is cut at it.
func LexDocumentWindow(doc string, lo, hi int) []jstoken.Token {
	lo = max(lo, 0)
	if hi <= lo {
		return nil
	}
	lx := lexer{src: DecodeEntities(doc), lo: lo, hi: hi}
	lx.run()
	return lx.tokens
}

// LexSymbols tokenizes straight to abstraction symbols without
// materializing tokens. Character references decode first, exactly as
// in Lex.
func LexSymbols(src string) []jstoken.Symbol {
	lx := lexer{src: DecodeEntities(src), symsOnly: true}
	lx.run()
	return lx.syms
}

// codeLang selects the code-mode dialect, which only differs in its
// terminator: PHP blocks end at ?>, script blocks end at </script.
type codeLang int

const (
	langJS codeLang = iota
	langPHP
)

type lexer struct {
	src      string
	pos      int
	tokens   []jstoken.Token
	syms     []jstoken.Symbol
	symsOnly bool
	// n counts the tokens emitted so far. Only tokens with index in
	// [lo, hi) are stored; hi 0 means no upper bound (a full lex).
	n, lo, hi int
}

// emitRange records one token spanning src[start:end]. Every emit (and
// every skip) advances pos, so the outer loops always terminate.
func (lx *lexer) emitRange(class jstoken.Class, start, end int, sym jstoken.Symbol) {
	if lx.symsOnly {
		lx.syms = append(lx.syms, sym)
		return
	}
	if lx.n >= lx.lo {
		lx.tokens = append(lx.tokens, jstoken.MakeToken(class, lx.src[start:end], start, sym))
	}
	if lx.n++; lx.n == lx.hi {
		// The window is full. Every scan loop is bounded by the input
		// length, so moving to its end unwinds them all without another
		// emit.
		lx.pos = len(lx.src)
	}
}

func (lx *lexer) emitPunct(start int, p string) {
	lx.emitRange(jstoken.ClassPunct, start, start+len(p), punctSymbol(punctIndex[p]))
}

func (lx *lexer) run() {
	for lx.pos < len(lx.src) {
		lx.markup()
	}
}

// markup lexes one markup-mode item: a comment, a processing/script
// entry into code mode, a tag, or a text run.
func (lx *lexer) markup() {
	src, pos := lx.src, lx.pos
	if src[pos] != '<' {
		lx.textRun()
		return
	}
	switch {
	case strings.HasPrefix(src[pos:], "<!--"):
		if end := strings.Index(src[pos+4:], "-->"); end >= 0 {
			lx.pos = pos + 4 + end + 3
		} else {
			lx.pos = len(src)
		}
	case strings.HasPrefix(src[pos:], "<?php"):
		lx.pos = pos + 5
		lx.emitPunct(pos, "<?php")
		lx.code(langPHP)
	case strings.HasPrefix(src[pos:], "<?="):
		lx.pos = pos + 3
		lx.emitPunct(pos, "<?=")
		lx.code(langPHP)
	case strings.HasPrefix(src[pos:], "</"):
		lx.closeTag()
	case pos+1 < len(src) && (isNameStart(src[pos+1]) || src[pos+1] == '!'):
		lx.openTag()
	default:
		// A stray '<' (including "<?" without php/=) folds into text.
		lx.textRun()
	}
}

// textRun collapses character data up to the next '<' into one Text
// token, trimming surrounding whitespace; whitespace-only runs emit
// nothing. The first byte is always consumed, so a stray '<' cannot
// stall the lexer.
func (lx *lexer) textRun() {
	src := lx.src
	start := lx.pos
	end := start + 1
	for end < len(src) && src[end] != '<' {
		end++
	}
	lx.pos = end
	s, e := start, end
	for s < e && isSpace(src[s]) {
		s++
	}
	for e > s && isSpace(src[e-1]) {
		e--
	}
	if s < e {
		lx.emitRange(jstoken.ClassText, s, e, SymText)
	}
}

func (lx *lexer) openTag() {
	src := lx.src
	start := lx.pos
	lx.pos++
	lx.emitPunct(start, "<")
	if lx.pos < len(src) && src[lx.pos] == '!' {
		p := lx.pos
		lx.pos++
		lx.emitPunct(p, "!")
	}
	name := lx.tagName()
	if lx.attrs() && strings.EqualFold(name, "script") {
		lx.code(langJS)
	}
}

func (lx *lexer) closeTag() {
	start := lx.pos
	lx.pos += 2
	lx.emitPunct(start, "</")
	lx.tagName()
	lx.attrs()
}

// attrs lexes attribute names, '=', and values until the tag closes;
// it reports whether the tag ended with a plain '>' (the case where a
// <script> tag has a body to switch modes for).
func (lx *lexer) attrs() (openEnded bool) {
	src := lx.src
	for lx.pos < len(src) {
		c := src[lx.pos]
		switch {
		case isSpace(c):
			lx.pos++
		case c == '/' && strings.HasPrefix(src[lx.pos:], "/>"):
			p := lx.pos
			lx.pos += 2
			lx.emitPunct(p, "/>")
			return false
		case c == '>':
			p := lx.pos
			lx.pos++
			lx.emitPunct(p, ">")
			return true
		case c == '=':
			p := lx.pos
			lx.pos++
			lx.emitPunct(p, "=")
		case c == '"' || c == '\'':
			lx.markupString(c)
		case isNameStart(c):
			lx.name()
		case c >= '0' && c <= '9':
			lx.number()
		default:
			lx.pos++ // junk byte inside a tag: drop it
		}
	}
	return false
}

// tagName lexes the name right after '<', '</' or '<!', if present.
func (lx *lexer) tagName() string {
	if lx.pos >= len(lx.src) || !isNameStart(lx.src[lx.pos]) {
		return ""
	}
	start := lx.pos
	lx.name()
	return lx.src[start:lx.pos]
}

// name lexes a markup name (tag or attribute): letters, digits, '-',
// '_', ':'. Names on the keyword list keep their symbol identity.
func (lx *lexer) name() {
	src := lx.src
	start := lx.pos
	lx.pos++
	for lx.pos < len(src) && isNamePart(src[lx.pos]) {
		lx.pos++
	}
	word := src[start:lx.pos]
	if i, ok := keywordIndex[word]; ok {
		lx.emitRange(jstoken.ClassKeyword, start, lx.pos, keywordSymbol(i))
		return
	}
	lx.emitRange(jstoken.ClassIdentifier, start, lx.pos, jstoken.SymIdentifier)
}

// markupString lexes a quoted attribute value: no escapes, newlines
// allowed, unterminated runs to end of input.
func (lx *lexer) markupString(q byte) {
	src := lx.src
	start := lx.pos
	lx.pos++
	if i := strings.IndexByte(src[lx.pos:], q); i >= 0 {
		lx.pos += i + 1
	} else {
		lx.pos = len(src)
	}
	lx.emitRange(jstoken.ClassString, start, lx.pos, jstoken.SymString)
}

// code lexes PHP/JS-style code until the dialect's terminator. A '/' is
// always a comment opener or punctuator, never a regex literal: phishing
// kits rarely need them and skipping regex detection removes the one
// context-dependent (and fuzz-hostile) piece of JS lexing.
func (lx *lexer) code(lang codeLang) {
	src := lx.src
	for lx.pos < len(src) {
		// Terminators win over operator lexing.
		if lang == langPHP && strings.HasPrefix(src[lx.pos:], "?>") {
			p := lx.pos
			lx.pos += 2
			lx.emitPunct(p, "?>")
			return
		}
		if lang == langJS && hasFoldPrefix(src[lx.pos:], "</script") {
			return // markup mode re-lexes the closing tag
		}
		c := src[lx.pos]
		switch {
		case isSpace(c):
			lx.pos++
		case c == '#':
			lx.lineComment()
		case c == '/':
			if lx.pos+1 < len(src) && src[lx.pos+1] == '/' {
				lx.lineComment()
			} else if lx.pos+1 < len(src) && src[lx.pos+1] == '*' {
				lx.blockComment()
			} else {
				lx.punct()
			}
		case c == '"' || c == '\'' || c == '`':
			lx.codeString(c)
		case c >= '0' && c <= '9':
			lx.number()
		case c == '.' && lx.pos+1 < len(src) && src[lx.pos+1] >= '0' && src[lx.pos+1] <= '9':
			lx.number()
		case isIdentStart(c):
			lx.ident()
		default:
			lx.punct()
		}
	}
}

func (lx *lexer) lineComment() {
	src := lx.src
	lx.pos++
	for lx.pos < len(src) && src[lx.pos] != '\n' {
		lx.pos++
	}
}

func (lx *lexer) blockComment() {
	src := lx.src
	if end := strings.Index(src[lx.pos+2:], "*/"); end >= 0 {
		lx.pos += 2 + end + 2
	} else {
		lx.pos = len(src)
	}
}

// codeString lexes a quoted code literal with backslash escapes. A line
// break ends a non-backtick string (unterminated), matching the JS
// lexer's recovery.
func (lx *lexer) codeString(q byte) {
	src := lx.src
	start := lx.pos
	lx.pos++
	for lx.pos < len(src) {
		c := src[lx.pos]
		if c == '\\' && lx.pos+1 < len(src) {
			lx.pos += 2
			continue
		}
		if c == q {
			lx.pos++
			break
		}
		if q != '`' && (c == '\n' || c == '\r') {
			break
		}
		lx.pos++
	}
	lx.emitRange(jstoken.ClassString, start, lx.pos, jstoken.SymString)
}

func (lx *lexer) number() {
	src := lx.src
	start := lx.pos
	if strings.HasPrefix(src[start:], "0x") || strings.HasPrefix(src[start:], "0X") {
		lx.pos = start + 2
		for lx.pos < len(src) && isHex(src[lx.pos]) {
			lx.pos++
		}
	} else {
		for lx.pos < len(src) && isDigit(src[lx.pos]) {
			lx.pos++
		}
		if lx.pos < len(src) && src[lx.pos] == '.' {
			lx.pos++
			for lx.pos < len(src) && isDigit(src[lx.pos]) {
				lx.pos++
			}
		}
		if lx.pos < len(src) && (src[lx.pos] == 'e' || src[lx.pos] == 'E') {
			p := lx.pos + 1
			if p < len(src) && (src[p] == '+' || src[p] == '-') {
				p++
			}
			if p < len(src) && isDigit(src[p]) {
				lx.pos = p
				for lx.pos < len(src) && isDigit(src[lx.pos]) {
					lx.pos++
				}
			}
		}
	}
	lx.emitRange(jstoken.ClassNumber, start, lx.pos, jstoken.SymNumber)
}

// ident lexes a code identifier ('$'-capable, so PHP variables work).
func (lx *lexer) ident() {
	src := lx.src
	start := lx.pos
	lx.pos++
	for lx.pos < len(src) && isIdentPart(src[lx.pos]) {
		lx.pos++
	}
	word := src[start:lx.pos]
	if i, ok := keywordIndex[word]; ok {
		lx.emitRange(jstoken.ClassKeyword, start, lx.pos, keywordSymbol(i))
		return
	}
	lx.emitRange(jstoken.ClassIdentifier, start, lx.pos, jstoken.SymIdentifier)
}

// punctByFirst indexes puncts by first byte; within a bucket the global
// longest-first order is preserved, so the first prefix hit is maximal.
var punctByFirst = func() [256][]int16 {
	var t [256][]int16
	for i, p := range puncts {
		t[p[0]] = append(t[p[0]], int16(i))
	}
	return t
}()

func (lx *lexer) punct() {
	src := lx.src
	for _, pi := range punctByFirst[src[lx.pos]] {
		p := puncts[pi]
		if strings.HasPrefix(src[lx.pos:], p) {
			start := lx.pos
			lx.pos += len(p)
			lx.emitRange(jstoken.ClassPunct, start, lx.pos, punctSymbol(int(pi)))
			return
		}
	}
	lx.pos++ // byte with no punctuator: drop it
}

func hasFoldPrefix(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	return strings.EqualFold(s[:len(prefix)], prefix)
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func isAlpha(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isNameStart(c byte) bool { return isAlpha(c) }

func isNamePart(c byte) bool {
	return isAlpha(c) || isDigit(c) || c == '-' || c == '_' || c == ':'
}

func isIdentStart(c byte) bool {
	return isAlpha(c) || c == '_' || c == '$' || c >= 0x80
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

package jstoken

import "strings"

// Lex tokenizes JavaScript source. The lexer is deliberately forgiving:
// grayware streams contain truncated and syntactically broken scripts, and
// Kizzle must still produce a stable token stream for them. Unterminated
// strings and comments consume to end of input; bytes that fit no token are
// skipped.
func Lex(src string) []Token {
	// Packed exploit-kit payloads run around 3 bytes per token; sizing for
	// that keeps the append growth to at most one reallocation on the
	// dense inputs the scanner sees in production.
	l := lexer{src: src, tokens: make([]Token, 0, len(src)/3+8)}
	l.run()
	return l.tokens
}

// LexWindow returns tokens lo through hi-1 of Lex(src) — the tokens Lex
// would put at those indices, positions and texts included — without
// storing the others: tokens before lo are lexed and counted, and lexing
// stops once token hi-1 is out. The regex/division state advances over
// the skipped prefix exactly as in a full lex. A negative lo counts as 0;
// a window past the last token is cut at it.
func LexWindow(src string, lo, hi int) []Token {
	lo = max(lo, 0)
	if hi <= lo {
		return nil
	}
	l := lexer{src: src, tokens: make([]Token, 0, min(hi-lo, len(src)/3+8)), lo: lo, hi: hi}
	l.run()
	return l.tokens
}

type lexer struct {
	src    string
	pos    int
	tokens []Token
	// syms receives the abstraction symbol stream when symsOnly is set; in
	// that mode no Token values are materialized at all — the dominant
	// memory traffic of batch tokenization (32 bytes per token) vanishes
	// for callers that only cluster on the abstract sequence.
	syms     []Symbol
	symsOnly bool
	// prevClass/prevSym track the last emitted token for the regex /
	// division disambiguation, replacing the lookback into the token
	// slice so the symbol-only mode shares the exact same decision.
	prevClass Class
	prevSym   Symbol
	// n counts the tokens emitted so far. Only tokens with index in
	// [lo, hi) are stored; hi 0 means no upper bound (a full lex).
	n, lo, hi int
}

// Lead-byte kinds for the dispatch table: the per-byte cascade of range
// and equality tests is the hottest comparison chain in the scanner, so
// the first byte of every token resolves through one table load and a
// dense switch the compiler lowers to a jump table.
const (
	leadOther byte = iota
	leadSpace
	leadSlash
	leadQuote
	leadDigit
	leadDot
	leadIdent
)

var leadKind = func() (t [256]byte) {
	for _, c := range []byte{' ', '\t', '\n', '\r', '\f', '\v'} {
		t[c] = leadSpace
	}
	t['/'] = leadSlash
	t['"'], t['\''], t['`'] = leadQuote, leadQuote, leadQuote
	for c := byte('0'); c <= '9'; c++ {
		t[c] = leadDigit
	}
	t['.'] = leadDot
	for c := 0; c < 256; c++ {
		if isIdentStart(byte(c)) {
			t[c] = leadIdent
		}
	}
	return t
}()

func (l *lexer) run() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch leadKind[c] {
		case leadSpace:
			l.pos++
		case leadIdent:
			l.lexIdentifier()
		case leadQuote:
			l.lexString(c)
		case leadDigit:
			l.lexNumber()
		case leadDot:
			if isDigit(l.peek(1)) {
				l.lexNumber()
			} else if !l.lexPunct() {
				l.pos++
			}
		case leadSlash:
			switch l.peek(1) {
			case '/':
				l.skipLineComment()
			case '*':
				l.skipBlockComment()
			default:
				if l.regexAllowed() {
					l.lexRegex()
				} else if !l.lexPunct() {
					l.pos++
				}
			}
		default:
			if !l.lexPunct() {
				l.pos++ // unknown byte: skip
			}
		}
	}
}

func (l *lexer) peek(off int) byte {
	if l.pos+off < len(l.src) {
		return l.src[l.pos+off]
	}
	return 0
}

func (l *lexer) emit(class Class, start int, sym Symbol) {
	l.prevClass, l.prevSym = class, sym
	if l.symsOnly {
		l.syms = append(l.syms, sym)
		return
	}
	if l.n >= l.lo {
		l.tokens = append(l.tokens, Token{Class: class, Text: l.src[start:l.pos], Pos: start, sym: sym})
	}
	if l.n++; l.n == l.hi {
		// The window is full. Every emit is the last step of its scan,
		// so moving to the end of input ends the run loop.
		l.pos = len(l.src)
	}
}

func (l *lexer) skipLineComment() {
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		l.pos++
	}
}

func (l *lexer) skipBlockComment() {
	l.pos += 2
	for l.pos < len(l.src) {
		if l.src[l.pos] == '*' && l.peek(1) == '/' {
			l.pos += 2
			return
		}
		l.pos++
	}
}

// lexString scans a string literal by jumping between interesting bytes
// with the vectorized IndexByte instead of walking byte by byte: packed
// exploit-kit payloads are carried in string literals hundreds of
// kilobytes long, which makes string scanning the single largest byte
// consumer in the lexer.
func (l *lexer) lexString(quote byte) {
	start := l.pos
	l.pos++
	for l.pos < len(l.src) {
		rest := l.src[l.pos:]
		q := strings.IndexByte(rest, quote)
		if q < 0 {
			q = len(rest) // unterminated: consumes to end of input
		}
		// Anything before the closing quote that changes the scan — an
		// escape, or a line break for single-line strings?
		seg := rest[:q]
		b := strings.IndexByte(seg, '\\')
		if quote != '`' {
			// Plain strings do not span lines; unterminated ones end there.
			if n := strings.IndexByte(seg, '\n'); n >= 0 && (b < 0 || n < b) {
				if r := strings.IndexByte(seg[:n], '\r'); r >= 0 && (b < 0 || r < b) {
					n = r
				}
				l.pos += n
				l.emit(ClassString, start, SymString)
				return
			}
			if r := strings.IndexByte(seg, '\r'); r >= 0 && (b < 0 || r < b) {
				l.pos += r
				l.emit(ClassString, start, SymString)
				return
			}
		}
		if b >= 0 {
			// Skip the escape pair and rescan from there. A backslash as
			// the last input byte consumes just itself, matching the
			// byte-walk semantics.
			if l.pos+b+1 < len(l.src) {
				l.pos += b + 2
			} else {
				l.pos += b + 1
			}
			continue
		}
		if q < len(rest) {
			l.pos += q + 1 // include closing quote
		} else {
			l.pos = len(l.src)
		}
		l.emit(ClassString, start, SymString)
		return
	}
	l.emit(ClassString, start, SymString)
}

func (l *lexer) lexNumber() {
	start := l.pos
	if l.src[l.pos] == '0' && (l.peek(1) == 'x' || l.peek(1) == 'X') {
		l.pos += 2
		for l.pos < len(l.src) && isHexDigit(l.src[l.pos]) {
			l.pos++
		}
		l.emit(ClassNumber, start, SymNumber)
		return
	}
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		next := l.peek(1)
		if isDigit(next) || ((next == '+' || next == '-') && isDigit(l.peek(2))) {
			l.pos++
			if l.src[l.pos] == '+' || l.src[l.pos] == '-' {
				l.pos++
			}
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		}
	}
	l.emit(ClassNumber, start, SymNumber)
}

func (l *lexer) lexIdentifier() {
	start := l.pos
	for l.pos < len(l.src) && identPart[l.src[l.pos]] {
		l.pos++
	}
	word := l.src[start:l.pos]
	// The compiled string switch rejects the overwhelmingly common
	// non-keyword identifiers without hashing; only actual keywords pay
	// the map lookup for their symbol.
	if isKeywordSwitch(word) {
		l.emit(ClassKeyword, start, symbolBase+Symbol(keywordIndex[word]))
	} else {
		l.emit(ClassIdentifier, start, SymIdentifier)
	}
}

// isKeywordSwitch mirrors the keywords list as a string switch. A test
// pins it against keywordIndex so the two cannot drift.
func isKeywordSwitch(word string) bool {
	switch word {
	case "break", "case", "catch", "continue", "debugger", "default",
		"delete", "do", "else", "finally", "for", "function", "if", "in",
		"instanceof", "new", "return", "switch", "this", "throw", "try",
		"typeof", "var", "void", "while", "with", "true", "false", "null",
		"undefined", "let", "const", "class", "extends", "super", "yield",
		"import", "export":
		return true
	}
	return false
}

// regexAllowed applies the standard heuristic for the / ambiguity: a regex
// literal may start only where an expression may start, i.e. after an
// operator, opening bracket, keyword, or at the beginning of input. The
// previous token is consulted through its cached class and symbol so the
// check costs one table load and works identically in symbol-only mode.
func (l *lexer) regexAllowed() bool {
	switch l.prevClass {
	case 0:
		return true // start of input
	case ClassIdentifier, ClassString, ClassNumber, ClassRegex:
		return false
	case ClassKeyword, ClassPunct:
		return !noRegexAfterSym[l.prevSym]
	default:
		return true
	}
}

// noRegexAfterSym marks the keyword and punctuator symbols after which a
// slash is division, not a regex: value keywords (`this`, `true`, …) and
// the closing/postfix punctuators.
var noRegexAfterSym = func() []bool {
	t := make([]bool, int(symbolBase)+len(keywords)+len(puncts))
	for _, kw := range []string{"this", "true", "false", "null", "undefined", "super"} {
		t[int(symbolBase)+keywordIndex[kw]] = true
	}
	for _, p := range []string{")", "]", "}", "++", "--"} {
		t[punctSymbol(p)] = true
	}
	return t
}()

func (l *lexer) lexRegex() {
	start := l.pos
	l.pos++ // consume '/'
	inClass := false
	terminated := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos += 2
			continue
		}
		if c == '\n' || c == '\r' {
			break
		}
		if c == '[' {
			inClass = true
		} else if c == ']' {
			inClass = false
		} else if c == '/' && !inClass {
			l.pos++
			terminated = true
			break
		}
		l.pos++
	}
	if !terminated {
		// Not a regex after all (e.g. stray slash); emit as punctuator.
		l.pos = start + 1
		l.emit(ClassPunct, start, punctSymbol("/"))
		return
	}
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++ // flags
	}
	l.emit(ClassRegex, start, SymRegex)
}

// punctEntry pairs a punctuator with its precomputed abstraction symbol.
type punctEntry struct {
	text string
	sym  Symbol
}

// punctSymbol is the abstraction symbol of punctuator p.
func punctSymbol(p string) Symbol {
	return symbolBase + Symbol(len(keywords)) + Symbol(punctIndex[p])
}

// punctByFirst buckets the punctuators by first byte, preserving the
// longest-first order within each bucket. Dispatching on the first byte
// replaces the linear scan over all punctuators — the single hottest
// operation when lexing minified or packed JavaScript, where roughly every
// third token is a punctuator.
var punctByFirst = func() (table [256][]punctEntry) {
	for _, p := range puncts {
		table[p[0]] = append(table[p[0]], punctEntry{text: p, sym: punctSymbol(p)})
	}
	return table
}()

func (l *lexer) lexPunct() bool {
	for _, e := range punctByFirst[l.src[l.pos]] {
		if len(e.text) == 1 || matchesAt(l.src, l.pos, e.text) {
			start := l.pos
			l.pos += len(e.text)
			l.emit(ClassPunct, start, e.sym)
			return true
		}
	}
	return false
}

// matchesAt reports whether src[pos:] begins with p; the first byte is
// already known to match.
func matchesAt(src string, pos int, p string) bool {
	if pos+len(p) > len(src) {
		return false
	}
	return src[pos:pos+len(p)] == p
}

func isDigit(c byte) bool    { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool { return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') }

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

// identPart tabulates isIdentPart: identifier bytes dominate JavaScript
// source, and one table load beats the five-way comparison chain.
var identPart = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = isIdentPart(byte(c))
	}
	return t
}()

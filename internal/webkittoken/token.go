package webkittoken

import "kizzle/internal/jstoken"

// SymText is the collapsed abstraction symbol for markup text runs
// (jstoken.ClassText). It sits in the reserved band below symbolBase,
// alongside jstoken's SymIdentifier/SymString/SymNumber, which this
// alphabet reuses for the corresponding collapsed classes.
const SymText jstoken.Symbol = 5

// symbolBase mirrors jstoken: keyword and punctuator symbols are assigned
// from here up, so the reserved collapsed-class band stays disjoint.
const symbolBase jstoken.Symbol = 16

// keywords fixes the webkit alphabet's named symbols: common HTML tag
// names, PHP keywords, and the JS/PHP shared keyword set, deduplicated.
// Order is fixed — symbol identity depends on it — so entries are only
// ever appended.
var keywords = []string{
	// HTML tag names (matched case-sensitively; real-world phishing kits
	// and the synth generator emit lowercase markup).
	"html", "head", "body", "title", "meta", "link", "script", "style",
	"div", "span", "form", "input", "iframe", "img", "a", "p", "br",
	"table", "tr", "td", "button", "label", "select", "option", "textarea",
	"center", "font", "h1", "h2", "h3", "ul", "li", "header", "footer",
	"nav", "section",
	// PHP keywords not shared with JS.
	"php", "echo", "print", "foreach", "as", "isset", "unset", "empty",
	"include", "include_once", "require", "require_once", "die", "exit",
	"array", "global", "namespace", "use", "public", "private",
	"protected", "static", "endif", "endforeach", "elseif", "list",
	// Keywords shared by JS and PHP (or JS-only, for embedded scripts).
	"var", "let", "const", "function", "if", "else", "return", "true",
	"false", "null", "new", "for", "while", "do", "switch", "case",
	"break", "continue", "default", "try", "catch", "throw", "this",
	"typeof", "in", "instanceof", "delete", "void", "class", "extends",
	"undefined",
}

// puncts lists every punctuator, longest first so the lexer greedily
// matches multi-character operators. The set is the union of the markup
// delimiters, the PHP operators, and the JS operator set. Order is fixed.
var puncts = []string{
	"<?php",
	">>>=",
	"<?=", "===", "!==", ">>>", "<<=", ">>=", "**=", "...",
	"?>", "</", "/>", "->", "=>", ".=", "::",
	"==", "!=", "<=", ">=", "&&", "||", "++", "--", "<<", ">>",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "**", "?.", "??",
	"{", "}", "(", ")", "[", "]", ";", ",", "<", ">", "+", "-", "*", "/",
	"%", "&", "|", "^", "!", "~", "?", ":", "=", ".", "@",
}

var (
	keywordIndex = buildIndex(keywords)
	punctIndex   = buildIndex(puncts)
)

func buildIndex(items []string) map[string]int {
	m := make(map[string]int, len(items))
	for i, s := range items {
		m[s] = i
	}
	return m
}

// SymbolSpace returns the exclusive upper bound of the webkit abstraction
// alphabet: every symbol this lexer emits is < SymbolSpace().
func SymbolSpace() int { return int(symbolBase) + len(keywords) + len(puncts) }

func keywordSymbol(i int) jstoken.Symbol {
	return symbolBase + jstoken.Symbol(i)
}

func punctSymbol(i int) jstoken.Symbol {
	return symbolBase + jstoken.Symbol(len(keywords)) + jstoken.Symbol(i)
}

// IsKeyword reports whether word is lexed as a webkit keyword.
func IsKeyword(word string) bool {
	_, ok := keywordIndex[word]
	return ok
}

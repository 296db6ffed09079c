package ingest

import (
	"kizzle/internal/jstoken"
	"kizzle/internal/unpack"
)

// jsProfile is the JS exploit-kit front-end: the paper's lexer and the
// kit-specific unpackers, exposed unchanged. Its kind offset is 0 and its
// lexing delegates straight to jstoken, so every cache key, symbol
// sequence, cluster, and signature is byte-identical to the pre-profile
// pipeline (pinned by the profile differential tests).
type jsProfile struct{}

func init() { Register(jsProfile{}) }

func (jsProfile) ID() string       { return "js" }
func (jsProfile) SymbolSpace() int { return jstoken.SymbolSpace() }
func (jsProfile) KindOffset() int  { return 0 }

func (jsProfile) NewScratch() Scratch { return &jstoken.Scratch{} }

func (jsProfile) LexDocument(doc string) []jstoken.Token { return jstoken.LexDocument(doc) }

func (jsProfile) LexDocumentWindow(doc string, lo, hi int) []jstoken.Token {
	return jstoken.LexDocumentWindow(doc, lo, hi)
}

func (jsProfile) ExtractScripts(doc string) string { return jstoken.ExtractScripts(doc) }

func (jsProfile) Unpack(doc string) (Result, error) {
	res, err := unpack.Unpack(doc)
	if err != nil {
		return Result{}, err
	}
	return Result{Payload: res.Payload, Method: res.Method}, nil
}

package ingest

import (
	"kizzle/internal/jstoken"
	"kizzle/internal/webkittoken"
)

// webkitProfile is the HTML/PHP/JS phishing-kit front-end. The whole
// bundle is source — markup structure is part of the alphabet — so
// LexDocument lexes the raw document and ExtractScripts is identity.
type webkitProfile struct{}

func init() { Register(webkitProfile{}) }

func (webkitProfile) ID() string       { return "webkit" }
func (webkitProfile) SymbolSpace() int { return webkittoken.SymbolSpace() }

// KindOffset 16 keeps webkit cache entries disjoint from the js
// profile's historical kind range (1–7) with headroom for new kinds.
func (webkitProfile) KindOffset() int { return 16 }

func (webkitProfile) NewScratch() Scratch { return &webkittoken.Scratch{} }

func (webkitProfile) LexDocument(doc string) []jstoken.Token { return webkittoken.LexDocument(doc) }

func (webkitProfile) LexDocumentWindow(doc string, lo, hi int) []jstoken.Token {
	return webkittoken.LexDocumentWindow(doc, lo, hi)
}

func (webkitProfile) ExtractScripts(doc string) string { return doc }

func (webkitProfile) Unpack(doc string) (Result, error) {
	payload, err := webkittoken.Unpack(doc)
	if err != nil {
		return Result{}, err
	}
	return Result{Payload: payload, Method: "webkit-b64"}, nil
}

package ingest

import (
	"fmt"
	"sort"
	"sync"

	"kizzle/internal/jstoken"
)

// Result is a successful unpacking, mirroring internal/unpack.Result so
// profiles can wrap workload-specific unpackers behind one shape.
type Result struct {
	// Payload is the decoded inner code.
	Payload string
	// Method names the unpacker that succeeded.
	Method string
}

// Scratch is a reusable symbol-lexing arena. Pipeline workers hold one
// scratch each and stream documents through AppendSymbols; the returned
// slice is an exact-size copy appended to dst, while all lexing scratch
// is retained inside the Scratch for reuse.
type Scratch interface {
	AppendSymbols(dst []jstoken.Symbol, doc string) []jstoken.Symbol
}

// Profile is one ingest front-end: a tokenizer, a streaming symbol
// lexer, an unpacker, and the abstraction alphabet they share. Profiles
// must be stateless and safe for concurrent use; per-goroutine mutable
// state lives in the Scratch values they mint.
type Profile interface {
	// ID is the stable identifier carried on the wire and used to
	// namespace families ("js", "webkit"). It never contains '/'.
	ID() string
	// SymbolSpace is the exclusive upper bound of the profile's
	// abstraction alphabet; workers reject sequences carrying symbols
	// at or above it.
	SymbolSpace() int
	// KindOffset is added to every lexer/unpacker-dependent content
	// cache kind so entries from different profiles never alias. The js
	// profile returns 0, keeping historical cache snapshots valid.
	KindOffset() int
	// NewScratch mints a fresh per-goroutine lexing arena.
	NewScratch() Scratch
	// LexDocument tokenizes a raw document (extracting scripts first
	// where the profile distinguishes documents from source).
	LexDocument(doc string) []jstoken.Token
	// LexDocumentWindow returns tokens lo through hi-1 of
	// LexDocument(doc), lexing no further than hi and storing nothing
	// before lo. The signature stage reads token values this way, for
	// just the common run it found on the abstract symbols.
	LexDocumentWindow(doc string, lo, hi int) []jstoken.Token
	// ExtractScripts reduces a raw document to the text that should be
	// fingerprinted when unpacking fails (identity for profiles whose
	// whole document is source).
	ExtractScripts(doc string) string
	// Unpack peels workload-specific packing, returning an error when no
	// known packer structure is recognized.
	Unpack(doc string) (Result, error)
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Profile)
)

// Register installs a profile under its ID. It panics on an empty or
// duplicate ID or an ID containing '/': registration is init-time wiring,
// and a collision is a programming error.
func Register(p Profile) {
	id := p.ID()
	if id == "" {
		panic("ingest: Register with empty profile id")
	}
	for i := 0; i < len(id); i++ {
		if id[i] == '/' {
			panic(fmt.Sprintf("ingest: profile id %q contains '/'", id))
		}
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[id]; dup {
		panic(fmt.Sprintf("ingest: duplicate profile id %q", id))
	}
	registry[id] = p
}

// Lookup returns the profile registered under id.
func Lookup(id string) (Profile, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	p, ok := registry[id]
	return p, ok
}

// IDs returns the registered profile identifiers, sorted.
func IDs() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Default returns the JS exploit-kit profile — the front-end every
// pre-profile caller implicitly used.
func Default() Profile { return jsProfile{} }

// ProfileOf maps a namespace-qualified family name ("webkit/strato_v2")
// to its workload profile: the prefix before the first '/' when it names
// a registered profile, the default otherwise (un-namespaced families are
// the historical JS corpus).
func ProfileOf(family string) Profile {
	for i := 0; i < len(family); i++ {
		if family[i] == '/' {
			if p, ok := Lookup(family[:i]); ok {
				return p
			}
			break
		}
	}
	return Default()
}

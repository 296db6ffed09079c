package ingest

import (
	"strings"
	"testing"

	"kizzle/internal/jstoken"
)

// badProfile is a minimal Profile for registry-misuse tests; only ID is
// ever called before Register panics.
type badProfile struct{ id string }

func (p badProfile) ID() string                       { return p.id }
func (badProfile) SymbolSpace() int                   { return 1 }
func (badProfile) KindOffset() int                    { return 0 }
func (badProfile) NewScratch() Scratch                { return nil }
func (badProfile) LexDocument(string) []jstoken.Token { return nil }
func (badProfile) LexDocumentWindow(string, int, int) []jstoken.Token {
	return nil
}
func (badProfile) ExtractScripts(doc string) string { return doc }
func (badProfile) Unpack(string) (Result, error)    { return Result{}, nil }

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v does not mention %q", r, want)
		}
	}()
	fn()
}

// TestRegisterRejectsBadIDs: registration is init-time wiring, so empty,
// slash-bearing, and duplicate IDs are programming errors that panic.
func TestRegisterRejectsBadIDs(t *testing.T) {
	mustPanic(t, "empty profile id", func() { Register(badProfile{id: ""}) })
	mustPanic(t, "contains '/'", func() { Register(badProfile{id: "web/kit"}) })
	mustPanic(t, "duplicate profile id", func() { Register(badProfile{id: "js"}) })
}

// TestRegistryAndDefault pins the registry contract the compiler's option
// layer builds on: both built-in profiles resolve, IDs() is sorted, the
// default is js, and unknown IDs miss cleanly.
func TestRegistryAndDefault(t *testing.T) {
	if Default().ID() != "js" {
		t.Fatalf("default profile = %q, want js", Default().ID())
	}
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs() not sorted: %v", ids)
		}
	}
	for _, id := range []string{"js", "webkit"} {
		p, ok := Lookup(id)
		if !ok || p.ID() != id {
			t.Fatalf("Lookup(%q): ok=%v", id, ok)
		}
	}
	if _, ok := Lookup("cobol"); ok {
		t.Fatal("unknown profile id resolved")
	}
	// Profiles must never share a cache-kind band: offsets are pairwise
	// distinct so persisted entries cannot alias across workloads.
	offsets := make(map[int]string)
	for _, id := range IDs() {
		p, _ := Lookup(id)
		if prev, clash := offsets[p.KindOffset()]; clash {
			t.Fatalf("profiles %q and %q share KindOffset %d", prev, id, p.KindOffset())
		}
		offsets[p.KindOffset()] = id
	}
}

// TestProfileOf maps family names to workloads: a registered namespace
// selects its profile, everything else — bare names, unknown namespaces,
// nested paths under unknown prefixes — falls back to the default.
func TestProfileOf(t *testing.T) {
	for fam, want := range map[string]string{
		"Angler":           "js",
		"webkit/strato_v2": "webkit",
		"webkit/a/b":       "webkit",
		"mailer/strato_v2": "js",
		"/leading-slash":   "js",
		"webkitless":       "js",
		"":                 "js",
	} {
		if got := ProfileOf(fam).ID(); got != want {
			t.Errorf("ProfileOf(%q) = %q, want %q", fam, got, want)
		}
	}
}

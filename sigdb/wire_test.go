package sigdb

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"kizzle"
	"kizzle/synth"
)

// mustMarshal is json.Marshal for values that always encode.
func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodedSet round-trips sigs through the Snapshot wire form, the way a
// replica receives them.
func decodedSet(t testing.TB, sigs []kizzle.Signature) []kizzle.Signature {
	t.Helper()
	var snap Snapshot
	if err := json.Unmarshal(mustMarshal(t, Snapshot{Version: 1, Signatures: sigs}), &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Signatures
}

// TestWireEncodingMatchesJSON pins every set body sigdb builds by
// concatenating cached signature encodings — update encodings (and so
// SetDigest), snapshot and delta bodies, and per-family lists — to the
// bytes encoding/json writes for the same values, over js and webkit
// sets, a decoded set, and nil and empty sets ("signatures":null vs []).
func TestWireEncodingMatchesJSON(t *testing.T) {
	js := trainSignatures(t, synth.Date(time.August, 5))
	wk := trainWebkitSignatures(t, webkitTrainDay)
	mixed := append(append([]kizzle.Signature{}, js...), wk...)
	sets := []struct {
		name string
		sigs []kizzle.Signature
	}{
		{"js", js},
		{"webkit", wk},
		{"mixed", mixed},
		{"decoded", decodedSet(t, mixed)},
		{"nil", nil},
		{"empty", []kizzle.Signature{}},
	}
	for _, set := range sets {
		t.Run(set.name, func(t *testing.T) {
			upd, err := appendUpdate(nil, set.sigs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := mustMarshal(t, update{Signatures: set.sigs}); string(upd) != string(want) {
				t.Fatalf("update encoding differs from encoding/json:\n got %.200s\nwant %.200s", upd, want)
			}
			wantSum := sha256.Sum256(mustMarshal(t, update{Signatures: set.sigs}))
			if got, err := SetDigest(set.sigs, nil); err != nil || got != hex.EncodeToString(wantSum[:]) {
				t.Fatalf("SetDigest = %s, %v; want SHA-256 of the encoding/json body", got, err)
			}
			for _, version := range []int64{1, 42, 1 << 62} {
				live := liveSet{version: version, enc: upd}
				want := mustMarshal(t, Snapshot{Version: version, Signatures: set.sigs})
				if got := live.body(); string(got) != string(want) || live.bodyLen() != len(want) {
					t.Fatalf("v%d snapshot body (len %d) differs from encoding/json:\n got %.200s\nwant %.200s", version, live.bodyLen(), got, want)
				}
			}
			byFam := make(map[string][]kizzle.Signature)
			for _, sig := range set.sigs {
				byFam[sig.Family()] = append(byFam[sig.Family()], sig)
			}
			for fam, list := range byFam {
				if got, want := appendSigList(nil, list), mustMarshal(t, list); string(got) != string(want) {
					t.Fatalf("family %s list differs from encoding/json", fam)
				}
			}

			// Every delta the store serves between this set and a base
			// that lacks its first family and its last signature.
			store := New()
			var base []kizzle.Signature
			for i, sig := range set.sigs {
				if sig.Family() != set.sigs[0].Family() && i != len(set.sigs)-1 {
					base = append(base, sig)
				}
			}
			for _, sigs := range [][]kizzle.Signature{base, set.sigs, base} {
				if _, err := store.Replace(sigs, nil); err != nil {
					t.Fatal(err)
				}
			}
			for since := int64(1); since < store.Version(); since++ {
				_, d := store.snapshotAndDelta(since)
				if d == nil {
					t.Fatalf("no delta from v%d", since)
				}
				checkDeltaJSON(t, d)
			}
		})
	}

	// Deltas the store never builds but the wire form allows: nil lists
	// and map, a multi set, family names that need escaping.
	multi := []kizzle.MultiSignature{trainMulti(t, synth.Date(time.August, 6))}
	checkDeltaJSON(t, &Delta{Version: 3, Since: 1})
	checkDeltaJSON(t, &Delta{Version: 3, Since: 2, IsDelta: true, Families: []string{}, Order: []int{}, Changed: map[string][]kizzle.Signature{}, Multi: multi})
	checkDeltaJSON(t, &Delta{
		Version: 9, Since: 8, IsDelta: true,
		Families: []string{"b<&>", "a ", "\xff"},
		Order:    []int{0, 1, 2, 2},
		Changed:  map[string][]kizzle.Signature{"b<&>": js[:1], "a ": nil, "\xff": js[1:3], "": {}},
	})
	upd, err := appendUpdate(nil, js, multi)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustMarshal(t, update{Signatures: js, Multi: multi}); string(upd) != string(want) {
		t.Fatal("update encoding with multi signatures differs from encoding/json")
	}
}

// checkDeltaJSON compares one delta's wire body with encoding/json's.
func checkDeltaJSON(t *testing.T, d *Delta) {
	t.Helper()
	got, err := d.appendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustMarshal(t, d); string(got) != string(want) {
		t.Fatalf("v%d→v%d delta body differs from encoding/json:\n got %.300s\nwant %.300s", d.Since, d.Version, got, want)
	}
}

// TestSetDigestOfHostileBody pins that a set's digest is a function of
// the decoded set, never of the bytes it arrived as. A strict replica
// fetches a non-canonical but equivalent body — extra whitespace, letters
// escaped as \u0041, a decoy duplicate "family" key that the real one
// overrides — and must hash it to the canonical set's digest: it accepts
// an attestation of that digest and refuses one of the digest the raw
// signature bytes would give.
func TestSetDigestOfHostileBody(t *testing.T) {
	sigs := trainSignatures(t, synth.Date(time.August, 5))
	want, err := SetDigest(sigs, nil)
	if err != nil {
		t.Fatal(err)
	}
	canonical := string(mustMarshal(t, Snapshot{Version: 1, Signatures: sigs}))
	// Each pattern below starts with a structural quote: inside a
	// canonical string every quote is escaped, so no rewrite lands in one.
	hostile := strings.NewReplacer(`,"group":`, ` ,  "group" : `, `,"samples":`, "\n,\t\"samples\":").Replace(canonical)
	hostile = regexp.MustCompile(`"(family|literal)":"[A-Za-z]`).ReplaceAllStringFunc(hostile, func(m string) string {
		key, letter := m[1:len(m)-4], m[len(m)-1]
		decoy := ""
		if key == "family" {
			decoy = `"family":"decoy", `
		}
		return fmt.Sprintf(`%s"%s" : "\u%04x`, decoy, key, letter)
	})
	if hostile == canonical || !strings.Contains(hostile, `"decoy"`) || !strings.Contains(hostile, `"literal" : "\u00`) {
		t.Fatal("hostile body was not rewritten")
	}
	// The digest an implementation would compute that kept each
	// signature's raw bytes: the update body around the raw array.
	rawArray, found := strings.CutPrefix(hostile, `{"version":1,"signatures":`)
	if !found {
		t.Fatalf("unexpected snapshot body prefix: %.40s", hostile)
	}
	rawSum := sha256.Sum256([]byte(`{"signatures":` + rawArray))

	for _, tc := range []struct {
		name   string
		digest string
		accept bool
	}{
		{"decoded digest", want, true},
		{"raw bytes digest", hex.EncodeToString(rawSum[:]), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("/signatures", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("ETag", versionETag(1))
				w.Write([]byte(hostile))
			})
			mux.HandleFunc("/attest", func(w http.ResponseWriter, r *http.Request) {
				json.NewEncoder(w).Encode(Attestation{Version: 1, SetDigest: tc.digest})
			})
			srv := httptest.NewServer(mux)
			defer srv.Close()
			c := &Client{URL: srv.URL + "/signatures", Strict: true, AttestURL: srv.URL + "/attest"}
			snap, ok, err := c.Fetch(context.Background())
			if ok != tc.accept || (err == nil) != tc.accept {
				t.Fatalf("fetch ok=%v err=%v, want accept=%v", ok, err, tc.accept)
			}
			if !tc.accept {
				return
			}
			if got, err := snap.SetDigest(); err != nil || got != want {
				t.Fatalf("decoded hostile body digests to %s, want %s", got, want)
			}
			if got := string(mustMarshal(t, snap)); got != canonical {
				t.Fatal("decoded hostile body does not re-encode canonically")
			}
		})
	}
}

// TestEmptyStoreServesEmptySet pins the body an empty store serves to a
// request without ?since= (a health probe, curl, a non-Go consumer) on
// both the GET and the watch endpoint: 200 with the empty Snapshot
// encoding/json writes, for an in-memory store and for a file-backed
// one whose file does not exist yet.
func TestEmptyStoreServesEmptySet(t *testing.T) {
	opened, err := Open(filepath.Join(t.TempDir(), "store.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := string(mustMarshal(t, Snapshot{}))
	for name, s := range map[string]*Store{"New": New(), "Open": opened} {
		for path, h := range map[string]http.Handler{"/signatures": s.Handler(), "/signatures/watch": s.WatchHandler()} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK || rec.Body.String() != want {
				t.Errorf("%s store, GET %s = %d %q, want 200 %q", name, path, rec.Code, rec.Body.String(), want)
			}
		}
	}
}

// BenchmarkSetDigest measures digesting one published-size set, which a
// certified publish cycle does for the primary, the verifier and the
// strict replica.
func BenchmarkSetDigest(b *testing.B) {
	sigs := benchSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SetDigest(sigs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublishAttested measures the certified publish: "changed"
// alternates two sets, so every call installs (compile validation,
// history, attestation); "unchanged" republishes the live set, the idle
// tick of a publisher whose compile output did not move.
func BenchmarkPublishAttested(b *testing.B) {
	sigs := benchSet(b)
	other := sigs[1:]
	b.Run("changed", func(b *testing.B) {
		s := New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			set := sigs
			if i%2 == 1 {
				set = other
			}
			if _, changed, _, err := s.PublishAttested(set, nil, "corpus", testPrimaryPath, testVerifyPath); err != nil || !changed {
				b.Fatalf("changed=%v err=%v", changed, err)
			}
		}
	})
	b.Run("unchanged", func(b *testing.B) {
		s := New()
		if _, _, _, err := s.PublishAttested(sigs, nil, "corpus", testPrimaryPath, testVerifyPath); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, changed, _, err := s.PublishAttested(sigs, nil, "corpus", testPrimaryPath, testVerifyPath); err != nil || changed {
				b.Fatalf("changed=%v err=%v", changed, err)
			}
		}
	})
}

// benchSet is a mixed js + webkit set as the certified publisher
// compiles it.
func benchSet(b *testing.B) []kizzle.Signature {
	return append(trainSignatures(b, synth.Date(time.August, 5)), trainWebkitSignatures(b, webkitTrainDay)...)
}

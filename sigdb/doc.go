// Package sigdb is the distribution side of the paper's chosen deployment
// format: "AV signatures enjoy a well-established deployment channel with
// frequent, automatic updates for signature consumers." It provides a
// versioned, optionally file-backed signature store, HTTP handlers that
// serve incremental updates (conditional GET and long-poll watch), and a
// client whose one update loop keeps a consumer's matcher current — the
// loop that lets Kizzle push a new signature to endpoints within hours
// of a kit mutation.
//
// The wire is conditional and delta-aware at every layer, sized for ten
// thousand replicas polling one publisher. Store.Publish does not bump
// the version for byte-identical sets, so steady-state recompiles cost
// pollers a 304. The handler carries an ETag ("vN") and honors
// If-None-Match; with ?since=V&delta=1 it serves only the families that
// changed since V (when per-family history for V is still retained and
// the delta is actually smaller), and the client reconstructs the
// byte-identical full snapshot from its previous one — verified, and
// falling back to one full fetch on any mismatch. The client validates
// every update by compiling it (incrementally, per changed family, via
// kizzle.MatcherCache) before reporting it, and exposes that compiled
// matcher so deployments never pay for a second compile. Client.Run
// spreads replica rounds with ±jitter so fleets do not synchronize.
//
// A set's identity is its canonical encoding: the update body
// {"signatures":[...]} exactly as encoding/json writes it. SetDigest —
// the digest attestations name and strict clients check — is its
// SHA-256, and Publish's unchanged check compares it byte for byte. Each
// kizzle.Signature computes its share of that encoding once, when it is
// made, so the store, the handlers and the client build every update,
// snapshot, delta and per-family body by concatenation instead of
// re-encoding; the bytes are pinned to encoding/json's
// (TestWireEncodingMatchesJSON). A changed set is compile-validated
// before it installs; an unchanged one compiles nothing.
//
// Every publishing path (Publish, PublishAttested, Replace and so POST
// /signatures) refuses a set with multi-part signatures
// (ErrMultiUnenforced): consumers deploy only the single-run Matcher, so
// a published multi signature would protect nobody. The wire format and
// the multi parameters stay, for the day a consumer scans them.
package sigdb

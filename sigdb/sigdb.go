package sigdb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"

	"kizzle"
)

// validateFamilies rejects candidate sets whose family names are
// ambiguous under workload namespacing: a bare family name ("strato_v2")
// and a namespaced one with the same basename ("webkit/strato_v2") must
// not coexist in one published set — consumers keying thresholds,
// metrics, or match reports by basename could not tell which workload a
// hit belongs to. Distinct namespaces sharing a basename are fine.
func validateFamilies(sigs []kizzle.Signature, multi []kizzle.MultiSignature) error {
	bare := make(map[string]bool)
	namespaced := make(map[string]string) // basename -> first namespaced name
	record := func(fam string) {
		if i := strings.IndexByte(fam, '/'); i >= 0 {
			base := fam[i+1:]
			if _, ok := namespaced[base]; !ok {
				namespaced[base] = fam
			}
		} else {
			bare[fam] = true
		}
	}
	for _, s := range sigs {
		record(s.Family())
	}
	for _, m := range multi {
		record(m.Family())
	}
	for base, full := range namespaced {
		if bare[base] {
			return fmt.Errorf("sigdb: ambiguous family names: bare %q collides with namespaced %q — namespace both or neither", base, full)
		}
	}
	return nil
}

// maxVersionField is the widest version field (math.MaxInt64) a served
// snapshot adds to the update encoding of the same set.
const maxVersionField = len(`"version":9223372036854775807,`)

// ErrMultiUnenforced refuses a candidate set that carries multi-part
// signatures. Every consumer deploys only the single-run Matcher, so a
// published multi signature would protect nobody; the store refuses the
// set rather than appear to ship protection that no replica enforces.
var ErrMultiUnenforced = errors.New("sigdb: multi-part signatures are not enforced by any replica")

// prepare validates a candidate set for every publishing path — no
// multi-part signatures (ErrMultiUnenforced), family names unambiguous,
// served size within maxUpdateBytes (a larger set would be refused by
// every client) — and returns it as an unversioned snapshot along with
// its update encoding, the serialized form publishes compare. Whether the
// set compiles is checked only for a set that will be installed (see
// Replace and lockPublish), so an unchanged republish never pays for a
// compile.
func prepare(sigs []kizzle.Signature, multi []kizzle.MultiSignature) (Snapshot, []byte, error) {
	if len(multi) > 0 {
		return Snapshot{}, nil, fmt.Errorf("%w: %d in the set", ErrMultiUnenforced, len(multi))
	}
	next, err := appendUpdate(nil, sigs, multi)
	if err != nil {
		return Snapshot{}, nil, err
	}
	if size := len(next) + maxVersionField; size > maxUpdateBytes {
		return Snapshot{}, nil, fmt.Errorf("sigdb: signature set is %d bytes on the wire, over the %d-byte limit clients accept", size, maxUpdateBytes)
	}
	if err := validateFamilies(sigs, multi); err != nil {
		return Snapshot{}, nil, err
	}
	candidate := Snapshot{
		Signatures: append([]kizzle.Signature(nil), sigs...),
		Multi:      append([]kizzle.MultiSignature(nil), multi...),
	}
	return candidate, next, nil
}

// Snapshot is one immutable version of the signature set.
type Snapshot struct {
	// Version increases monotonically with every Replace.
	Version int64 `json:"version"`
	// Signatures are the deployed single-run signatures.
	Signatures []kizzle.Signature `json:"signatures"`
	// Multi are the deployed multi-sequence signatures.
	Multi []kizzle.MultiSignature `json:"multi,omitempty"`
}

// Matcher compiles the snapshot for scanning.
func (s Snapshot) Matcher() (*kizzle.Matcher, *kizzle.MultiMatcher, error) {
	m, err := kizzle.NewMatcher(s.Signatures)
	if err != nil {
		return nil, nil, fmt.Errorf("sigdb: compile snapshot v%d: %w", s.Version, err)
	}
	mm, err := kizzle.NewMultiMatcher(s.Multi)
	if err != nil {
		return nil, nil, fmt.Errorf("sigdb: compile snapshot v%d: %w", s.Version, err)
	}
	return m, mm, nil
}

// Store holds the current signature set. The zero value is unusable; use
// Open (file-backed) or New (in-memory).
type Store struct {
	mu   sync.RWMutex
	path string
	snap Snapshot
	// enc is snap's update encoding (see prepare): what an unchanged
	// publish is compared against, and the body GET responses serve.
	// Replaced, never mutated, so a reader may keep it past the lock.
	// An empty store holds emptyUpdate.
	enc []byte
	// history holds family digests for the last deltaHistory versions,
	// the server side of the delta distribution channel (see delta.go).
	history map[int64]map[string]familyDigest
	// certKey signs attestations (see attest.go); empty = unsigned.
	certKey []byte
	// attests indexes attestations by covered version; audit is the
	// append-only hash-chained log both attestations and quarantines land
	// in, persisted as JSONL at path+".audit" for file-backed stores.
	attests map[int64]Attestation
	audit   []AuditRecord
	// watch is closed (and replaced) on every version change: the
	// broadcast the long-poll watch endpoint blocks on, so a publish
	// reaches every parked replica in one RTT instead of a poll interval.
	watch chan struct{}
}

// versionWatch returns a channel that is closed at the next version
// change. Subscribe before reading the version you compare against, or a
// publish landing between the read and the subscription is missed.
func (s *Store) versionWatch() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.watch == nil {
		s.watch = make(chan struct{})
	}
	return s.watch
}

// emptyUpdate is the update encoding of the empty set a store serves at
// version 0.
var emptyUpdate = []byte(`{"signatures":null}`)

// New creates an in-memory store at version 0.
func New() *Store { return &Store{enc: emptyUpdate} }

// Open loads a file-backed store; a missing file starts empty at version 0
// and is created on the first Replace.
func Open(path string) (*Store, error) {
	s := &Store{path: path, enc: emptyUpdate}
	// Restore the audit trail first (tolerant of corruption — see
	// loadAudit); provenance survives even when the snapshot file is gone.
	s.loadAudit()
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sigdb: open: %w", err)
	}
	if err := json.Unmarshal(data, &s.snap); err != nil {
		return nil, fmt.Errorf("sigdb: parse %s: %w", path, err)
	}
	// Validate by compiling once; a corrupt store must not deploy.
	if _, _, err := s.snap.Matcher(); err != nil {
		return nil, err
	}
	if s.enc, err = appendUpdate(nil, s.snap.Signatures, s.snap.Multi); err != nil {
		return nil, err
	}
	// Seed digest history so replicas already at this version get deltas
	// for the next Replace.
	s.recordHistoryLocked()
	return s, nil
}

// Version returns the current version.
func (s *Store) Version() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snap.Version
}

// Snapshot returns the current signature set.
func (s *Store) Snapshot() Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Snapshot{
		Version:    s.snap.Version,
		Signatures: append([]kizzle.Signature(nil), s.snap.Signatures...),
		Multi:      append([]kizzle.MultiSignature(nil), s.snap.Multi...),
	}
}

// Publish installs a new signature set only if it differs from the
// currently published one (compared in serialized form — the exact bytes
// consumers deploy). An unchanged set returns the current version with
// changed=false and no version bump, so steady-state recompilation loops
// do not force every poller to re-fetch, re-validate, and recompile an
// identical set. A changed set is installed like Replace installs it
// (compile-validated, atomically persisted).
func (s *Store) Publish(sigs []kizzle.Signature, multi []kizzle.MultiSignature) (version int64, changed bool, err error) {
	candidate, next, err := prepare(sigs, multi)
	if err != nil {
		return 0, false, err
	}
	changed, err = s.lockPublish(candidate, next)
	if err != nil {
		return 0, false, err
	}
	defer s.mu.Unlock()
	if !changed {
		return s.snap.Version, false, nil
	}
	version, err = s.installLocked(candidate, next)
	return version, err == nil, err
}

// lockPublish takes s.mu for writing to publish candidate, whose update
// encoding is next, and reports whether the candidate differs from the
// live set. The final compare runs under the write lock the caller
// installs under: a concurrent Replace between a racy check and install
// could otherwise make the unchanged-set decision stale (skipping a
// publish the live set no longer matches) or double-bump on two
// identical publishes. A candidate that will be installed is compiled
// first, outside the lock, so GETs and watchers never wait on a compile;
// one equal to the live set is not compiled at all. On a nil error the
// caller holds s.mu and must unlock it.
func (s *Store) lockPublish(candidate Snapshot, next []byte) (changed bool, err error) {
	for {
		s.mu.RLock()
		changed = !s.unchangedLocked(next)
		s.mu.RUnlock()
		if changed {
			if _, _, err := candidate.Matcher(); err != nil {
				return false, err
			}
		}
		s.mu.Lock()
		if now := !s.unchangedLocked(next); !now || changed {
			return now, nil
		}
		// An install moved the live set off the candidate after the
		// check above, so it was not compiled; check again.
		s.mu.Unlock()
	}
}

// unchangedLocked reports whether a candidate's update encoding equals
// the live set's. Version 0 is the empty store, which a first publish
// always replaces. Caller holds s.mu.
func (s *Store) unchangedLocked(next []byte) bool {
	return s.snap.Version > 0 && bytes.Equal(s.enc, next)
}

// Replace installs a new signature set, bumps the version, and (for
// file-backed stores) persists atomically via rename. The new set is
// validated first (see prepare) and compiled: invalid signatures never
// reach the store.
func (s *Store) Replace(sigs []kizzle.Signature, multi []kizzle.MultiSignature) (int64, error) {
	candidate, next, err := prepare(sigs, multi)
	if err != nil {
		return 0, err
	}
	if _, _, err := candidate.Matcher(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.installLocked(candidate, next)
}

// installLocked bumps the version, persists file-backed stores
// atomically via rename, and swaps in the candidate — already compiled
// by the caller, as a set that does not compile never installs — with
// its update encoding enc. Caller holds s.mu.
func (s *Store) installLocked(candidate Snapshot, enc []byte) (int64, error) {
	candidate.Version = s.snap.Version + 1
	if s.path != "" {
		data, err := json.MarshalIndent(candidate, "", "  ")
		if err != nil {
			return 0, fmt.Errorf("sigdb: marshal: %w", err)
		}
		tmp := s.path + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return 0, fmt.Errorf("sigdb: write: %w", err)
		}
		if err := os.Rename(tmp, s.path); err != nil {
			return 0, fmt.Errorf("sigdb: rename: %w", err)
		}
	}
	s.snap, s.enc = candidate, enc
	s.recordHistoryLocked()
	if s.watch != nil {
		// Wake every parked watcher; the next subscriber gets a fresh
		// channel.
		close(s.watch)
		s.watch = nil
	}
	return candidate.Version, nil
}

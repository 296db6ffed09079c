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
// every client), compiles — and returns it as an unversioned snapshot
// along with its update encoding, the serialized form publishes compare.
func prepare(sigs []kizzle.Signature, multi []kizzle.MultiSignature) (Snapshot, []byte, error) {
	if len(multi) > 0 {
		return Snapshot{}, nil, fmt.Errorf("%w: %d in the set", ErrMultiUnenforced, len(multi))
	}
	next, err := json.Marshal(update{Signatures: sigs, Multi: multi})
	if err != nil {
		return Snapshot{}, nil, fmt.Errorf("sigdb: marshal candidate: %w", err)
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
	if _, _, err := candidate.Matcher(); err != nil {
		return Snapshot{}, nil, err
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
	// history holds family digests for the last deltaHistory versions,
	// the server side of the delta distribution channel (see delta.go).
	history map[int64]map[string]uint64
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

// New creates an in-memory store at version 0.
func New() *Store { return &Store{} }

// Open loads a file-backed store; a missing file starts empty at version 0
// and is created on the first Replace.
func Open(path string) (*Store, error) {
	s := &Store{path: path}
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
// identical set. A changed set goes through Replace (compile-validated,
// atomically persisted).
func (s *Store) Publish(sigs []kizzle.Signature, multi []kizzle.MultiSignature) (version int64, changed bool, err error) {
	candidate, next, err := prepare(sigs, multi)
	if err != nil {
		return 0, false, err
	}
	// Compare and install under one write lock: a concurrent Replace
	// between a racy check and install could otherwise make the
	// unchanged-set decision stale (skipping a publish the live set no
	// longer matches) or double-bump on two identical publishes.
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, err := json.Marshal(update{Signatures: s.snap.Signatures, Multi: s.snap.Multi})
	if err == nil && s.snap.Version > 0 && bytes.Equal(cur, next) {
		return s.snap.Version, false, nil
	}
	version, err = s.installLocked(candidate)
	return version, err == nil, err
}

// Replace installs a new signature set, bumps the version, and (for
// file-backed stores) persists atomically via rename. The new set is
// validated first (see prepare): invalid signatures never reach the
// store.
func (s *Store) Replace(sigs []kizzle.Signature, multi []kizzle.MultiSignature) (int64, error) {
	candidate, _, err := prepare(sigs, multi)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.installLocked(candidate)
}

// installLocked bumps the version, persists file-backed stores atomically
// via rename, and swaps in the candidate. Caller holds s.mu.
func (s *Store) installLocked(candidate Snapshot) (int64, error) {
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
	s.snap = candidate
	s.recordHistoryLocked()
	if s.watch != nil {
		// Wake every parked watcher; the next subscriber gets a fresh
		// channel.
		close(s.watch)
		s.watch = nil
	}
	return candidate.Version, nil
}

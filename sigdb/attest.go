package sigdb

// Dual-path publish certification (diverse double-compiling for the
// signature publisher, after Wheeler's DDC): a publish lands only when
// two intentionally different compile paths produced bit-identical
// signature sets, and every installed version carries a signed,
// content-addressed attestation in an append-only audit log. This file
// holds the attestation and audit-log machinery; the verifier that
// actually runs the second compile path lives in cmd/sigserve.
//
// The audit log is a hash chain: each record carries the previous
// record's digest and its own, so truncation and tampering are
// detectable, and each attestation additionally pins the chain prefix it
// was appended after. Records are JSONL on disk (alongside the store
// file, at <store>.audit); a corrupt tail recovers to the longest valid
// prefix — the log degrades to less history, never to fabricated
// history.

import (
	"bufio"
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"kizzle"
)

// PathDescriptor identifies one compile execution path for provenance:
// where the clustering ran, how work was dispatched, and which schedule
// variation was applied. Two attested paths should differ in as many
// fields as possible — that difference is what the bit-identical
// agreement certifies against.
type PathDescriptor struct {
	// Mode is "in-process" or "fleet".
	Mode string `json:"mode"`
	// Shards is the fleet size (0 for in-process).
	Shards int `json:"shards,omitempty"`
	// Dispatch is "stream". Attestations written before batch dispatch
	// was removed may carry "batch"; they still verify.
	Dispatch string `json:"dispatch"`
	// Affinity reports whether the fleet's locality layer was active
	// (always, for fleet paths; older records may say otherwise).
	Affinity bool `json:"affinity,omitempty"`
	// Seed is the schedule-permutation seed (0 = canonical schedule).
	Seed int64 `json:"seed,omitempty"`
	// Profile names the ingest profile the corpus was compiled under
	// ("" = the default js profile, the pre-profile record form).
	Profile string `json:"profile,omitempty"`
}

// String renders the descriptor in the compact form used in logs and
// quarantine reasons, e.g. "fleet/4/stream/affinity/seed=7".
func (d PathDescriptor) String() string {
	s := d.Mode
	if d.Shards > 0 {
		s += "/" + strconv.Itoa(d.Shards)
	}
	s += "/" + d.Dispatch
	if d.Affinity {
		s += "/affinity"
	}
	if d.Seed != 0 {
		s += "/seed=" + strconv.FormatInt(d.Seed, 10)
	}
	if d.Profile != "" {
		s += "/profile=" + d.Profile
	}
	return s
}

// Attestation is the provenance record of one installed signature-set
// version: which input corpus it was compiled from, which two execution
// paths agreed on it, and the digest of the exact bytes consumers
// deploy. MAC, when present, is an HMAC-SHA256 over the rest of the
// record under the publisher's certification key, so a consumer holding
// the shared key can verify the record was issued by the publisher and
// not altered in transit or at rest.
type Attestation struct {
	// Version is the store version the attestation covers.
	Version int64 `json:"version"`
	// CorpusDigest fingerprints the compile input (samples + known
	// payloads, in their deterministic processing order).
	CorpusDigest string `json:"corpusDigest"`
	// SetDigest is the SHA-256 of the canonical serialized signature set
	// — the exact bytes Publish compares and consumers deploy.
	SetDigest string `json:"setDigest"`
	// Primary and Verify describe the two compile paths that agreed.
	Primary PathDescriptor `json:"primary"`
	Verify  PathDescriptor `json:"verify"`
	// Prev is the audit-log chain digest the attestation was appended
	// after ("" when the log was empty), pinning the whole log prefix.
	Prev string `json:"prev,omitempty"`
	// Time is the RFC 3339 issue time.
	Time string `json:"time,omitempty"`
	// MAC is the hex HMAC-SHA256 over the record (MAC cleared) under the
	// publisher's certification key; empty on unsigned stores.
	MAC string `json:"mac,omitempty"`
}

// signingBytes renders the attestation's canonical signed content: the
// JSON encoding with MAC cleared.
func (a Attestation) signingBytes() []byte {
	a.MAC = ""
	b, err := json.Marshal(a)
	if err != nil {
		// Attestation is a plain value struct; Marshal cannot fail on it.
		panic("sigdb: marshal attestation: " + err.Error())
	}
	return b
}

// Sign computes the attestation's hex HMAC-SHA256 under key.
func (a Attestation) Sign(key []byte) string {
	mac := hmac.New(sha256.New, key)
	mac.Write(a.signingBytes())
	return hex.EncodeToString(mac.Sum(nil))
}

// VerifyMAC reports whether the attestation carries a MAC that verifies
// under key. An empty MAC never verifies.
func (a Attestation) VerifyMAC(key []byte) bool {
	if a.MAC == "" {
		return false
	}
	got, err := hex.DecodeString(a.MAC)
	if err != nil {
		return false
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(a.signingBytes())
	return hmac.Equal(got, mac.Sum(nil))
}

// Quarantine records a certification failure: the two compile paths
// disagreed, nothing was installed, and both conflicting artifacts are
// embedded so operators can diff them and re-POST whichever (if either)
// turns out to be sound.
type Quarantine struct {
	// ServingVersion is the version that kept serving.
	ServingVersion int64 `json:"servingVersion"`
	// CorpusDigest fingerprints the disputed compile's input.
	CorpusDigest string `json:"corpusDigest"`
	// Primary / Verify describe the two disagreeing paths.
	Primary PathDescriptor `json:"primary"`
	Verify  PathDescriptor `json:"verify"`
	// PrimaryDigest / VerifyDigest are the two sets' content digests.
	PrimaryDigest string `json:"primaryDigest"`
	VerifyDigest  string `json:"verifyDigest"`
	// PrimarySet / VerifySet embed both serialized signature sets (JSON
	// arrays of signatures), so the conflicting artifacts are recoverable
	// from the audit log alone.
	PrimarySet json.RawMessage `json:"primarySet"`
	VerifySet  json.RawMessage `json:"verifySet"`
	// Reason is a human-readable summary.
	Reason string `json:"reason,omitempty"`
	// Time is the RFC 3339 record time.
	Time string `json:"time,omitempty"`
}

// Audit record kinds.
const (
	AuditAttest     = "attest"
	AuditQuarantine = "quarantine"
)

// AuditRecord is one entry of the append-only audit log. Records form a
// hash chain: Prev is the previous record's Sum ("" for the first) and
// Sum is the SHA-256 of the record itself with Sum cleared, so any
// mutation or reordering breaks every later link.
type AuditRecord struct {
	// Seq numbers records from 1.
	Seq int64 `json:"seq"`
	// Kind is AuditAttest or AuditQuarantine.
	Kind string `json:"kind"`
	// Exactly one of Attestation / Quarantine is set, matching Kind.
	Attestation *Attestation `json:"attestation,omitempty"`
	Quarantine  *Quarantine  `json:"quarantine,omitempty"`
	// Prev / Sum are the hash-chain links (hex SHA-256).
	Prev string `json:"prev,omitempty"`
	Sum  string `json:"sum"`
}

// chainSum computes the record's chain digest: SHA-256 over the JSON
// encoding with Sum cleared.
func (r AuditRecord) chainSum() string {
	r.Sum = ""
	b, err := json.Marshal(r)
	if err != nil {
		panic("sigdb: marshal audit record: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkChain verifies one record against its predecessor's chain digest.
func (r AuditRecord) checkChain(seq int64, prevSum string) error {
	if r.Seq != seq {
		return fmt.Errorf("sigdb: audit record seq %d, want %d", r.Seq, seq)
	}
	if r.Prev != prevSum {
		return fmt.Errorf("sigdb: audit record %d chains to %.12q, want %.12q", r.Seq, r.Prev, prevSum)
	}
	if r.chainSum() != r.Sum {
		return fmt.Errorf("sigdb: audit record %d digest mismatch", r.Seq)
	}
	switch r.Kind {
	case AuditAttest:
		if r.Attestation == nil {
			return fmt.Errorf("sigdb: audit record %d: attest record without attestation", r.Seq)
		}
	case AuditQuarantine:
		if r.Quarantine == nil {
			return fmt.Errorf("sigdb: audit record %d: quarantine record without quarantine", r.Seq)
		}
	default:
		return fmt.Errorf("sigdb: audit record %d: unknown kind %q", r.Seq, r.Kind)
	}
	return nil
}

// SetDigest computes the content digest of a signature set: SHA-256 hex
// over the canonical serialized update body — the exact bytes Publish
// compares against the live set and consumers deploy. Deterministic:
// the serialized forms contain no maps.
func SetDigest(sigs []kizzle.Signature, multi []kizzle.MultiSignature) (string, error) {
	b, err := json.Marshal(update{Signatures: sigs, Multi: multi})
	if err != nil {
		return "", fmt.Errorf("sigdb: digest signature set: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// SetDigest returns the snapshot's content digest (version-independent),
// the quantity an Attestation's SetDigest field is compared against.
func (s Snapshot) SetDigest() (string, error) { return SetDigest(s.Signatures, s.Multi) }

// SetCertKey installs the certification key used to HMAC-sign every
// attestation appended from now on. An empty key leaves attestations
// unsigned (strict clients configured with a key will reject them).
func (s *Store) SetCertKey(key []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.certKey = append([]byte(nil), key...)
}

// Attestation returns the attestation covering a version, if one exists.
func (s *Store) Attestation(version int64) (Attestation, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	att, ok := s.attests[version]
	return att, ok
}

// AuditRecords returns a copy of the audit log, oldest first.
func (s *Store) AuditRecords() []AuditRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]AuditRecord(nil), s.audit...)
}

// PublishAttested is the certified publish entry point: it behaves like
// Publish, and additionally appends a signed attestation to the audit
// log naming the input-corpus digest and the two compile paths whose
// bit-identical agreement the caller (cmd/sigserve's certifier)
// established. When the set is unchanged and the current version is
// already attested, the existing attestation is returned without a
// version bump or a new record; an unchanged set on a version that
// predates certification gets attested in place.
func (s *Store) PublishAttested(sigs []kizzle.Signature, multi []kizzle.MultiSignature, corpusDigest string, primary, verify PathDescriptor) (version int64, changed bool, att Attestation, err error) {
	next, err := json.Marshal(update{Signatures: sigs, Multi: multi})
	if err != nil {
		return 0, false, Attestation{}, fmt.Errorf("sigdb: marshal candidate: %w", err)
	}
	sum := sha256.Sum256(next)
	setDigest := hex.EncodeToString(sum[:])
	if err := validateFamilies(sigs, multi); err != nil {
		return 0, false, Attestation{}, err
	}
	candidate := Snapshot{
		Signatures: append([]kizzle.Signature(nil), sigs...),
		Multi:      append([]kizzle.MultiSignature(nil), multi...),
	}
	if _, _, err := candidate.Matcher(); err != nil {
		return 0, false, Attestation{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, err := json.Marshal(update{Signatures: s.snap.Signatures, Multi: s.snap.Multi})
	if err == nil && s.snap.Version > 0 && bytes.Equal(cur, next) {
		if att, ok := s.attests[s.snap.Version]; ok {
			return s.snap.Version, false, att, nil
		}
		att, err := s.attestLocked(s.snap.Version, corpusDigest, setDigest, primary, verify)
		return s.snap.Version, false, att, err
	}
	version, err = s.installLocked(candidate)
	if err != nil {
		return 0, false, Attestation{}, err
	}
	att, err = s.attestLocked(version, corpusDigest, setDigest, primary, verify)
	return version, true, att, err
}

// attestLocked builds, signs, and appends one attestation. Caller holds
// s.mu.
func (s *Store) attestLocked(version int64, corpusDigest, setDigest string, primary, verify PathDescriptor) (Attestation, error) {
	att := Attestation{
		Version:      version,
		CorpusDigest: corpusDigest,
		SetDigest:    setDigest,
		Primary:      primary,
		Verify:       verify,
		Prev:         s.lastAuditSumLocked(),
		Time:         time.Now().UTC().Format(time.RFC3339),
	}
	if len(s.certKey) > 0 {
		att.MAC = att.Sign(s.certKey)
	}
	if err := s.appendAuditLocked(AuditRecord{Kind: AuditAttest, Attestation: &att}); err != nil {
		return Attestation{}, err
	}
	if s.attests == nil {
		s.attests = make(map[int64]Attestation)
	}
	s.attests[version] = att
	return att, nil
}

// RecordQuarantine appends a quarantine record: the disputed publish was
// NOT installed, the serving version is unchanged, and both conflicting
// artifacts ride in the record for recovery.
func (s *Store) RecordQuarantine(q Quarantine) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	q.ServingVersion = s.snap.Version
	if q.Time == "" {
		q.Time = time.Now().UTC().Format(time.RFC3339)
	}
	return s.appendAuditLocked(AuditRecord{Kind: AuditQuarantine, Quarantine: &q})
}

// lastAuditSumLocked returns the chain digest of the newest audit record
// ("" on an empty log). Caller holds s.mu (read or write).
func (s *Store) lastAuditSumLocked() string {
	if len(s.audit) == 0 {
		return ""
	}
	return s.audit[len(s.audit)-1].Sum
}

// appendAuditLocked links one record into the chain, appends it to the
// in-memory log, and (file-backed stores) appends its JSONL line to
// <store>.audit. Caller holds s.mu.
func (s *Store) appendAuditLocked(rec AuditRecord) error {
	rec.Seq = int64(len(s.audit)) + 1
	rec.Prev = s.lastAuditSumLocked()
	rec.Sum = rec.chainSum()
	if path := s.auditPath(); path != "" {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("sigdb: marshal audit record: %w", err)
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("sigdb: open audit log: %w", err)
		}
		_, werr := f.Write(append(line, '\n'))
		cerr := f.Close()
		if werr != nil {
			return fmt.Errorf("sigdb: append audit log: %w", werr)
		}
		if cerr != nil {
			return fmt.Errorf("sigdb: close audit log: %w", cerr)
		}
	}
	s.audit = append(s.audit, rec)
	return nil
}

// auditPath derives the audit-log path from the store path ("" for
// in-memory stores, whose log lives in memory only).
func (s *Store) auditPath() string {
	if s.path == "" {
		return ""
	}
	return s.path + ".audit"
}

// loadAudit restores the audit log from disk, recovering from a corrupt
// or tampered tail by keeping the longest valid chained prefix and
// rewriting the file to exactly that prefix. The log is provenance, not
// serving state, so a damaged log degrades to less history — it never
// fails Open and never touches the signature snapshot. Returns the
// number of trailing records (or line fragments) dropped.
func (s *Store) loadAudit() int {
	path := s.auditPath()
	if path == "" {
		return 0
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	var valid []AuditRecord
	var validLen int // byte length of the valid prefix
	prevSum := ""
	dropped := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), maxUpdateBytes)
	offset := 0
	for sc.Scan() {
		line := sc.Bytes()
		lineLen := len(line) + 1 // + newline
		var rec AuditRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			dropped++
			break
		}
		if err := rec.checkChain(int64(len(valid))+1, prevSum); err != nil {
			dropped++
			break
		}
		valid = append(valid, rec)
		prevSum = rec.Sum
		offset += lineLen
		validLen = offset
	}
	// Anything past the valid prefix — a corrupt record, a broken chain
	// link, or a truncated last line — is dropped from the file too, so
	// the next append extends a clean chain.
	if validLen < len(data) {
		if rest := data[validLen:]; len(bytes.TrimSpace(rest)) > 0 && dropped == 0 {
			dropped++ // truncated trailing fragment the scanner absorbed
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, data[:validLen], 0o644); err == nil {
			os.Rename(tmp, path)
		}
	}
	s.audit = valid
	for _, rec := range valid {
		if rec.Kind == AuditAttest && rec.Attestation != nil {
			if s.attests == nil {
				s.attests = make(map[int64]Attestation)
			}
			s.attests[rec.Attestation.Version] = *rec.Attestation
		}
	}
	return dropped
}

// AttestHandler serves attestations over HTTP:
//
//	GET <path>?version=N   attestation for version N (default: current)
//	GET <path>?audit=1     the full audit log, oldest first
//
// Consumers (sigdb.Client in strict mode, operators with curl) use it to
// verify the provenance of the exact bytes they are scanning with; an
// unattested version answers 404, which a strict client treats as a
// rejection.
func (s *Store) AttestHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if r.URL.Query().Get("audit") == "1" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(s.AuditRecords())
			return
		}
		version := s.Version()
		if q := r.URL.Query().Get("version"); q != "" {
			v, err := strconv.ParseInt(q, 10, 64)
			if err != nil {
				http.Error(w, "bad version parameter", http.StatusBadRequest)
				return
			}
			version = v
		}
		att, ok := s.Attestation(version)
		if !ok {
			http.Error(w, fmt.Sprintf("no attestation for version %d", version), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(att)
	})
}

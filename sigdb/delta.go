package sigdb

import (
	"crypto/sha256"
	"fmt"
	"strconv"

	"kizzle"
)

// deltaHistory bounds how many past versions the store keeps family
// digests for. A replica further behind than this falls back to a full
// snapshot — correctness never depends on history depth.
const deltaHistory = 32

// Delta is the wire form of a per-family incremental update: only the
// families whose signature lists changed since the client's version are
// carried in full; everything else is reconstructed from the snapshot the
// client already holds. Families, Order, and Changed together pin the
// exact interleaving of the new full signature list, so Apply rebuilds it
// byte-identically — a delta-updated replica compiles exactly the matcher
// a full download would have produced. Multi signatures ride along whole
// (the multi set is small; per-part deltas would not pay).
type Delta struct {
	// Version is the store version this delta brings the client to.
	Version int64 `json:"version"`
	// Since is the client version the delta applies on top of.
	Since int64 `json:"since"`
	// IsDelta marks the response as a delta; full Snapshot JSON has no
	// "delta" key, which is how clients tell the two apart.
	IsDelta bool `json:"delta"`
	// Families lists every family of the new snapshot in first-appearance
	// order of the full signature list.
	Families []string `json:"families"`
	// Order holds, per signature position of the full list, the index
	// into Families of the signature at that position.
	Order []int `json:"order"`
	// Changed maps each family whose list changed since Since (including
	// families that are new) to its full ordered signature list.
	Changed map[string][]kizzle.Signature `json:"changed"`
	// Multi is the complete multi-sequence set of the new snapshot.
	Multi []kizzle.MultiSignature `json:"multi,omitempty"`
}

// familyDigest is the SHA-256 of one family's ordered signature list.
type familyDigest = [sha256.Size]byte

// familyDigests maps each family to the SHA-256 of its ordered signature
// list in canonical serialized form — the bytes consumers deploy, so any
// change a client could observe changes the digest. A cryptographic hash
// because a collision would silently leave a changed family out of every
// delta: a replica would deploy the stale family, or a strict one would
// reject each round until the next version.
func familyDigests(sigs []kizzle.Signature) map[string]familyDigest {
	byFam := make(map[string][]kizzle.Signature)
	for _, sig := range sigs {
		byFam[sig.Family()] = append(byFam[sig.Family()], sig)
	}
	out := make(map[string]familyDigest, len(byFam))
	var buf []byte
	for fam, list := range byFam {
		buf = appendSigList(buf[:0], list)
		out[fam] = sha256.Sum256(buf)
	}
	return out
}

// recordHistoryLocked stores the current snapshot's family digests and
// prunes entries beyond the history window. Caller holds s.mu.
func (s *Store) recordHistoryLocked() {
	if s.history == nil {
		s.history = make(map[int64]map[string]familyDigest)
	}
	s.history[s.snap.Version] = familyDigests(s.snap.Signatures)
	for v := range s.history {
		if v <= s.snap.Version-deltaHistory {
			delete(s.history, v)
		}
	}
}

// liveSet is the installed version as the GET handlers serve it.
type liveSet struct {
	version int64
	// enc is the set's update encoding (Store.enc).
	enc []byte
}

// bodyLen is the length of the full Snapshot body, body() without
// building it.
func (l liveSet) bodyLen() int {
	return len(`{"version":,`) + len(strconv.FormatInt(l.version, 10)) + len(l.enc) - 1
}

// body is the full Snapshot response body.
func (l liveSet) body() []byte {
	return appendSnapshot(make([]byte, 0, l.bodyLen()), l.version, l.enc)
}

// snapshotAndDelta returns the live set and, when family-digest history
// for since is available, the delta from since to it — both read under
// one lock so they describe the same version.
func (s *Store) snapshotAndDelta(since int64) (liveSet, *Delta) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	live := liveSet{version: s.snap.Version, enc: s.enc}
	if since <= 0 || since >= live.version {
		return live, nil
	}
	old, ok := s.history[since]
	cur := s.history[live.version]
	if !ok || cur == nil {
		return live, nil
	}
	d := &Delta{
		Version: live.version,
		Since:   since,
		IsDelta: true,
		Changed: make(map[string][]kizzle.Signature),
	}
	famIndex := make(map[string]int)
	for _, sig := range s.snap.Signatures {
		fam := sig.Family()
		i, seen := famIndex[fam]
		if !seen {
			i = len(d.Families)
			famIndex[fam] = i
			d.Families = append(d.Families, fam)
			if old[fam] != cur[fam] {
				d.Changed[fam] = nil
			}
		}
		d.Order = append(d.Order, i)
		if _, changed := d.Changed[fam]; changed {
			d.Changed[fam] = append(d.Changed[fam], sig)
		}
	}
	d.Multi = append([]kizzle.MultiSignature(nil), s.snap.Multi...)
	return live, d
}

// Apply reconstructs the full snapshot a delta describes from the
// snapshot the client retained at d.Since. Any inconsistency (wrong base
// version, count mismatches, malformed indices) returns an error; the
// caller falls back to a full fetch rather than deploying a guess.
func (d Delta) Apply(prev Snapshot) (Snapshot, error) {
	if prev.Version != d.Since {
		return Snapshot{}, fmt.Errorf("sigdb: delta applies to v%d, have v%d", d.Since, prev.Version)
	}
	prevByFam := make(map[string][]kizzle.Signature)
	for _, sig := range prev.Signatures {
		prevByFam[sig.Family()] = append(prevByFam[sig.Family()], sig)
	}
	source := func(fam string) []kizzle.Signature {
		if list, ok := d.Changed[fam]; ok {
			return list
		}
		return prevByFam[fam]
	}
	pos := make(map[string]int, len(d.Families))
	sigs := make([]kizzle.Signature, 0, len(d.Order))
	for _, oi := range d.Order {
		if oi < 0 || oi >= len(d.Families) {
			return Snapshot{}, fmt.Errorf("sigdb: delta order index %d out of range", oi)
		}
		fam := d.Families[oi]
		src := source(fam)
		k := pos[fam]
		if k >= len(src) {
			return Snapshot{}, fmt.Errorf("sigdb: delta wants %d+ signatures for %s, base has %d", k+1, fam, len(src))
		}
		sigs = append(sigs, src[k])
		pos[fam] = k + 1
	}
	for _, fam := range d.Families {
		if pos[fam] != len(source(fam)) {
			return Snapshot{}, fmt.Errorf("sigdb: delta consumed %d of %d signatures for %s", pos[fam], len(source(fam)), fam)
		}
	}
	return Snapshot{Version: d.Version, Signatures: sigs, Multi: d.Multi}, nil
}

package sigmatch

import (
	"bytes"
	"fmt"
	"sync"

	"kizzle/internal/jstoken"
	"kizzle/internal/siggen"
)

// classTable is a byte-indexed acceptance table for one character class;
// table form keeps the verification inner loop free of indirect calls.
type classTable [256]bool

func buildClassTable(match func(byte) bool) *classTable {
	var t classTable
	for b := 0; b < 256; b++ {
		t[b] = match(byte(b))
	}
	return &t
}

// Compiled is one signature prepared for scanning.
type Compiled struct {
	sig     siggen.Signature
	classes []*classTable // nil for non-class elements
	groups  int
}

// Compile validates the signature and prepares class matchers.
func Compile(sig siggen.Signature) (*Compiled, error) {
	if len(sig.Elements) == 0 {
		return nil, fmt.Errorf("sigmatch: empty signature for family %q", sig.Family)
	}
	c := &Compiled{sig: sig, classes: make([]*classTable, len(sig.Elements))}
	for i, e := range sig.Elements {
		switch e.Kind {
		case siggen.KindLiteral:
		case siggen.KindClass:
			cls, ok := siggen.ClassByName(e.Class)
			if !ok {
				return nil, fmt.Errorf("sigmatch: element %d: unknown class %q", i, e.Class)
			}
			c.classes[i] = buildClassTable(cls.Match)
			// Group < 0 marks an uncaptured class (abstracted long
			// constants); only captured classes allocate a slot.
			if e.Group >= c.groups {
				c.groups = e.Group + 1
			}
		case siggen.KindBackref:
			if e.Group < 0 {
				return nil, fmt.Errorf("sigmatch: element %d: back-reference without group", i)
			}
			// Grow the capture space from back-references too, so groups
			// derivation does not silently depend on the capturing class
			// appearing in the same signature revision.
			if e.Group >= c.groups {
				c.groups = e.Group + 1
			}
		default:
			return nil, fmt.Errorf("sigmatch: element %d: unknown kind %d", i, e.Kind)
		}
	}
	// Back-references must point at groups captured earlier.
	seen := make(map[int]bool, c.groups)
	for i, e := range sig.Elements {
		switch e.Kind {
		case siggen.KindClass:
			if e.Group >= 0 {
				seen[e.Group] = true
			}
		case siggen.KindBackref:
			if !seen[e.Group] {
				return nil, fmt.Errorf("sigmatch: element %d references group %d before capture", i, e.Group)
			}
		}
	}
	return c, nil
}

// Family returns the signature's exploit-kit family label.
func (c *Compiled) Family() string { return c.sig.Family }

// Signature returns the underlying signature.
func (c *Compiled) Signature() siggen.Signature { return c.sig }

// Groups returns the number of capture slots the signature needs.
func (c *Compiled) Groups() int { return c.groups }

// MatchTokens reports whether the signature matches anywhere in the token
// stream, and the token offset of the first match. This is the reference
// sliding scan; Scanner uses it only for signatures without an anchor.
func (c *Compiled) MatchTokens(tokens []jstoken.Token) (int, bool) {
	n := len(c.sig.Elements)
	if n > len(tokens) {
		return 0, false
	}
	captures := make([]string, c.groups)
	for start := 0; start+n <= len(tokens); start++ {
		if c.matchAt(tokens, start, captures) {
			return start, true
		}
	}
	return 0, false
}

func (c *Compiled) matchAt(tokens []jstoken.Token, start int, captures []string) bool {
	for i, e := range c.sig.Elements {
		v := tokens[start+i].Value()
		switch e.Kind {
		case siggen.KindLiteral:
			if v != e.Literal {
				return false
			}
		case siggen.KindClass:
			if len(v) < e.MinLen || len(v) > e.MaxLen {
				return false
			}
			table := c.classes[i]
			for b := 0; b < len(v); b++ {
				if !table[v[b]] {
					return false
				}
			}
			if e.Group >= 0 {
				captures[e.Group] = v
			}
		case siggen.KindBackref:
			if v != captures[e.Group] {
				return false
			}
		}
	}
	return true
}

// Match is one signature hit in a scanned document.
type Match struct {
	// Family is the kit family of the matching signature.
	Family string
	// SignatureIndex identifies the signature within the scanner.
	SignatureIndex int
	// TokenOffset is where in the token stream the match begins.
	TokenOffset int
}

// anchorRef is one candidate alignment in the anchor index: if a token
// equals the anchor literal at stream position p, signature sig can only
// match starting at p-elem.
type anchorRef struct {
	sig  int
	elem int
}

// Scanner holds a deployed signature set, like an AV engine's definition
// database. Scans are safe for concurrent use; Add is not (swap whole
// scanners to update live deployments, as gateway.Vetter does).
type Scanner struct {
	sigs []*Compiled

	// index maps an anchor literal's normalized value to all candidate
	// alignments sharing it.
	index map[string][]anchorRef
	// unanchored lists signatures with no usable literal element; they
	// keep the sliding scan.
	unanchored []int
	// anchorByte prefilters index lookups: a token can only be an anchor
	// if anchorByte[v[0]] is set and len(v) is within the global bounds.
	// The scan gathers every token's first byte into a flat buffer and
	// skips non-candidates in 64-byte blocks (see nextCandidate), so the
	// per-token cost for the overwhelmingly common non-anchor tokens is a
	// fraction of an array read.
	anchorByte [256]bool
	// anchorMask mirrors anchorByte as 0/1 bytes so a block test is a
	// branch-free OR-accumulation instead of 64 conditional jumps.
	anchorMask [256]byte
	// anchorFirst lists the distinct anchor first bytes; with exactly one,
	// the block skip collapses to bytes.IndexByte (memchr-speed).
	anchorFirst   []byte
	minAnchorLen  int
	maxAnchorLen  int
	maxGroups     int
	anchoredCount int
}

// NewScanner compiles all signatures. It fails on the first invalid one.
func NewScanner(sigs []siggen.Signature) (*Scanner, error) {
	s := &Scanner{sigs: make([]*Compiled, 0, len(sigs))}
	for i, sig := range sigs {
		c, err := Compile(sig)
		if err != nil {
			return nil, fmt.Errorf("signature %d: %w", i, err)
		}
		s.sigs = append(s.sigs, c)
	}
	s.rebuildIndex()
	return s, nil
}

// NewScannerFromCompiled assembles a scanner from already-compiled
// signatures, rebuilding only the (cheap, whole-set) anchor index. A
// Compiled is immutable after Compile, so the same values may be shared by
// any number of scanners — this is what makes per-family incremental
// recompilation possible: publishers keep compiled signatures per family
// and reassemble a scanner from cached parts when only one family's
// signatures changed. The slice is copied; the Compiled values are not.
func NewScannerFromCompiled(sigs []*Compiled) *Scanner {
	s := &Scanner{sigs: append([]*Compiled(nil), sigs...)}
	s.rebuildIndex()
	return s
}

// Add compiles and deploys one more signature (signature updates during the
// month-long evaluation). The anchor index is rebuilt: anchor choice
// depends on literal rarity across the whole deployed set.
func (s *Scanner) Add(sig siggen.Signature) error {
	c, err := Compile(sig)
	if err != nil {
		return err
	}
	s.sigs = append(s.sigs, c)
	s.rebuildIndex()
	return nil
}

// rebuildIndex picks each signature's anchor and rebuilds the token-value
// index. The anchor is the signature's rarest literal, where rarity is the
// literal's frequency across all deployed signatures (a literal shared by
// many signatures, like ";" or "=", generates candidate verifications on
// every occurrence; a kit-specific literal almost never fires). Ties break
// toward the longer literal, which is the more selective token.
func (s *Scanner) rebuildIndex() {
	freq := make(map[string]int)
	for _, c := range s.sigs {
		for _, e := range c.sig.Elements {
			if e.Kind == siggen.KindLiteral && e.Literal != "" {
				freq[e.Literal]++
			}
		}
	}
	s.index = make(map[string][]anchorRef)
	s.unanchored = s.unanchored[:0]
	s.anchorByte = [256]bool{}
	s.anchorMask = [256]byte{}
	s.anchorFirst = s.anchorFirst[:0]
	s.minAnchorLen = 0
	s.maxAnchorLen = 0
	s.maxGroups = 0
	s.anchoredCount = 0
	for i, c := range s.sigs {
		if c.groups > s.maxGroups {
			s.maxGroups = c.groups
		}
		best := -1
		for ei, e := range c.sig.Elements {
			if e.Kind != siggen.KindLiteral || e.Literal == "" {
				continue
			}
			if best < 0 {
				best = ei
				continue
			}
			bl := c.sig.Elements[best].Literal
			if freq[e.Literal] < freq[bl] ||
				(freq[e.Literal] == freq[bl] && len(e.Literal) > len(bl)) {
				best = ei
			}
		}
		if best < 0 {
			s.unanchored = append(s.unanchored, i)
			continue
		}
		s.anchoredCount++
		v := c.sig.Elements[best].Literal
		s.index[v] = append(s.index[v], anchorRef{sig: i, elem: best})
		if !s.anchorByte[v[0]] {
			s.anchorByte[v[0]] = true
			s.anchorMask[v[0]] = 1
			s.anchorFirst = append(s.anchorFirst, v[0])
		}
		if s.minAnchorLen == 0 || len(v) < s.minAnchorLen {
			s.minAnchorLen = len(v)
		}
		if len(v) > s.maxAnchorLen {
			s.maxAnchorLen = len(v)
		}
	}
}

// Len returns the number of deployed signatures.
func (s *Scanner) Len() int { return len(s.sigs) }

// Scan tokenizes the document (HTML or raw JavaScript) and returns all
// signature matches.
func (s *Scanner) Scan(doc string) []Match {
	return s.ScanTokens(jstoken.LexDocument(doc))
}

// ScanTokens matches all signatures against a pre-tokenized sample. The
// result lists at most one match per signature (its first offset), ordered
// by signature index — identical to running every signature's sliding scan.
func (s *Scanner) ScanTokens(tokens []jstoken.Token) []Match {
	var out []Match
	offsets, found := s.scanAnchored(tokens, nil)
	for _, i := range s.unanchored {
		if off, ok := s.sigs[i].MatchTokens(tokens); ok {
			if found == nil {
				found = make([]bool, len(s.sigs))
				offsets = make([]int, len(s.sigs))
			}
			found[i], offsets[i] = true, off
		}
	}
	for i := range s.sigs {
		if found != nil && found[i] {
			out = append(out, Match{Family: s.sigs[i].Family(), SignatureIndex: i, TokenOffset: offsets[i]})
		}
	}
	return out
}

// prefilterBlock is the span the anchor prefilter tests per iteration: a
// 64-byte block of gathered first bytes is ruled out with one branch-free
// OR-accumulation before any per-byte work happens.
const prefilterBlock = 64

// fbPool recycles the gathered first-byte buffers across scans; Scanner
// scans run concurrently, so the scratch cannot live on the Scanner.
var fbPool = sync.Pool{New: func() any { return new([]byte) }}

// nextCandidate returns the smallest index >= pos whose gathered first
// byte could start an anchor, or -1 when the rest of the stream has none.
// With one distinct anchor first byte the skip is a single IndexByte call
// (memchr-speed); otherwise 64-byte blocks are OR-accumulated through
// anchorMask and only blocks containing a hit are scanned per byte.
func (s *Scanner) nextCandidate(fb []byte, pos int) int {
	if len(s.anchorFirst) == 1 {
		d := bytes.IndexByte(fb[pos:], s.anchorFirst[0])
		if d < 0 {
			return -1
		}
		return pos + d
	}
	for pos < len(fb) {
		end := pos + prefilterBlock
		if end > len(fb) {
			end = len(fb)
		}
		var acc byte
		for _, c := range fb[pos:end] {
			acc |= s.anchorMask[c]
		}
		if acc == 0 {
			pos = end
			continue
		}
		for ; pos < end; pos++ {
			if s.anchorByte[fb[pos]] {
				return pos
			}
		}
	}
	return -1
}

// scanAnchored runs the single-pass anchor scan. One capture buffer is
// reused across all candidate verifications (each verification writes a
// group before any back-reference reads it, so no clearing is needed).
// When stop is non-nil, the scan aborts as soon as *stop is set by a
// successful verification — the Detects fast path.
//
// The scan is two-phase: a gather pass records every token's normalized
// first byte into a flat buffer, then the candidate loop skips over
// non-anchor stretches with nextCandidate's block prefilter instead of
// re-testing token by token. The candidate set and its order are exactly
// those of the per-token scalar scan (pinned by the reference test).
func (s *Scanner) scanAnchored(tokens []jstoken.Token, stop *bool) (offsets []int, found []bool) {
	if s.anchoredCount == 0 {
		return nil, nil
	}
	var captures []string
	if s.maxGroups > 0 {
		captures = make([]string, s.maxGroups)
	}
	fbp := fbPool.Get().(*[]byte)
	fb := *fbp
	if cap(fb) < len(tokens) {
		fb = make([]byte, len(tokens))
	}
	fb = fb[:len(tokens)]
	for i := range tokens {
		// Empty values gather as 0; even if 0 is an anchor byte the
		// length re-check below rejects the false candidate, so the
		// prefilter only ever over-approximates.
		v := tokens[i].Value()
		if len(v) > 0 {
			fb[i] = v[0]
		} else {
			fb[i] = 0
		}
	}
	defer func() {
		*fbp = fb
		fbPool.Put(fbp)
	}()
	remaining := s.anchoredCount
	for pos := 0; pos < len(tokens); pos++ {
		pos = s.nextCandidate(fb, pos)
		if pos < 0 {
			break
		}
		v := tokens[pos].Value()
		// The block prefilter only tests the first byte; re-check the
		// length bounds before paying for the map lookup.
		if len(v) < s.minAnchorLen || len(v) > s.maxAnchorLen {
			continue
		}
		cands, ok := s.index[v]
		if !ok {
			continue
		}
		for _, cand := range cands {
			if found != nil && found[cand.sig] {
				continue
			}
			start := pos - cand.elem
			c := s.sigs[cand.sig]
			if start < 0 || start+len(c.sig.Elements) > len(tokens) {
				continue
			}
			if !c.matchAt(tokens, start, captures) {
				continue
			}
			if found == nil {
				found = make([]bool, len(s.sigs))
				offsets = make([]int, len(s.sigs))
			}
			found[cand.sig], offsets[cand.sig] = true, start
			if stop != nil {
				*stop = true
				return offsets, found
			}
			remaining--
			if remaining == 0 {
				return offsets, found
			}
		}
	}
	return offsets, found
}

// Detects reports whether any deployed signature matches the document.
func (s *Scanner) Detects(doc string) bool {
	return s.DetectsTokens(jstoken.LexDocument(doc))
}

// DetectsTokens reports whether any deployed signature matches the
// pre-tokenized sample, stopping at the first hit.
func (s *Scanner) DetectsTokens(tokens []jstoken.Token) bool {
	var hit bool
	s.scanAnchored(tokens, &hit)
	if hit {
		return true
	}
	for _, i := range s.unanchored {
		if _, ok := s.sigs[i].MatchTokens(tokens); ok {
			return true
		}
	}
	return false
}

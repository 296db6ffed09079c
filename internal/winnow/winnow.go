package winnow

import (
	"math/bits"
	"slices"
)

// Config holds the two winnowing parameters. With k-gram size k and window
// size w, winnowing guarantees that any shared substring of length at least
// w+k-1 produces at least one shared fingerprint.
type Config struct {
	// K is the k-gram (shingle) length in bytes.
	K int
	// Window is the number of consecutive k-gram hashes a minimum is
	// selected from.
	Window int
}

// DefaultConfig mirrors common winnowing deployments (MOSS uses similar
// magnitudes): 5-byte grams over an 8-hash window guarantee detection of
// shared substrings of 12+ bytes, well under the size of any EK component.
func DefaultConfig() Config { return Config{K: 5, Window: 8} }

// Histogram is a multiset of selected fingerprint hashes.
type Histogram map[uint64]int

// Reset clears the histogram in place, keeping its buckets allocated so a
// reused map reaches a steady state of zero allocations per fingerprint.
func (h Histogram) Reset() { clear(h) }

// Scratch holds the reusable deque state for streaming fingerprint
// computation. The zero value is ready to use. A Scratch is not safe for
// concurrent use; give each worker goroutine its own.
type Scratch struct {
	// pos and val back the monotonic deque as a ring buffer: pos holds
	// gram indices in increasing order, val their hashes in increasing
	// order. The front is the rightmost minimum of the current window.
	pos []int
	val []uint64
	// hbuf buffers one block of gram hashes: the hash stage fills it
	// laneWidth grams at a time with independent FNV chains, then the
	// deque stage consumes it sequentially. Splitting the stages keeps
	// the multiply-latency chains of neighboring grams overlapped
	// instead of serialized behind the deque bookkeeping.
	hbuf []uint64
	// sel collects one document's selected hashes, in selection order;
	// sorted holds them sorted and buckets counts them by top bits (see
	// sortSelected).
	sel, sorted []uint64
	buckets     []int32
}

// laneWidth is how many k=5 gram hashes the block fill computes per
// unrolled iteration: 8 independent FNV-1a chains over a shared 12-byte
// span.
const laneWidth = 8

// hashBlock is the number of gram hashes buffered per fill/consume round;
// 2 KiB of hashes stays comfortably within L1.
const hashBlock = 256

func (s *Scratch) hashes() []uint64 {
	if cap(s.hbuf) < hashBlock {
		s.hbuf = make([]uint64, hashBlock)
	}
	return s.hbuf[:hashBlock]
}

// ring ensures deque capacity for a window of w entries and returns the
// backing arrays. The deque transiently holds w+1 entries (a new hash is
// pushed before the stale front is evicted), hence the +1. Capacity is
// rounded up to a power of two so ring indices reduce with a mask instead
// of a modulo.
func (s *Scratch) ring(w int) ([]int, []uint64) {
	n := 1
	for n < w+1 {
		n <<= 1
	}
	if cap(s.pos) < n {
		s.pos = make([]int, n)
		s.val = make([]uint64, n)
	}
	return s.pos[:n], s.val[:n]
}

// Fingerprint computes the winnow histogram of text into a freshly
// allocated Histogram.
func (s *Scratch) Fingerprint(text string, cfg Config) Histogram {
	return s.AppendFingerprint(make(Histogram), text, cfg)
}

// AppendFingerprint adds the winnow fingerprints of text into h (allocating
// it when nil) and returns it. Documents shorter than one k-gram yield a
// single hash of the whole text so that tiny payload fragments still
// compare non-trivially. With a warm Scratch and a Reset histogram whose
// buckets have stabilized, the call performs no allocations.
func (s *Scratch) AppendFingerprint(h Histogram, text string, cfg Config) Histogram {
	if h == nil {
		h = make(Histogram)
	}
	s.sel = s.appendSelected(s.sel[:0], text, cfg)
	for _, g := range s.sel {
		h[g]++
	}
	return h
}

// FingerprintCompact computes the winnow fingerprint of text straight into
// its sorted form: the selected hashes are sorted and run-length encoded,
// with no Histogram map in between. The result is identical to
// Fingerprint(text, cfg).Compact().
func (s *Scratch) FingerprintCompact(text string, cfg Config) Compact {
	s.sel = s.appendSelected(s.sel[:0], text, cfg)
	sel := s.sortSelected()
	distinct := 0
	for i, g := range sel {
		if i == 0 || g != sel[i-1] {
			distinct++
		}
	}
	c := Compact{
		hashes: make([]uint64, 0, distinct),
		counts: make([]int32, 0, distinct),
		total:  len(sel),
	}
	for i, g := range sel {
		if i > 0 && g == sel[i-1] {
			c.counts[len(c.counts)-1]++
			continue
		}
		c.hashes = append(c.hashes, g)
		c.counts = append(c.counts, 1)
	}
	return c
}

// sortSelected returns s.sel sorted, in s.sorted. Winnow hashes are
// close to uniform, so one counting pass distributes them by their top
// bits into about as many buckets as there are hashes, and each bucket —
// a handful of hashes — is finished by insertion sort. A bucket that a
// skewed input overfills is sorted by slices.Sort, so the worst case
// stays O(n log n).
func (s *Scratch) sortSelected() []uint64 {
	sel := s.sel
	if len(sel) < 64 {
		slices.Sort(sel)
		return sel
	}
	shift := 64 - bits.Len(uint(len(sel)))
	nb := 1<<(64-shift) + 1
	if cap(s.buckets) < nb {
		s.buckets = make([]int32, nb)
	}
	starts := s.buckets[:nb]
	clear(starts)
	for _, h := range sel {
		starts[h>>shift+1]++
	}
	for b := 1; b < nb; b++ {
		starts[b] += starts[b-1]
	}
	if cap(s.sorted) < len(sel) {
		s.sorted = make([]uint64, len(sel))
	}
	out := s.sorted[:len(sel)]
	for _, h := range sel {
		b := h >> shift
		out[starts[b]] = h
		starts[b]++
	}
	// starts[b] is now the end of bucket b and the start of bucket b+1.
	lo := int32(0)
	for _, hi := range starts[:nb-1] {
		if bucket := out[lo:hi]; len(bucket) > 16 {
			slices.Sort(bucket)
		} else {
			for i := 1; i < len(bucket); i++ {
				for j := i; j > 0 && bucket[j] < bucket[j-1]; j-- {
					bucket[j], bucket[j-1] = bucket[j-1], bucket[j]
				}
			}
		}
		lo = hi
	}
	return out
}

// appendSelected appends the hashes winnowing selects from text to dst,
// one per selected position, and returns the extended slice: the one
// selection both AppendFingerprint and FingerprintCompact record from.
func (s *Scratch) appendSelected(dst []uint64, text string, cfg Config) []uint64 {
	if cfg.K <= 0 {
		cfg.K = DefaultConfig().K
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultConfig().Window
	}
	k, w := cfg.K, cfg.Window
	if len(text) < k {
		return append(dst, hashBytes(text))
	}
	n := len(text) - k + 1
	if n <= w {
		// Degenerate single window: the leftmost minimum (matching the
		// reference argmin tie-break).
		best := hashBytes(text[:k])
		for i := 1; i < n; i++ {
			if g := hashBytes(text[i : i+k]); g < best {
				best = g
			}
		}
		return append(dst, best)
	}

	// Robust winnowing over a sliding window of w gram hashes. The deque
	// keeps candidate minima in increasing hash order; pushing a new hash
	// evicts every older entry with an equal-or-larger hash, so the front
	// is always the window minimum with ties broken toward the rightmost
	// occurrence — exactly argminRightmost over the materialized window.
	pos, val := s.ring(w)
	mask := len(pos) - 1
	head, size := 0, 0 // deque front index and entry count
	prevSel := -1
	fixed5 := k == 5 // DefaultConfig's gram size, block-hashed below
	hbuf := s.hashes()
	for base := 0; base < n; base += hashBlock {
		m := n - base
		if m > hashBlock {
			m = hashBlock
		}
		blk := hbuf[:m]
		if fixed5 {
			fillGrams5(blk, text, base)
		} else {
			for j := range blk {
				blk[j] = hashBytes(text[base+j : base+j+k])
			}
		}
		for j, g := range blk {
			i := base + j
			for size > 0 && val[(head+size-1)&mask] >= g {
				size--
			}
			tail := (head + size) & mask
			pos[tail], val[tail] = i, g
			size++
			start := i - w + 1
			if start < 0 {
				continue
			}
			if pos[head] < start {
				head = (head + 1) & mask
				size--
			}
			// Record each selected position once (robust winnowing: keep
			// the previous selection while it remains the window minimum).
			if sel := pos[head]; sel != prevSel {
				dst = append(dst, val[head])
				prevSel = sel
			}
		}
	}
	return dst
}

// Fingerprint computes the winnow histogram of text with transient scratch
// state. Hot paths should reuse a Scratch (and a Reset histogram) instead.
func Fingerprint(text string, cfg Config) Histogram {
	var s Scratch
	return s.Fingerprint(text, cfg)
}

// fillGrams5 computes the k=5 gram hashes for positions base..base+len(dst)-1
// of text into dst. The caller guarantees base+len(dst)+4 <= len(text). The
// unrolled body advances laneWidth independent FNV-1a chains per iteration
// over a shared 12-byte span — no chain depends on another, so the CPU
// overlaps their xor-multiply latency instead of executing one gram's five
// multiplies back to back. Output is identical to calling hash5 per gram
// (pinned gram for gram against the scalar reference in the tests).
func fillGrams5(dst []uint64, text string, base int) {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	j := 0
	for ; j+laneWidth <= len(dst); j += laneWidth {
		t := text[base+j:]
		_ = t[laneWidth+3] // one bounds check for the whole span
		h0 := (uint64(offset) ^ uint64(t[0])) * prime
		h1 := (uint64(offset) ^ uint64(t[1])) * prime
		h2 := (uint64(offset) ^ uint64(t[2])) * prime
		h3 := (uint64(offset) ^ uint64(t[3])) * prime
		h4 := (uint64(offset) ^ uint64(t[4])) * prime
		h5 := (uint64(offset) ^ uint64(t[5])) * prime
		h6 := (uint64(offset) ^ uint64(t[6])) * prime
		h7 := (uint64(offset) ^ uint64(t[7])) * prime
		h0 = (h0 ^ uint64(t[1])) * prime
		h1 = (h1 ^ uint64(t[2])) * prime
		h2 = (h2 ^ uint64(t[3])) * prime
		h3 = (h3 ^ uint64(t[4])) * prime
		h4 = (h4 ^ uint64(t[5])) * prime
		h5 = (h5 ^ uint64(t[6])) * prime
		h6 = (h6 ^ uint64(t[7])) * prime
		h7 = (h7 ^ uint64(t[8])) * prime
		h0 = (h0 ^ uint64(t[2])) * prime
		h1 = (h1 ^ uint64(t[3])) * prime
		h2 = (h2 ^ uint64(t[4])) * prime
		h3 = (h3 ^ uint64(t[5])) * prime
		h4 = (h4 ^ uint64(t[6])) * prime
		h5 = (h5 ^ uint64(t[7])) * prime
		h6 = (h6 ^ uint64(t[8])) * prime
		h7 = (h7 ^ uint64(t[9])) * prime
		h0 = (h0 ^ uint64(t[3])) * prime
		h1 = (h1 ^ uint64(t[4])) * prime
		h2 = (h2 ^ uint64(t[5])) * prime
		h3 = (h3 ^ uint64(t[6])) * prime
		h4 = (h4 ^ uint64(t[7])) * prime
		h5 = (h5 ^ uint64(t[8])) * prime
		h6 = (h6 ^ uint64(t[9])) * prime
		h7 = (h7 ^ uint64(t[10])) * prime
		h0 = (h0 ^ uint64(t[4])) * prime
		h1 = (h1 ^ uint64(t[5])) * prime
		h2 = (h2 ^ uint64(t[6])) * prime
		h3 = (h3 ^ uint64(t[7])) * prime
		h4 = (h4 ^ uint64(t[8])) * prime
		h5 = (h5 ^ uint64(t[9])) * prime
		h6 = (h6 ^ uint64(t[10])) * prime
		h7 = (h7 ^ uint64(t[11])) * prime
		d := dst[j : j+laneWidth : j+laneWidth]
		d[0], d[1], d[2], d[3] = h0, h1, h2, h3
		d[4], d[5], d[6], d[7] = h4, h5, h6, h7
	}
	for ; j < len(dst); j++ {
		i := base + j
		dst[j] = hash5(text[i], text[i+1], text[i+2], text[i+3], text[i+4])
	}
}

// hash5 is hashBytes unrolled for the default 5-byte gram — identical
// output, no slice header or loop per gram.
func hash5(b0, b1, b2, b3, b4 byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := (uint64(offset) ^ uint64(b0)) * prime
	h = (h ^ uint64(b1)) * prime
	h = (h ^ uint64(b2)) * prime
	h = (h ^ uint64(b3)) * prime
	return (h ^ uint64(b4)) * prime
}

// hashBytes is 64-bit FNV-1a.
func hashBytes(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Total returns the histogram mass.
func (h Histogram) Total() int {
	n := 0
	for _, c := range h {
		n += c
	}
	return n
}

// Overlap computes the containment coefficient between two histograms: the
// shared mass divided by the mass of the smaller histogram, in [0, 1].
// This is the "sufficient overlap" quantity Kizzle thresholds per family;
// containment (rather than Jaccard) keeps the score high when a small
// unpacked payload is compared against a larger known corpus sample.
func Overlap(a, b Histogram) float64 {
	ta, tb := a.Total(), b.Total()
	if ta == 0 || tb == 0 {
		return 0
	}
	if ta > tb {
		a, b = b, a
		ta = tb
	}
	shared := 0
	for k, ca := range a {
		if cb, ok := b[k]; ok {
			if cb < ca {
				shared += cb
			} else {
				shared += ca
			}
		}
	}
	return float64(shared) / float64(ta)
}

// Merge adds other's counts into h.
func (h Histogram) Merge(other Histogram) {
	for k, c := range other {
		h[k] += c
	}
}

// Compact is a histogram in hash-sorted slice form. Overlap between two
// Compacts is a cache-friendly merge walk instead of a map iteration with
// per-key lookups — the corpus sweep in cluster labeling compares one
// prototype histogram against every stored corpus entry, which makes that
// walk the hot loop.
type Compact struct {
	hashes []uint64
	counts []int32
	total  int
}

// Compact converts the histogram to its sorted form.
func (h Histogram) Compact() Compact {
	c := Compact{
		hashes: make([]uint64, 0, len(h)),
		counts: make([]int32, len(h)),
	}
	for k := range h {
		c.hashes = append(c.hashes, k)
	}
	slices.Sort(c.hashes)
	for i, k := range c.hashes {
		n := h[k]
		c.counts[i] = int32(n)
		c.total += n
	}
	return c
}

// Total returns the compact histogram's mass.
func (c Compact) Total() int { return c.total }

// OverlapCompact computes the same containment coefficient as Overlap on
// the sorted forms.
func OverlapCompact(a, b Compact) float64 {
	if a.total == 0 || b.total == 0 {
		return 0
	}
	smaller := a.total
	if b.total < smaller {
		smaller = b.total
	}
	shared := 0
	i, j := 0, 0
	for i < len(a.hashes) && j < len(b.hashes) {
		ah, bh := a.hashes[i], b.hashes[j]
		switch {
		case ah == bh:
			ca, cb := a.counts[i], b.counts[j]
			if cb < ca {
				ca = cb
			}
			shared += int(ca)
			i++
			j++
		case ah < bh:
			i++
		default:
			j++
		}
	}
	return float64(shared) / float64(smaller)
}

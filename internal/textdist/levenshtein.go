package textdist

import (
	"math/bits"

	"kizzle/internal/jstoken"
)

// Scratch holds the reusable state of the distance computations: the
// dynamic-programming rows of Distance and the bit-parallel blocks of
// DistanceWithin. The zero value is ready to use. A Scratch is not safe
// for concurrent use; give each worker goroutine its own.
type Scratch struct {
	prev, curr []int

	pv, mv []uint64 // per block: vertical +1 and -1 deltas of the column
	score  []int    // per block: the value of its last row
	peq    []uint64 // match masks, slot-major
	slot   []int32  // symbol -> match-mask slot; all zero between calls
	cols   []int32  // per symbol of b: its match-mask slot
}

// trimCommon strips the shared prefix and suffix of a and b. The
// Levenshtein distance is invariant under both trims, and the sequences
// DBSCAN compares are near-duplicates of one another (that is what a
// cluster is), so a linear scan routinely removes most of the O(d·n)
// dynamic program.
func trimCommon(a, b []jstoken.Symbol) ([]jstoken.Symbol, []jstoken.Symbol) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	p := 0
	for p < n && a[p] == b[p] {
		p++
	}
	a, b = a[p:], b[p:]
	n = len(a)
	if len(b) < n {
		n = len(b)
	}
	s := 0
	for s < n && a[len(a)-1-s] == b[len(b)-1-s] {
		s++
	}
	return a[:len(a)-s], b[:len(b)-s]
}

// rows returns the two DP rows, each with capacity at least n, without
// clearing them (every algorithm below initializes the cells it reads).
func (s *Scratch) rows(n int) (prev, curr []int) {
	if cap(s.prev) < n {
		s.prev = make([]int, n)
		s.curr = make([]int, n)
	}
	return s.prev[:n], s.curr[:n]
}

// Distance computes the Levenshtein edit distance (unit insert, delete and
// substitute costs) between two symbol sequences using two rolling rows.
func (s *Scratch) Distance(a, b []jstoken.Symbol) int {
	a, b = trimCommon(a, b)
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	// Keep the inner loop over the shorter sequence.
	if len(b) > len(a) {
		a, b = b, a
	}
	prev, curr := s.rows(len(b) + 1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		curr[0] = i
		ai := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ai == b[j-1] {
				cost = 0
			}
			curr[j] = min3(prev[j]+1, curr[j-1]+1, prev[j-1]+cost)
		}
		prev, curr = curr, prev
	}
	s.prev, s.curr = prev[:cap(prev)], curr[:cap(curr)]
	return prev[len(b)]
}

// DistanceWithin computes the Levenshtein distance between a and b if it is
// at most maxDist; if the true distance exceeds maxDist it returns
// (0, false).
//
// It is Myers' bit-parallel algorithm in Hyyrö's edit-distance form, laid
// out in 64-row blocks over the shorter sequence as edlib does, and
// restricted to the diagonals an alignment of cost <= maxDist can touch:
// a cell (i, j) lies on one only if its lower bounds from both ends,
// |i-j| and |(m-i)-(n-j)|, sum to at most maxDist. That keeps about
// maxDist+1 diagonals, so each symbol of b advances only the two or three
// blocks that cover them: O(maxDist/64 · len) word operations.
//
// The cells outside those blocks are never computed. A block entering the
// band at the bottom starts as a +1 staircase under the block above, and
// the boundary above the first active block grows by 1 per column. Both
// over-estimate the true values and the recurrence is monotone, so every
// computed cell is at least its true distance. The cells of an optimal
// alignment of cost <= maxDist all lie inside the band, so they are
// exact. Hence the result is exact whenever it is within maxDist, and
// above maxDist otherwise.
//
// The same argument lets the loop stop early: once no computed cell of a
// column can still reach (m, n) within maxDist, the optimal alignment's
// cell in that column cannot either.
func (s *Scratch) DistanceWithin(a, b []jstoken.Symbol, maxDist int) (int, bool) {
	if maxDist < 0 {
		return 0, false
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	// The length difference is a lower bound on the distance.
	if len(b)-len(a) > maxDist {
		return 0, false
	}
	// Both trims drop the same count from each side, so a stays the
	// shorter sequence and the length difference (<= maxDist, just
	// checked) is preserved.
	a, b = trimCommon(a, b)
	m, n := len(a), len(b)
	if m == 0 {
		return n, true
	}
	// The distance never exceeds n, so a larger bound only widens the band.
	k := min2(maxDist, n)
	// Row i of column j is in the band when its diagonal i-j lies in
	// [dLo, dHi], i.e. |i-j| + |(m-n) - (i-j)| <= k, with m-n in [-k, 0].
	delta := m - n
	dLo := -((k - delta) / 2)
	dHi := (k + delta) / 2

	blocks := (m + 63) >> 6
	peq, cols := s.matchMasks(a, b, blocks)
	pv, mv, score := s.blockState(blocks)
	// The active blocks are [first, last]; top is the value of row
	// 64·first, the boundary above the first of them, in column j.
	first, last, top := 0, -1, 0
	for j := 1; j <= n; j++ {
		for last < (min2(m, j+dHi)-1)>>6 {
			last++
			pv[last], mv[last] = ^uint64(0), 0
			score[last] = 64
			if last > 0 {
				score[last] += score[last-1]
			}
		}
		for first < (max2(1, j+dLo)-1)>>6 {
			top = score[first]
			first++
		}
		top++

		eq := peq[int(cols[j-1])*blocks:]
		// c is the row whose remaining lower bound |(m-i)-(n-j)| is 0.
		c := j + delta
		hin, above, lb := 1, top, k+1
		for bi := first; bi <= last; bi++ {
			// Myers' step in Hyyrö's form, as edlib writes it: pv and mv
			// are the block's vertical +1 and -1 deltas, x the rows
			// matching b[j-1], and hin the horizontal delta entering at
			// the top (-1, 0 or +1); hin leaves as the delta at the bottom.
			p, mm, x := pv[bi], mv[bi], eq[bi]
			hinNeg := uint64(hin>>1) & 1
			hinPos := uint64(hin+1) >> 1
			xv := x | mm
			x |= hinNeg
			xh := (((x & p) + p) ^ p) | x
			ph := mm | ^(xh | p)
			mh := p & xh
			hin = int(ph>>63) - int(mh>>63)
			ph = ph<<1 | hinPos
			mh = mh<<1 | hinNeg
			pv[bi] = mh | ^(xv | ph)
			mv[bi] = ph & xv
			score[bi] += hin
			// Rows lo..lo+64 step by at most 1 from above to score[bi],
			// so none is below ceil((above+score[bi]-64)/2); add the
			// remaining-distance bound of the row nearest c.
			lo := bi << 6
			v := (above + score[bi] - 63) >> 1
			if c < lo {
				v += lo - c
			} else if c > lo+64 {
				v += c - lo - 64
			}
			lb = min2(lb, v)
			above = score[bi]
		}
		if lb > k {
			return 0, false
		}
	}
	// Row m is the last real row of the last block; the padding rows
	// below it are backed out of the block's score.
	d := score[blocks-1]
	if pad := blocks<<6 - m; pad > 0 {
		mask := ^uint64(0) << (64 - pad)
		d -= bits.OnesCount64(pv[blocks-1]&mask) - bits.OnesCount64(mv[blocks-1]&mask)
	}
	if d > k {
		return 0, false
	}
	return d, true
}

// matchMasks builds the match masks of the pattern a — bit r of
// peq[slot·blocks+bi] is set when a[64·bi+r] is slot's symbol — and maps
// each symbol of b to its slot. Slot 0 is the all-zero mask of the
// symbols a lacks. The symbol table is sized to the largest symbol seen
// and is all zero between calls.
func (s *Scratch) matchMasks(a, b []jstoken.Symbol, blocks int) (peq []uint64, cols []int32) {
	maxSym := 0
	for _, x := range a {
		maxSym = max2(maxSym, int(x))
	}
	if len(s.slot) <= maxSym {
		s.slot = make([]int32, maxSym+1)
	}
	slots := int32(1)
	for _, x := range a {
		if s.slot[x] == 0 {
			s.slot[x] = slots
			slots++
		}
	}
	if size := int(slots) * blocks; cap(s.peq) < size {
		s.peq = make([]uint64, size)
	} else {
		s.peq = s.peq[:size]
		clear(s.peq)
	}
	for i, x := range a {
		s.peq[int(s.slot[x])*blocks+i>>6] |= 1 << (i & 63)
	}
	if cap(s.cols) < len(b) {
		s.cols = make([]int32, len(b))
	}
	cols = s.cols[:len(b)]
	for j, x := range b {
		cols[j] = 0
		if int(x) < len(s.slot) {
			cols[j] = s.slot[x]
		}
	}
	for _, x := range a {
		s.slot[x] = 0
	}
	return s.peq, cols
}

// blockState returns the per-block vertical deltas and last-row values,
// with room for blocks entries each and uninitialized.
func (s *Scratch) blockState(blocks int) (pv, mv []uint64, score []int) {
	if cap(s.pv) < blocks {
		s.pv = make([]uint64, blocks)
		s.mv = make([]uint64, blocks)
		s.score = make([]int, blocks)
	}
	return s.pv[:blocks], s.mv[:blocks], s.score[:blocks]
}

// Normalized returns the edit distance between a and b divided by the
// length of the longer sequence, the quantity the paper thresholds at 0.10.
// Two empty sequences have distance 0.
func (s *Scratch) Normalized(a, b []jstoken.Symbol) float64 {
	n := max2(len(a), len(b))
	if n == 0 {
		return 0
	}
	return float64(s.Distance(a, b)) / float64(n)
}

// WithinNormalized reports whether the normalized edit distance between a
// and b is at most eps, using the banded early-abandon computation.
func (s *Scratch) WithinNormalized(a, b []jstoken.Symbol, eps float64) bool {
	n := max2(len(a), len(b))
	if n == 0 {
		return true
	}
	maxDist := int(eps * float64(n))
	_, ok := s.DistanceWithin(a, b, maxDist)
	return ok
}

// MaxCandidateLen returns the largest sequence length that can still be
// within normalized distance eps of a sequence of length n, i.e. the upper
// edge of the length window the clustering index prunes with. The bound is
// conservative (it may admit a length the exact check then rejects, never
// the reverse).
func MaxCandidateLen(n int, eps float64) int {
	if eps >= 1 {
		return int(^uint(0) >> 1)
	}
	return int(float64(n)/(1-eps)) + 1
}

// MinCandidateLen is the lower edge of the eps length window for a
// sequence of length n, conservative in the same direction.
func MinCandidateLen(n int, eps float64) int {
	m := n - int(eps*float64(n)) - 1
	if m < 0 {
		return 0
	}
	return m
}

// Distance computes the Levenshtein edit distance with freshly allocated
// rows. Hot paths should use a per-worker Scratch instead.
func Distance(a, b []jstoken.Symbol) int {
	var s Scratch
	return s.Distance(a, b)
}

// DistanceWithin is the allocating form of Scratch.DistanceWithin.
func DistanceWithin(a, b []jstoken.Symbol, maxDist int) (int, bool) {
	var s Scratch
	return s.DistanceWithin(a, b, maxDist)
}

// Normalized is the allocating form of Scratch.Normalized.
func Normalized(a, b []jstoken.Symbol) float64 {
	var s Scratch
	return s.Normalized(a, b)
}

// WithinNormalized is the allocating form of Scratch.WithinNormalized.
func WithinNormalized(a, b []jstoken.Symbol, eps float64) bool {
	var s Scratch
	return s.WithinNormalized(a, b, eps)
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min3(a, b, c int) int { return min2(min2(a, b), c) }

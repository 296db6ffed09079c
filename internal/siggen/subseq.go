package siggen

import (
	"math/bits"

	"kizzle/internal/jstoken"
)

// CommonRun is the longest common token substring found across a cluster:
// its length and, for each sample, the start offset of its (unique)
// occurrence.
type CommonRun struct {
	// Length in tokens.
	Length int
	// Starts[i] is the token offset of the run in sample i.
	Starts []int
}

// FindCommonRun runs the paper's binary search over N (capped at
// maxTokens) for a substring of N symbols that every abstract token
// sequence shares and that occurs exactly once in each. A probe of length
// N takes the leftmost such window of the shortest sequence, which keeps
// signature generation deterministic, and the search keeps the longest
// probe that succeeded. It returns false if no probe of at least
// minTokens succeeds.
//
// The result is not always the longest unique common run. Whether one of
// length N exists is not monotone in N, because the prefix of a unique
// run can repeat, so a failed probe can send the search below lengths
// that have one. With minTokens 1, [[2 2 2 2]] is itself a unique run of
// 4, but the probe at 2 fails, then the probe at 1, and the search
// returns false.
//
// Each probe costs O(Σ len) on top of the windows it verifies. The first
// candidate to consult a sequence scans it directly, which is all a probe
// does when its first candidate wins, as it usually does on recurring
// clusters. From the second consultation on, the window is looked up in
// a flat open-addressing index of the sequence's rolling window hashes,
// built then. Every hash hit is verified symbol by symbol.
func FindCommonRun(seqs [][]jstoken.Symbol, minTokens, maxTokens int) (CommonRun, bool) {
	if len(seqs) == 0 || minTokens <= 0 {
		return CommonRun{}, false
	}
	shortest := 0
	for i, s := range seqs {
		if len(s) < len(seqs[shortest]) {
			shortest = i
		}
	}
	hi := len(seqs[shortest])
	if hi > maxTokens {
		hi = maxTokens
	}
	if hi < minTokens {
		return CommonRun{}, false
	}

	f := &runFinder{seqs: seqs, base: shortest, idx: make([]windowIndex, len(seqs))}
	var best CommonRun
	found := false
	lo := minTokens
	for lo <= hi {
		mid := (lo + hi) / 2
		if run, ok := f.probe(mid); ok {
			best, found = run, true
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best, found
}

// hashBase is the multiplier of the rolling window hash (arithmetic mod
// 2^64). Hits are always verified, so a collision costs time, never a
// wrong answer.
const hashBase = 0x9e3779b97f4a7c15

// runFinder holds FindCommonRun's per-sequence window hashes and indexes,
// reused across the probes of one search.
type runFinder struct {
	seqs [][]jstoken.Symbol
	base int
	n    int    // the current probe's window length
	pow  uint64 // hashBase^n
	idx  []windowIndex
}

// windowIndex holds one sequence's window hashes for the current probe
// and, once built, a flat open-addressing index over them. Each distinct
// hash takes one slot, which heads a chain of the windows carrying it:
// kit samples repeat windows hundreds of times, and one slot per window
// would make linear probing quadratic.
type windowIndex struct {
	consulted bool     // a candidate has scanned the sequence this probe
	indexed   bool     // hashes and the index hold this probe's windows
	hashes    []uint64 // hashes[p]: the window starting at p
	slots     []int32  // chain head (window start + 1); 0 is an empty slot
	next      []int32  // next[p]: the next window of p's chain + 1; 0 ends it
}

// probe reports the leftmost window of n symbols of the shortest sequence
// that occurs exactly once in every sequence, with its start in each.
func (f *runFinder) probe(n int) (CommonRun, bool) {
	f.n, f.pow = n, 1
	for range n {
		f.pow *= hashBase
	}
	for i := range f.idx {
		f.idx[i].consulted, f.idx[i].indexed = false, false
	}
	base := f.seqs[f.base]
	starts := make([]int, len(f.seqs))
candidates:
	for start := 0; start+n <= len(base); start++ {
		// The shortest sequence first: a window repeated there fails
		// without consulting the others.
		if _, count := f.count(f.base, start); count != 1 {
			continue
		}
		for i := range f.seqs {
			pos, count := start, 1
			if i != f.base {
				pos, count = f.count(i, start)
			}
			if count != 1 {
				continue candidates
			}
			starts[i] = pos
		}
		return CommonRun{Length: n, Starts: starts}, true
	}
	return CommonRun{}, false
}

// count returns the first start and the number of occurrences (0, 1 or
// 2 for many) in sequence i of the shortest sequence's window at start.
func (f *runFinder) count(i, start int) (first, count int) {
	ix, s := &f.idx[i], f.seqs[i]
	window := f.seqs[f.base][start : start+f.n]
	if !ix.consulted {
		ix.consulted = true
		return occurrences(s, window)
	}
	if !ix.indexed {
		f.index(ix, s)
	}
	// Every candidate consults the shortest sequence first, so it is
	// indexed by now and holds the window's hash.
	h := f.idx[f.base].hashes[start]
	self := -1
	if i == f.base {
		self = start
	}
	return f.lookup(ix, s, window, h, self)
}

// hash fills ix.hashes with the rolling hash of every window of s.
func (f *runFinder) hash(ix *windowIndex, s []jstoken.Symbol) {
	n := f.n
	var h uint64
	for _, x := range s[:n] {
		h = h*hashBase + uint64(x) + 1
	}
	hs := ix.hashes[:len(s)-n+1]
	hs[0] = h
	for p := 1; p < len(hs); p++ {
		h = h*hashBase + uint64(s[p+n-1]) + 1 - (uint64(s[p-1])+1)*f.pow
		hs[p] = h
	}
}

// index hashes the windows of s and builds the open-addressing index
// over them.
func (f *runFinder) index(ix *windowIndex, s []jstoken.Symbol) {
	if ix.hashes == nil {
		// Sized for the most windows any probe has; the index at load
		// <= 1/2.
		ix.hashes = make([]uint64, len(s))
		ix.slots = make([]int32, 1<<bits.Len(uint(2*len(s)-1)))
		ix.next = make([]int32, len(s))
	} else {
		clear(ix.slots)
	}
	f.hash(ix, s)
	windows := len(s) - f.n + 1
	mask := len(ix.slots) - 1
	for p, h := range ix.hashes[:windows] {
		i := slotOf(h, mask)
		for ix.slots[i] != 0 && ix.hashes[ix.slots[i]-1] != h {
			i = (i + 1) & mask
		}
		ix.next[p] = ix.slots[i]
		ix.slots[i] = int32(p + 1)
	}
	ix.indexed = true
}

func slotOf(h uint64, mask int) int {
	return int((h*0xff51afd7ed558ccd)>>32) & mask
}

// occurrences returns the first match position of needle in haystack and
// the number of matches, stopping early after the second match (only
// zero / one / many matter).
func occurrences(haystack, needle []jstoken.Symbol) (first, count int) {
	first = -1
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if symbolsEqual(haystack[i:i+len(needle)], needle) {
			if count == 0 {
				first = i
			}
			if count++; count > 1 {
				break
			}
		}
	}
	return first, count
}

// lookup counts the occurrences of window (hash h) in s through its
// index, stopping at the second. The window at self is window itself and
// needs no verification.
func (f *runFinder) lookup(ix *windowIndex, s, window []jstoken.Symbol, h uint64, self int) (first, count int) {
	mask := len(ix.slots) - 1
	i := slotOf(h, mask)
	for ix.slots[i] != 0 && ix.hashes[ix.slots[i]-1] != h {
		i = (i + 1) & mask
	}
	first = -1
	for q := ix.slots[i]; q != 0; q = ix.next[q-1] {
		p := int(q) - 1
		if p != self && !symbolsEqual(s[p:p+f.n], window) {
			continue
		}
		if count == 0 {
			first = p
		}
		if count++; count > 1 {
			break
		}
	}
	return first, count
}

func symbolsEqual(a, b []jstoken.Symbol) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

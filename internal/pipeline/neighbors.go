package pipeline

import (
	"sort"
	"strconv"

	"kizzle/internal/contentcache"
	"kizzle/internal/dbscan"
	"kizzle/internal/jstoken"
	"kizzle/internal/parallel"
	"kizzle/internal/textdist"
)

// neighborGraph precomputes the eps region-query graph for the unique
// sequences selected by idx (indices into seqs), combining the three
// clustering-kernel optimizations:
//
//   - a length-sorted candidate index so a region query only tests
//     sequences whose length difference can still be within eps·max-len
//     (the length gap alone is a lower bound on edit distance);
//
//   - a symbol-frequency lower bound: one edit operation moves the
//     per-symbol histograms by at most an L1 mass of 2, so a pair whose
//     histogram L1 distance exceeds 2·maxDist cannot be within eps — an
//     O(alphabet) test that spares the bounded edit distance for most
//     cross-shape pairs;
//
//   - symmetric evaluation — each unordered pair is tested at most once;
//
//   - parallel evaluation across workers, each with its own reusable
//     textdist.Scratch, so the distance stage does not allocate and large
//     partitions no longer serialize on one goroutine.
//
//   - a cross-run verdict cache: each within-eps decision is
//     content-addressed by the pair's sequence identities (two
//     independent 64-bit hashes plus length, each side), so a day whose
//     unique sequences mostly recur re-reads yesterday's verdicts
//     instead of re-running the distance kernel. ids and cache may be nil
//     to disable.
//
// The resulting adjacency lists are in ascending order, making DBSCAN over
// them identical to the serial linear-scan implementation.
func neighborGraph(seqs [][]jstoken.Symbol, ids []seqID, cache *contentcache.Cache,
	idx []int, eps float64, workers int) dbscan.StaticNeighborer {
	n := len(idx)
	if workers < 1 {
		workers = 1
	}
	lens := make([]int, n)
	for k, ui := range idx {
		lens[k] = len(seqs[ui])
	}
	// Per-sequence symbol histograms plus hashed 2-gram histograms, in
	// flat arenas. The 2-gram profile is far more discriminative on token
	// streams (all JavaScript shares one symbol alphabet, but structure
	// differs), at a weaker per-edit bound: one edit disturbs at most two
	// 2-grams, so distance ≥ L1/4.
	h := newHistArena(seqs, idx)
	// Length-sorted view: order[k] is a local index, sortedLens[k] its
	// sequence length.
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool { return lens[order[a]] < lens[order[b]] })
	sortedLens := make([]int, n)
	for k, local := range order {
		sortedLens[k] = lens[local]
	}
	candidates := func(i int) []int {
		lo := sort.SearchInts(sortedLens, textdist.MinCandidateLen(lens[i], eps))
		hi := n
		// MaxCandidateLen saturates at MaxInt for eps >= 1 (everything is
		// a candidate); +1 would wrap negative and empty the window.
		if maxLen := textdist.MaxCandidateLen(lens[i], eps); maxLen < sortedLens[n-1] {
			hi = sort.SearchInts(sortedLens, maxLen+1)
		}
		return order[lo:hi]
	}
	scratches := make([]textdist.Scratch, workers)
	within := func(worker, a, b int) bool {
		return pairWithin(seqs, ids, cache, idx[a], idx[b], h.at(a), h.at(b), eps, &scratches[worker])
	}
	return dbscan.PrecomputeNeighbors(n, workers, candidates, within)
}

// sweepPairs evaluates within-eps pair tests with the same pruning kernel
// as neighborGraph — length windows, symbol/2-gram histogram lower bounds,
// the cross-run verdict cache — but over an explicit pair set, which is
// what the distributed reduce ships to shards as edge jobs:
//
//   - cols nil: triangular — every unordered pair of rows, reported as
//     ascending (i, j) positions into rows;
//   - cols non-nil: bipartite — every (row, col) pair, reported as
//     (row position, col position).
//
// rows and cols index into seqs; ids (aligned with seqs) and cache may be
// nil to disable verdict caching. The pair list is ascending row-major —
// fully deterministic — and rows are swept in parallel across workers.
func sweepPairs(seqs [][]jstoken.Symbol, ids []seqID, cache *contentcache.Cache,
	rows, cols []int, eps float64, workers int) [][2]int {
	if workers < 1 {
		workers = 1
	}
	triangular := cols == nil
	targets := cols
	if triangular {
		targets = rows
	}
	if len(rows) == 0 || len(targets) == 0 {
		return nil
	}

	// Histograms for every involved sequence, keyed by position in the
	// concatenated (rows, targets) view.
	view := make([]int, 0, len(rows)+len(targets))
	view = append(view, rows...)
	if !triangular {
		view = append(view, targets...)
	}
	h := newHistArena(seqs, view)
	rowHist := func(i int) histRef { return h.at(i) }
	targetHist := func(j int) histRef {
		if triangular {
			return h.at(j)
		}
		return h.at(len(rows) + j)
	}

	// Length-sorted view over target positions for the candidate window.
	order := make([]int, len(targets))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool {
		return len(seqs[targets[order[a]]]) < len(seqs[targets[order[b]]])
	})
	sortedLens := make([]int, len(order))
	for k, pos := range order {
		sortedLens[k] = len(seqs[targets[pos]])
	}

	scratches := make([]textdist.Scratch, workers)
	perRow := make([][][2]int, len(rows))
	parallel.ForEach(len(rows), workers, 1, func(worker, ri int) {
		rowSeq := seqs[rows[ri]]
		lo := sort.SearchInts(sortedLens, textdist.MinCandidateLen(len(rowSeq), eps))
		hi := len(order)
		if maxLen := textdist.MaxCandidateLen(len(rowSeq), eps); maxLen < sortedLens[len(sortedLens)-1] {
			hi = sort.SearchInts(sortedLens, maxLen+1)
		}
		var hits [][2]int
		for _, tj := range order[lo:hi] {
			if triangular && tj <= ri {
				continue
			}
			if !pairWithin(seqs, ids, cache, rows[ri], targets[tj],
				rowHist(ri), targetHist(tj), eps, &scratches[worker]) {
				continue
			}
			hits = append(hits, [2]int{ri, tj})
		}
		sort.Slice(hits, func(a, b int) bool { return hits[a][1] < hits[b][1] })
		perRow[ri] = hits
	})
	var out [][2]int
	for _, hits := range perRow {
		out = append(out, hits...)
	}
	return out
}

// histArena holds per-sequence symbol and hashed-2-gram histograms in flat
// arenas (the sweepPairs counterpart of neighborGraph's inline arenas).
type histArena struct {
	alpha   int
	freqs   []int32
	bgFreqs []int32
}

type histRef struct {
	freq, bg []int32
}

const bigramBuckets = 256

func newHistArena(seqs [][]jstoken.Symbol, view []int) *histArena {
	// Size the arena to the symbols actually present rather than a fixed
	// profile alphabet: the L1 bound over absent symbols is zero either
	// way, so the output is identical for every alphabet width and the
	// sweep needs no profile threading.
	alpha := 1
	for _, si := range view {
		for _, sym := range seqs[si] {
			if int(sym) >= alpha {
				alpha = int(sym) + 1
			}
		}
	}
	h := &histArena{
		alpha:   alpha,
		freqs:   make([]int32, len(view)*alpha),
		bgFreqs: make([]int32, len(view)*bigramBuckets),
	}
	for k, si := range view {
		f := h.freqs[k*alpha : (k+1)*alpha]
		g := h.bgFreqs[k*bigramBuckets : (k+1)*bigramBuckets]
		seq := seqs[si]
		for i, sym := range seq {
			f[sym]++
			if i > 0 {
				g[(uint32(seq[i-1])*31+uint32(sym))&(bigramBuckets-1)]++
			}
		}
	}
	return h
}

func (h *histArena) at(k int) histRef {
	return histRef{
		freq: h.freqs[k*h.alpha : (k+1)*h.alpha],
		bg:   h.bgFreqs[k*bigramBuckets : (k+1)*bigramBuckets],
	}
}

// pairWithin runs the shared within-eps decision for one (a, b) sequence
// pair: histogram lower bounds, then the cached verdict, then the
// bit-parallel bounded edit distance (textdist.Scratch.WithinNormalized).
// neighborGraph and sweepPairs both decide every pair here, so they agree
// on every pair.
func pairWithin(seqs [][]jstoken.Symbol, ids []seqID, cache *contentcache.Cache,
	a, b int, ha, hb histRef, eps float64, scratch *textdist.Scratch) bool {
	ml := len(seqs[a])
	if len(seqs[b]) > ml {
		ml = len(seqs[b])
	}
	if ml == 0 {
		return true
	}
	maxDist := int(eps * float64(ml))
	if l1Diff(ha.freq, hb.freq) > 2*maxDist {
		return false
	}
	if l1Diff(ha.bg, hb.bg) > 4*maxDist {
		return false
	}
	var pairKey string
	var key contentcache.Key
	if ids != nil && cache != nil {
		pairKey = pairVerdictKey(ids[a], ids[b], eps)
		key = contentcache.KeyOf(kindPairVerdict, pairKey)
		if v, ok := cache.Get(key, pairKey); ok {
			return v.(bool)
		}
	}
	ok := scratch.WithinNormalized(seqs[a], seqs[b], eps)
	if pairKey != "" {
		cache.Put(key, pairKey, ok)
	}
	return ok
}

// pairVerdictKey canonicalizes an unordered sequence pair plus the eps
// threshold into a cache key string.
func pairVerdictKey(a, b seqID, eps float64) string {
	if b.h1 < a.h1 || (b.h1 == a.h1 && (b.h2 < a.h2 || (b.h2 == a.h2 && b.n < a.n))) {
		a, b = b, a
	}
	buf := make([]byte, 0, 96)
	buf = strconv.AppendUint(buf, a.h1, 16)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, a.h2, 16)
	buf = append(buf, '.')
	buf = strconv.AppendInt(buf, int64(a.n), 16)
	buf = append(buf, '|')
	buf = strconv.AppendUint(buf, b.h1, 16)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, b.h2, 16)
	buf = append(buf, '.')
	buf = strconv.AppendInt(buf, int64(b.n), 16)
	buf = append(buf, '@')
	buf = strconv.AppendFloat(buf, eps, 'g', -1, 64)
	return string(buf)
}

// l1Diff returns the L1 distance between two equal-length histograms.
func l1Diff(a, b []int32) int {
	var sum int32
	for i, av := range a {
		d := av - b[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return int(sum)
}

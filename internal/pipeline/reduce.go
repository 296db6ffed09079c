package pipeline

import (
	"sort"

	"kizzle/internal/dbscan"
)

// This file implements the top of the hierarchical reduce. The bottom
// level — PreReducePartition — runs next to clustering (on the shard or
// in-process executor that clustered the partition) and compacts each
// partition's result into a summary. This level merges
// the summaries: representative merge across partitions, global noise
// re-clustering, and straggler adoption. Its three distance sweeps are
// expressed through an edgeFunc so they can run either in-process
// (parallel across cfg.Workers, verdicts cached) or fanned out to the
// shard fleet as edge jobs; the pair sets — and therefore the output —
// are identical either way.

// summary is one partition's pre-reduced result in unique-sequence
// indices: the coordinator-side form of ReducedPartition.
type summary struct {
	clusters [][]int
	reps     []int
	noise    []int
}

// edgeFunc evaluates within-eps pairs over unique-sequence indices: with
// cols nil, every unordered pair of rows (ascending positions i < j);
// otherwise every (row, col) pair. Results are ascending row-major
// position pairs — the contract sweepPairs implements.
type edgeFunc func(rows, cols []int) ([][2]int, error)

// scheduledEdges applies Config.ScheduleSeed to a session's sweeps: with a
// nonzero seed the row and col orders are permuted before the sweep runs —
// in-process that changes the order pairs are evaluated in; on a fleet it
// also changes every edge job's membership and chunk boundaries — and the
// resulting pair positions are mapped back to the caller's order. The pair
// set itself is order-independent (every unordered pair is tested exactly
// once under any order, and the list is re-sorted), so the permutation
// diversifies the schedule without being able to change the output — the
// property the certification verifier leans on. Seed 0 keeps the
// canonical schedule.
func scheduledEdges(seed int64, edges edgeFunc) edgeFunc {
	if seed == 0 {
		return edges
	}
	return func(rows, cols []int) ([][2]int, error) {
		permR := SeededPerm(len(rows), uint64(seed))
		pRows := make([]int, len(rows))
		for i, p := range permR {
			pRows[i] = rows[p]
		}
		var pCols, permC []int
		if cols != nil {
			permC = SeededPerm(len(cols), uint64(seed)+0x9e3779b97f4a7c15)
			pCols = make([]int, len(cols))
			for i, p := range permC {
				pCols[i] = cols[p]
			}
		}
		pairs, err := edges(pRows, pCols)
		if err != nil {
			return nil, err
		}
		// Map positions in the permuted orders back to the caller's
		// positions, re-establishing the ascending-pair contract for
		// triangular sweeps.
		for i, pr := range pairs {
			a := permR[pr[0]]
			var b int
			if cols == nil {
				b = permR[pr[1]]
				if a > b {
					a, b = b, a
				}
			} else {
				b = permC[pr[1]]
			}
			pairs[i] = [2]int{a, b}
		}
		sortPairs(pairs)
		return pairs, nil
	}
}

// sortPairs orders position pairs ascending row-major.
func sortPairs(pairs [][2]int) {
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a][0] != pairs[b][0] {
			return pairs[a][0] < pairs[b][0]
		}
		return pairs[a][1] < pairs[b][1]
	})
}

// reduceSummaries merges partition summaries into the final cluster set:
//
//  1. Clusters whose representatives are within eps merge (union-find over
//     the representative eps graph — "the final pairwise merge over
//     representatives only").
//  2. The pooled unfolded noise is re-clustered globally (uniques whose
//     family was split across partitions below MinPts per partition still
//     deserve a cluster), bounded by cfg.MaxNoiseRecluster.
//  3. Remaining noise within eps of a merged cluster's representative is
//     adopted by the first such cluster.
//
// weightOf supplies each unique's sample weight as the clustering stage
// saw it (the weight at partition emission), so representative selection
// agrees with the shard-side pre-reduce. Every step is deterministic in
// the summary list, which is itself deterministic in the input batch — so
// shard count, scheduling, and result arrival order cannot change the
// output.
func reduceSummaries(sums []summary, weightOf func(int) int, cfg Config, edges edgeFunc) ([][]int, []int, error) {
	var clusters [][]int
	var reps []int
	for _, s := range sums {
		clusters = append(clusters, s.clusters...)
		reps = append(reps, s.reps...)
	}

	// Representative merge across partitions.
	pairs, err := edges(reps, nil)
	if err != nil {
		return nil, nil, err
	}
	merged, mergedReps := mergeClustersByRepPairs(clusters, reps, pairs, weightOf)

	// Global noise re-clustering over the pooled unfolded noise, skipped
	// for pools above MaxNoiseRecluster (the sweep is quadratic).
	var noise []int
	for _, s := range sums {
		noise = append(noise, s.noise...)
	}
	if len(noise) > 0 && (cfg.MaxNoiseRecluster == 0 || len(noise) <= cfg.MaxNoiseRecluster) {
		npairs, err := edges(noise, nil)
		if err != nil {
			return nil, nil, err
		}
		adj := make(dbscan.StaticNeighborer, len(noise))
		for _, pr := range npairs {
			adj[pr[0]] = append(adj[pr[0]], pr[1])
			adj[pr[1]] = append(adj[pr[1]], pr[0])
		}
		for i := range adj {
			sort.Ints(adj[i])
		}
		weights := make([]int, len(noise))
		for i, ui := range noise {
			weights[i] = weightOf(ui)
		}
		ids := dbscan.ClusterWeighted(adj, weights, cfg.MinPts)
		for _, group := range dbscan.Groups(ids) {
			nc := make([]int, len(group))
			for k, local := range group {
				nc[k] = noise[local]
			}
			merged = append(merged, nc)
			mergedReps = append(mergedReps, heaviest(nc, weightOf))
		}
		var rest []int
		for local, id := range ids {
			if id == dbscan.Noise {
				rest = append(rest, noise[local])
			}
		}
		noise = rest
	}

	// Straggler adoption: remaining noise within eps of a merged cluster's
	// (fixed) representative joins the first such cluster.
	var remaining []int
	if len(noise) > 0 && len(merged) > 0 {
		apairs, err := edges(noise, mergedReps)
		if err != nil {
			return nil, nil, err
		}
		adopted := adoptByFirstPair(apairs)
		for ni, ui := range noise {
			if gi, ok := adopted[ni]; ok {
				merged[gi] = append(merged[gi], ui)
			} else {
				remaining = append(remaining, ui)
			}
		}
	} else {
		remaining = noise
	}
	return merged, remaining, nil
}

// The helpers below are the shared kernels of both levels of the merge
// tree: PreReducePartition (shard-side, partition-local indices) and
// reduceSummaries (coordinator-side, unique indices) must apply byte-for-
// byte identical rules, or the documented invariant — output independent
// of where the merge runs — silently breaks. Change them only in one
// place, here.

// mergeClustersByRepPairs unions clusters whose representative positions
// are connected in pairs, concatenating members in first-cluster order
// and keeping the heaviest representative (earliest wins ties).
func mergeClustersByRepPairs(clusters [][]int, reps []int, pairs [][2]int, weightOf func(int) int) ([][]int, []int) {
	parent := newUnionFind(len(clusters))
	for _, pr := range pairs {
		parent.union(pr[0], pr[1])
	}
	var merged [][]int
	var mergedReps []int
	groupOf := make(map[int]int)
	for ci, members := range clusters {
		root := parent.find(ci)
		gi, ok := groupOf[root]
		if !ok {
			gi = len(merged)
			groupOf[root] = gi
			merged = append(merged, nil)
			mergedReps = append(mergedReps, reps[ci])
		}
		merged[gi] = append(merged[gi], members...)
		if weightOf(reps[ci]) > weightOf(mergedReps[gi]) {
			mergedReps[gi] = reps[ci]
		}
	}
	return merged, mergedReps
}

// adoptByFirstPair maps each row position to its first within-eps column
// ("first" is deterministic: pair lists are ascending row-major).
func adoptByFirstPair(pairs [][2]int) map[int]int {
	adopted := make(map[int]int, len(pairs))
	for _, pr := range pairs {
		if _, ok := adopted[pr[0]]; !ok {
			adopted[pr[0]] = pr[1]
		}
	}
	return adopted
}

// heaviest returns the member covering the most samples — the modal
// shape rule used for every representative choice (earliest wins ties).
func heaviest(members []int, weightOf func(int) int) int {
	best := members[0]
	for _, m := range members[1:] {
		if weightOf(m) > weightOf(best) {
			best = m
		}
	}
	return best
}

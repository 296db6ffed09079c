package pipeline

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"runtime"

	"kizzle/internal/contentcache"
	"kizzle/internal/dbscan"
	"kizzle/internal/jstoken"
)

// This file is the pipeline's horizontal-scaling seam. The paper ran the
// clustering stage on a 50-machine layout ("randomly partition the samples
// across a cluster of machines"); here the stage is factored so a
// coordinator can dispatch work units to remote workers while the cheap
// coordinator-side stages stay inside Process. Two unit kinds exist:
//
//   - partition units: cluster one partition's sequences (DBSCAN) and
//     pre-reduce the result — the bottom level of the hierarchical reduce;
//   - edge units: evaluate a batch of within-eps pair tests between
//     sequences — the distance sweeps of the reduce step (representative
//     merge, noise re-clustering, straggler adoption), fanned back out to
//     the fleet so the coordinator's serial floor shrinks to union-find
//     and bookkeeping.
//
// internal/shardcoord provides the coordinator/worker implementation over
// HTTP plus an in-process loopback for tests.

// ShardPartition is one clustering work unit: the abstract symbol
// sequences of a partition's unique shapes and the sample weight of each
// (how many raw samples collapsed into that shape). Sequences — two bytes
// per symbol — are what travels to a shard worker; raw documents never
// leave the coordinator.
type ShardPartition struct {
	Seqs    [][]jstoken.Symbol `json:"seqs"`
	Weights []int              `json:"weights"`
	// Keys are the content addresses of Seqs (aligned), attached by the
	// streaming session so the coordinator can record which worker became
	// resident for which sequences. Coordinator-side only — never on the
	// wire; workers recompute the keys themselves (wire data is untrusted
	// anyway).
	Keys []SeqKey `json:"-"`
}

// ShardClusters is one partition's raw DBSCAN result — clusters and noise
// in partition-local indices (positions into ShardPartition.Seqs) — the
// input PreReducePartition compacts before anything leaves the executor.
type ShardClusters struct {
	Clusters [][]int `json:"clusters"`
	Noise    []int   `json:"noise"`
}

// ReducedPartition is a partition's pre-reduced clustering summary:
// partition clusters merged where their representatives
// fall within eps, local noise folded into those merged clusters where it
// can be, and one representative recorded per surviving cluster. All
// indices are partition-local (positions into ShardPartition.Seqs). The
// pre-reduce is a pure function of the partition, so the summary is
// identical no matter which shard (or the in-process executor) computed
// it.
type ReducedPartition struct {
	// Clusters are the pre-merged clusters, ordered by their first
	// constituent DBSCAN cluster.
	Clusters [][]int `json:"clusters"`
	// Reps holds one representative per cluster (the constituent cluster
	// representative covering the most samples), aligned with Clusters.
	Reps []int `json:"reps"`
	// Noise lists the partition's unfolded noise points.
	Noise []int `json:"noise"`
}

// EdgeJob is a distance work unit: evaluate which pairs of
// the referenced sequences are within the normalized edit-distance eps.
// With Cols nil the job is triangular — every unordered pair of Rows
// (i < j by position); otherwise it is bipartite — every (row, col) pair.
// Rows and Cols index into Seqs.
type EdgeJob struct {
	Eps  float64    `json:"eps"`
	Seqs PackedSeqs `json:"seqs"`
	Rows []int      `json:"rows"`
	Cols []int      `json:"cols,omitempty"`
	// Keys are the content addresses of Seqs (aligned), attached by the
	// streaming session. The coordinator's digest-first request carries
	// them in place of the sequences a worker already holds.
	Keys []SeqKey `json:"-"`
}

// SeqKey is the content address of one abstract symbol sequence: the
// XXH64 digest of its packed little-endian wire bytes (the same function
// the content-addressed cache keys on), a second independently mixed
// 64-bit hash, and the symbol count. A wrong match needs a simultaneous
// collision of both hashes and the length — the identity strength every
// other content-addressed structure in the pipeline already relies on.
// Digest-first edge requests ship keys instead of sequences and fill only
// the keys the worker does not hold.
type SeqKey struct {
	H uint64
	A uint64
	N uint32
}

// SeqKeyOf computes the content address of a sequence.
func SeqKeyOf(seq []jstoken.Symbol) SeqKey {
	b := make([]byte, 2*len(seq))
	for i, sym := range seq {
		b[2*i] = byte(sym)
		b[2*i+1] = byte(sym >> 8)
	}
	return SeqKey{H: contentcache.Digest(string(b)), A: altHashSeq(seq), N: uint32(len(seq))}
}

// WireBytes is the packed size of the addressed sequence — what shipping
// it (rather than its key) would cost before framing.
func (k SeqKey) WireBytes() int { return 2 * int(k.N) }

// seqKeyRawLen is the encoded key size: H, A little-endian, then N.
const seqKeyRawLen = 20

// MarshalText encodes the key as base64 of its 20 raw bytes, so keys ride
// JSON as compact strings.
func (k SeqKey) MarshalText() ([]byte, error) {
	var raw [seqKeyRawLen]byte
	binary.LittleEndian.PutUint64(raw[0:], k.H)
	binary.LittleEndian.PutUint64(raw[8:], k.A)
	binary.LittleEndian.PutUint32(raw[16:], k.N)
	out := make([]byte, base64.StdEncoding.EncodedLen(seqKeyRawLen))
	base64.StdEncoding.Encode(out, raw[:])
	return out, nil
}

// UnmarshalText decodes a key, rejecting anything but exactly 20 bytes of
// base64 payload (wire keys are untrusted).
func (k *SeqKey) UnmarshalText(text []byte) error {
	raw, err := base64.StdEncoding.DecodeString(string(text))
	if err != nil {
		return fmt.Errorf("sequence key: %w", err)
	}
	if len(raw) != seqKeyRawLen {
		return fmt.Errorf("sequence key: %d raw bytes, want %d", len(raw), seqKeyRawLen)
	}
	k.H = binary.LittleEndian.Uint64(raw[0:])
	k.A = binary.LittleEndian.Uint64(raw[8:])
	k.N = binary.LittleEndian.Uint32(raw[16:])
	return nil
}

// EdgeList is an edge job's result: the within-eps pairs as positions —
// Pairs[k][0] indexes into Rows and Pairs[k][1] into Cols (or into Rows
// for triangular jobs, where Pairs[k][0] < Pairs[k][1]). Pairs are in
// ascending row-major order, so the list is deterministic.
type EdgeList struct {
	Pairs [][2]int `json:"pairs"`
}

// PackedSeqs carries symbol sequences on the wire as base64 of
// little-endian uint16s — roughly 40% of the bytes (and a fraction of the
// encode cost) of JSON integer arrays, which matters for the sequences
// edge jobs fill on workers that do not hold them yet.
type PackedSeqs [][]jstoken.Symbol

// MarshalJSON encodes each sequence as a base64 string.
func (p PackedSeqs) MarshalJSON() ([]byte, error) {
	encoded := make([]string, len(p))
	var buf []byte
	for i, seq := range p {
		if cap(buf) < 2*len(seq) {
			buf = make([]byte, 2*len(seq))
		}
		b := buf[:2*len(seq)]
		for j, sym := range seq {
			b[2*j] = byte(sym)
			b[2*j+1] = byte(sym >> 8)
		}
		encoded[i] = base64.StdEncoding.EncodeToString(b)
	}
	return json.Marshal(encoded)
}

// UnmarshalJSON decodes base64 sequences; an odd byte count is rejected.
func (p *PackedSeqs) UnmarshalJSON(data []byte) error {
	var encoded []string
	if err := json.Unmarshal(data, &encoded); err != nil {
		return err
	}
	out := make([][]jstoken.Symbol, len(encoded))
	for i, s := range encoded {
		raw, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return fmt.Errorf("sequence %d: %w", i, err)
		}
		if len(raw)%2 != 0 {
			return fmt.Errorf("sequence %d: odd packed length %d", i, len(raw))
		}
		seq := make([]jstoken.Symbol, len(raw)/2)
		for j := range seq {
			seq[j] = jstoken.Symbol(raw[2*j]) | jstoken.Symbol(raw[2*j+1])<<8
		}
		out[i] = seq
	}
	*p = out
	return nil
}

// WorkUnit is one unit of clustering-stage work flowing from the pipeline
// to a Clusterer. Exactly one of Partition and Edges is non-nil.
type WorkUnit struct {
	// Seq numbers units within one stream, starting at 0; results are
	// matched back by it.
	Seq int
	// Emitted is the host-time offset at which the unit became available.
	// For partition units it is the coordinator's serial-work clock
	// (time spent on its own work, excluding time blocked on the
	// clusterer); profiling dispatchers use it to model what a real fleet
	// would overlap. For edge units (Wave > 0) it is wall clock since the
	// session opened — informational only: a reduce wave's arrival is
	// governed by its Wave barrier, not Emitted, and profiling
	// dispatchers must model it that way. Execution must not depend on
	// this field.
	Emitted int64
	// Wave is 0 for partition units and increments for each reduce sweep;
	// a wave only starts after every earlier unit's result is in.
	// Profiling dispatchers model the barrier; execution must not depend
	// on it.
	Wave int
	// Partition is a clustering partition work unit.
	Partition *ShardPartition
	// Edges is a distance-sweep work unit.
	Edges *EdgeJob
}

// WorkResult is the outcome of one WorkUnit. Reduced answers partition
// units, Edges answers edge units. A non-nil Err marks the whole stream
// failed; the pipeline stops submitting and surfaces the first error.
type WorkResult struct {
	Seq     int
	Reduced *ReducedPartition
	Edges   *EdgeList
	Err     error
}

// Clusterer is the clustering stage's dispatch seam (Config.Clusterer):
// work units are consumed as the host emits them — partitions while dedup
// is still running, then the reduce's edge sweeps — so the fleet is busy
// before the serial stages finish. ClusterStream must emit exactly one
// result per unit (any order) and close the result channel once the work
// channel closes and all results are out. Every unit's result is a pure
// function of the unit, so output never depends on where units ran — see
// TestShardedMatchesSingleProcess.
type Clusterer interface {
	ClusterStream(work <-chan WorkUnit, cfg Config) <-chan WorkResult
	// StreamWorkers reports the fleet size, used to size edge-sweep fan-out
	// (it never affects results).
	StreamWorkers() int
	// PlaceRows reports, for each key, the shard believed to hold the
	// addressed sequence resident (-1 when unknown). The streaming session
	// composes edge jobs from rows that live together, so routing sends
	// whole jobs to warm workers instead of scattering each chunk's bytes
	// across the fleet. Placement is pure routing advice: the pair set
	// (and therefore the output) is independent of how rows are grouped
	// into jobs.
	PlaceRows(keys []SeqKey) []int
}

// ClusterPartition clusters one partition — the unit of work a shard
// worker executes. It is exactly the per-partition computation the
// in-process path runs: the eps neighbor graph over the partition's
// sequences (length-pruned, frequency-bounded, parallel across
// cfg.Workers) followed by weighted DBSCAN. cfg.Cache, when set, caches
// pair verdicts across requests on the worker; caching never changes the
// result.
func ClusterPartition(p ShardPartition, cfg Config) ShardClusters {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Eps <= 0 {
		cfg.Eps = DefaultEps
	}
	if cfg.MinPts <= 0 {
		cfg.MinPts = 2
	}
	n := len(p.Seqs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	ids := wireSeqIDs(p.Seqs, cfg.Cache)
	adj := neighborGraph(p.Seqs, ids, cfg.Cache, idx, cfg.Eps, cfg.Workers)
	clusterIDs := dbscan.ClusterWeighted(adj, p.Weights, cfg.MinPts)
	var out ShardClusters
	out.Clusters = dbscan.Groups(clusterIDs)
	for local, id := range clusterIDs {
		if id == dbscan.Noise {
			out.Noise = append(out.Noise, local)
		}
	}
	return out
}

// wireSeqIDs recomputes cache identities for wire sequences (nil when no
// cache is configured, disabling verdict caching).
func wireSeqIDs(seqs [][]jstoken.Symbol, cache *contentcache.Cache) []seqID {
	if cache == nil {
		return nil
	}
	ids := make([]seqID, len(seqs))
	for i, seq := range seqs {
		ids[i] = seqID{h1: hashSeq(seq), h2: altHashSeq(seq), n: len(seq)}
	}
	return ids
}

// PreReducePartition computes a partition's pre-reduce: DBSCAN clusters
// whose representatives sit within eps are merged (transitively), and
// noise points within eps of a merged cluster's representative are folded
// into it. The result depends only on (partition, clusters, eps), so every
// executor computes the same summary. cfg supplies Eps, Workers, and the
// optional verdict cache.
func PreReducePartition(p ShardPartition, sc ShardClusters, cfg Config) ReducedPartition {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Eps <= 0 {
		cfg.Eps = DefaultEps
	}
	ids := wireSeqIDs(p.Seqs, cfg.Cache)

	weightOf := func(local int) int { return p.Weights[local] }

	// One representative per DBSCAN cluster: the member covering the most
	// samples, earliest position winning ties.
	reps := make([]int, len(sc.Clusters))
	for ci, members := range sc.Clusters {
		reps[ci] = heaviest(members, weightOf)
	}

	// Merge clusters whose representatives are within eps — the shared
	// kernel, so this level applies exactly the rule the global reduce
	// applies across partitions.
	pairs := sweepPairs(p.Seqs, ids, cfg.Cache, reps, nil, cfg.Eps, cfg.Workers)
	var out ReducedPartition
	out.Clusters, out.Reps = mergeClustersByRepPairs(sc.Clusters, reps, pairs, weightOf)

	// Fold local noise: a noise point within eps of a merged cluster's
	// (fixed) representative joins the first such cluster; the rest stays
	// noise for the global pool.
	if len(sc.Noise) > 0 && len(out.Clusters) > 0 {
		folds := sweepPairs(p.Seqs, ids, cfg.Cache, sc.Noise, out.Reps, cfg.Eps, cfg.Workers)
		adopted := adoptByFirstPair(folds) // noise position → cluster
		for ni, local := range sc.Noise {
			if gi, ok := adopted[ni]; ok {
				out.Clusters[gi] = append(out.Clusters[gi], local)
			} else {
				out.Noise = append(out.Noise, local)
			}
		}
	} else {
		out.Noise = append(out.Noise, sc.Noise...)
	}
	return out
}

// SweepEdges executes one edge job: the within-eps pair sweep a shard
// worker runs for the distributed reduce. cache may be nil; with a cache,
// pair verdicts are shared with partition clustering on the same worker.
func SweepEdges(job EdgeJob, workers int, cache *contentcache.Cache) (EdgeList, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Only non-positive eps is invalid: every other pipeline path accepts
	// eps >= 1 (the candidate window saturates and everything matches), so
	// rejecting it here would make the same Config succeed in-process but
	// fail under streamed shard dispatch.
	if job.Eps <= 0 {
		return EdgeList{}, fmt.Errorf("edge job: eps %v must be > 0", job.Eps)
	}
	for _, r := range job.Rows {
		if r < 0 || r >= len(job.Seqs) {
			return EdgeList{}, fmt.Errorf("edge job: row %d outside [0,%d)", r, len(job.Seqs))
		}
	}
	for _, c := range job.Cols {
		if c < 0 || c >= len(job.Seqs) {
			return EdgeList{}, fmt.Errorf("edge job: col %d outside [0,%d)", c, len(job.Seqs))
		}
	}
	ids := wireSeqIDs(job.Seqs, cache)
	return EdgeList{Pairs: sweepPairs(job.Seqs, ids, cache, job.Rows, job.Cols, job.Eps, workers)}, nil
}

// unionFind is a plain union-find over [0,n).
type unionFind []int

func newUnionFind(n int) unionFind {
	p := make(unionFind, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func (p unionFind) find(x int) int {
	for p[x] != x {
		p[x] = p[p[x]]
		x = p[x]
	}
	return x
}

func (p unionFind) union(a, b int) { p[p.find(a)] = p.find(b) }

// mapSummary translates a partition-local ReducedPartition into
// unique-sequence indices, validating every index (worker responses are
// untrusted).
func mapSummary(uniques []int, r *ReducedPartition) (summary, error) {
	if len(r.Reps) != len(r.Clusters) {
		return summary{}, fmt.Errorf("%d reps for %d clusters", len(r.Reps), len(r.Clusters))
	}
	// The pre-reduce preserves the partition property of its input: an
	// honest summary assigns every partition index to exactly one cluster
	// or the noise pool, and each rep is a member of its own cluster.
	// Anything else is a corrupt (or hostile) response that would
	// double-count or drop samples downstream.
	seen := make([]bool, len(uniques))
	assigned := 0
	claim := func(local int) error {
		if local < 0 || local >= len(uniques) {
			return fmt.Errorf("index %d outside [0,%d)", local, len(uniques))
		}
		if seen[local] {
			return fmt.Errorf("index %d assigned twice", local)
		}
		seen[local] = true
		assigned++
		return nil
	}
	var s summary
	s.clusters = make([][]int, len(r.Clusters))
	s.reps = make([]int, len(r.Clusters))
	for ci, members := range r.Clusters {
		if len(members) == 0 {
			// An empty cluster would blow up representative selection
			// downstream; no honest executor produces one.
			return summary{}, fmt.Errorf("cluster %d is empty", ci)
		}
		rep := r.Reps[ci]
		repFound := false
		mapped := make([]int, len(members))
		for k, local := range members {
			if err := claim(local); err != nil {
				return summary{}, fmt.Errorf("cluster %d: %w", ci, err)
			}
			mapped[k] = uniques[local]
			repFound = repFound || local == rep
		}
		if !repFound {
			return summary{}, fmt.Errorf("cluster %d rep %d is not a member", ci, rep)
		}
		s.clusters[ci] = mapped
		s.reps[ci] = uniques[rep]
	}
	for _, local := range r.Noise {
		if err := claim(local); err != nil {
			return summary{}, fmt.Errorf("noise: %w", err)
		}
		s.noise = append(s.noise, uniques[local])
	}
	if assigned != len(uniques) {
		return summary{}, fmt.Errorf("%d of %d indices unassigned", len(uniques)-assigned, len(uniques))
	}
	return s, nil
}

package pipeline

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"kizzle/internal/contentcache"
	"kizzle/internal/ekit"
	"kizzle/internal/jstoken"
)

// symbolSeq builds an in-alphabet sequence from bytes.
func symbolSeq(s string) []jstoken.Symbol {
	space := jstoken.Symbol(jstoken.SymbolSpace())
	out := make([]jstoken.Symbol, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = jstoken.Symbol(s[i]) % space
	}
	return out
}

// TestPreReducePartition pins the pre-reduce semantics on a hand-built
// partition: clusters with representatives within eps merge, local noise
// within eps of a merged representative folds in, and the rest stays
// noise.
func TestPreReducePartition(t *testing.T) {
	// Sequences: 0,1 identical (cluster A); 2,3 identical to each other
	// and to A within eps (cluster B merges with A); 4,5 form a distant
	// cluster C; 6 is noise near A's rep; 7 is distant noise.
	near := "aaaaaaaaaa"
	nearish := "aaaaaaaaab" // distance 1/10 = 0.1 ≤ eps 0.2
	far := "zzzzzzzzzzzzzzzzzzzzzzzzz"
	lone := "mmmmmmmmmmmmmmmmm"
	p := ShardPartition{
		Seqs: [][]jstoken.Symbol{
			symbolSeq(near), symbolSeq(near),
			symbolSeq(nearish), symbolSeq(nearish),
			symbolSeq(far), symbolSeq(far),
			symbolSeq(nearish),
			symbolSeq(lone),
		},
		Weights: []int{3, 1, 1, 1, 2, 2, 1, 1},
	}
	sc := ShardClusters{
		Clusters: [][]int{{0, 1}, {2, 3}, {4, 5}},
		Noise:    []int{6, 7},
	}
	cfg := Config{Eps: 0.2, Workers: 2}
	got := PreReducePartition(p, sc, cfg)

	want := ReducedPartition{
		// A (rep 0, weight 3) merges with B (rep 2); C stays apart. Noise
		// 6 folds into the merged cluster (within eps of rep 0); 7 stays.
		Clusters: [][]int{{0, 1, 2, 3, 6}, {4, 5}},
		Reps:     []int{0, 4},
		Noise:    []int{7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PreReducePartition = %+v, want %+v", got, want)
	}

	// Pure function: a verdict cache must not change the result.
	cfg.Cache = contentcache.New(1 << 20)
	for run := 0; run < 2; run++ {
		if cached := PreReducePartition(p, sc, cfg); !reflect.DeepEqual(cached, want) {
			t.Fatalf("cached run %d diverged: %+v", run, cached)
		}
	}
}

// TestMapSummaryRejectsCorrupt pins the same exact-once contract on the
// pre-reduced summaries v2 workers return, plus the rep-membership
// invariant (every honest rep is a member of its own cluster).
func TestMapSummaryRejectsCorrupt(t *testing.T) {
	uniques := []int{10, 20, 30, 40}
	cases := []struct {
		name string
		r    ReducedPartition
		ok   bool
	}{
		{"honest", ReducedPartition{Clusters: [][]int{{0, 1, 3}}, Reps: []int{1}, Noise: []int{2}}, true},
		{"rep not a member", ReducedPartition{Clusters: [][]int{{0, 1, 3}}, Reps: []int{2}, Noise: []int{2}}, false},
		{"duplicate member", ReducedPartition{Clusters: [][]int{{0, 1, 1}}, Reps: []int{0}, Noise: []int{2, 3}}, false},
		{"dropped index", ReducedPartition{Clusters: [][]int{{0, 1}}, Reps: []int{0}, Noise: []int{2}}, false},
		{"reps/clusters mismatch", ReducedPartition{Clusters: [][]int{{0, 1, 2, 3}}, Reps: []int{0, 1}}, false},
	}
	for _, tc := range cases {
		s, err := mapSummary(uniques, &tc.r)
		if tc.ok {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
				continue
			}
			if !reflect.DeepEqual(s.clusters, [][]int{{10, 20, 40}}) || !reflect.DeepEqual(s.reps, []int{20}) || !reflect.DeepEqual(s.noise, []int{30}) {
				t.Errorf("%s: mapped summary %+v", tc.name, s)
			}
		} else if err == nil {
			t.Errorf("%s: corrupt summary accepted", tc.name)
		}
	}
}

// TestSweepPairsMatchesNeighborGraph pins the edge-sweep kernel against
// the clustering neighbor graph: a triangular sweep over an index set
// must yield exactly the adjacency the partition stage computes.
func TestSweepPairsMatchesNeighborGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	space := jstoken.SymbolSpace()
	var seqs [][]jstoken.Symbol
	for i := 0; i < 60; i++ {
		n := 20 + rng.Intn(60)
		seq := make([]jstoken.Symbol, n)
		base := rng.Intn(8)
		for j := range seq {
			// Clumpy content so some pairs fall within eps.
			seq[j] = jstoken.Symbol((base + rng.Intn(4)) % space)
		}
		seqs = append(seqs, seq)
	}
	idx := make([]int, len(seqs))
	for i := range idx {
		idx[i] = i
	}
	for _, eps := range []float64{0.05, 0.2, 0.5} {
		adj := neighborGraph(seqs, nil, nil, idx, eps, 3)
		pairs := sweepPairs(seqs, nil, nil, idx, nil, eps, 3)
		fromPairs := make([][]int, len(seqs))
		for _, pr := range pairs {
			if pr[0] >= pr[1] {
				t.Fatalf("eps=%v: pair %v not ascending", eps, pr)
			}
			fromPairs[pr[0]] = append(fromPairs[pr[0]], pr[1])
			fromPairs[pr[1]] = append(fromPairs[pr[1]], pr[0])
		}
		for i := range seqs {
			got := append([]int(nil), fromPairs[i]...)
			want := append([]int(nil), adj.Neighbors(i)...)
			sortInts(got)
			sortInts(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("eps=%v: node %d adjacency %v != neighborGraph %v", eps, i, got, want)
			}
		}
		// Bipartite splits must cover the same cross pairs.
		rows, cols := idx[:20], idx[20:]
		bi := sweepPairs(seqs, nil, nil, rows, cols, eps, 3)
		crossWant := 0
		for _, pr := range pairs {
			if pr[0] < 20 && pr[1] >= 20 {
				crossWant++
			}
		}
		if len(bi) != crossWant {
			t.Fatalf("eps=%v: bipartite sweep found %d pairs, want %d", eps, len(bi), crossWant)
		}
	}
}

// TestBuildEdgeJobsCoverage pins the job chunking: for any fleet size the
// union of job results covers every pair exactly once, triangular and
// bipartite alike.
func TestBuildEdgeJobsCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	space := jstoken.SymbolSpace()
	var seqs [][]jstoken.Symbol
	for i := 0; i < 37; i++ {
		n := 10 + rng.Intn(30)
		seq := make([]jstoken.Symbol, n)
		for j := range seq {
			seq[j] = jstoken.Symbol(rng.Intn(6) % space)
		}
		seqs = append(seqs, seq)
	}
	idx := make([]int, len(seqs))
	for i := range idx {
		idx[i] = i
	}
	const eps = 0.3
	keyFor := func(ui int) SeqKey { return SeqKeyOf(seqs[ui]) }
	for _, fleet := range []int{1, 2, 3, 4, 8, 64} {
		for _, cols := range [][]int{nil, idx[25:]} {
			rows := idx
			if cols != nil {
				rows = idx[:25]
			}
			want, _ := localEdges(&uniqueSet{seqs: seqs}, Config{Eps: eps, Workers: 2}, rows, cols)
			specs := buildEdgeJobs(seqs, rows, cols, eps, fleet, keyFor, nil)
			seen := make(map[[2]int]int)
			for si, spec := range specs {
				el, err := SweepEdges(spec.job, 2, nil)
				if err != nil {
					t.Fatalf("fleet=%d job %d: %v", fleet, si, err)
				}
				for _, pr := range el.Pairs {
					seen[[2]int{spec.mapRow[pr[0]], spec.mapCol[pr[1]]}]++
				}
			}
			if len(seen) != len(want) {
				t.Fatalf("fleet=%d cols=%v: %d distinct pairs, want %d", fleet, cols != nil, len(seen), len(want))
			}
			for _, pr := range want {
				if seen[pr] != 1 {
					t.Fatalf("fleet=%d: pair %v seen %d times", fleet, pr, seen[pr])
				}
			}
		}
	}
}

// TestBuildEdgeJobsPlacementCoverage pins the placement-aware job
// composition: with rows grouped by resident shard (per-group triangles
// plus cross-group rectangles) the union of job results must cover every
// unordered pair exactly once — identical to the unplaced chunking.
// Placed rectangles emit pairs in whichever orientation the group order
// dictates, so triangular coverage is checked order-normalized, exactly
// as streamSession.edges normalizes before handing pairs to the reduce.
func TestBuildEdgeJobsPlacementCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	space := jstoken.SymbolSpace()
	var seqs [][]jstoken.Symbol
	for i := 0; i < 41; i++ {
		n := 10 + rng.Intn(30)
		seq := make([]jstoken.Symbol, n)
		for j := range seq {
			seq[j] = jstoken.Symbol(rng.Intn(6) % space)
		}
		seqs = append(seqs, seq)
	}
	rows := make([]int, len(seqs))
	for i := range rows {
		rows[i] = i
	}
	keyFor := func(ui int) SeqKey { return SeqKeyOf(seqs[ui]) }
	const eps = 0.3
	want, _ := localEdges(&uniqueSet{seqs: seqs}, Config{Eps: eps, Workers: 2}, rows, nil)
	for _, shards := range []int{1, 2, 3, 8} {
		// Scatter rows across shards, with a sprinkle of unplaced (-1)
		// rows — the cold-cache case placement must also cover.
		place := make([]int, len(rows))
		for i := range place {
			place[i] = rng.Intn(shards+1) - 1
		}
		specs := buildEdgeJobs(seqs, rows, nil, eps, shards, keyFor, place)
		seen := make(map[[2]int]int)
		for si, spec := range specs {
			if len(spec.job.Keys) != len(spec.job.Seqs) {
				t.Fatalf("shards=%d job %d: %d keys for %d seqs", shards, si, len(spec.job.Keys), len(spec.job.Seqs))
			}
			el, err := SweepEdges(spec.job, 2, nil)
			if err != nil {
				t.Fatalf("shards=%d job %d: %v", shards, si, err)
			}
			for _, pr := range el.Pairs {
				a, b := spec.mapRow[pr[0]], spec.mapCol[pr[1]]
				if a > b {
					a, b = b, a
				}
				seen[[2]int{a, b}]++
			}
		}
		if len(seen) != len(want) {
			t.Fatalf("shards=%d: %d distinct pairs, want %d", shards, len(seen), len(want))
		}
		for _, pr := range want {
			if seen[pr] != 1 {
				t.Fatalf("shards=%d: pair %v seen %d times", shards, pr, seen[pr])
			}
		}
	}
}

// TestSplitTriangularBounds sanity-checks the triangular chunking.
func TestSplitTriangularBounds(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 27, 100} {
		for _, fleet := range []int{1, 2, 4, 7, 200} {
			b := splitTriangular(n, fleet)
			if len(b) != fleet+1 || b[0] != 0 || b[len(b)-1] != n {
				t.Fatalf("splitTriangular(%d,%d) = %v", n, fleet, b)
			}
			for i := 1; i < len(b); i++ {
				if b[i] < b[i-1] {
					t.Fatalf("splitTriangular(%d,%d) not monotone: %v", n, fleet, b)
				}
			}
		}
	}
}

// TestPackedSeqsRoundTrip pins the wire encoding of edge-job sequences.
func TestPackedSeqsRoundTrip(t *testing.T) {
	in := PackedSeqs{
		symbolSeq("hello world"),
		nil,
		{0, 1, 255, 256, 300},
	}
	data, err := in.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var out PackedSeqs
	if err := out.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d != %d", len(out), len(in))
	}
	for i := range in {
		if !symbolsEqual(in[i], out[i]) {
			t.Fatalf("sequence %d diverged: %v != %v", i, out[i], in[i])
		}
	}
	for _, bad := range []string{`["###"]`, `["QUJD"]`, `[1]`} {
		var p PackedSeqs
		if err := p.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("UnmarshalJSON(%q) accepted invalid input", bad)
		}
	}
}

// TestScheduleSeedPermutesSweepOrder pins the in-process schedule lever
// the certification verifier relies on: with a seed, the reduce sweeps
// reach the executor in a different row/col order than the canonical
// schedule, yet return exactly the canonical pair list — triangular and
// bipartite alike. Seed 0 must leave the order untouched.
func TestScheduleSeedPermutesSweepOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	space := jstoken.SymbolSpace()
	var seqs [][]jstoken.Symbol
	for i := 0; i < 30; i++ {
		seq := make([]jstoken.Symbol, 10+rng.Intn(20))
		for j := range seq {
			seq[j] = jstoken.Symbol(rng.Intn(5) % space)
		}
		seqs = append(seqs, seq)
	}
	u := &uniqueSet{seqs: seqs}
	cfg := Config{Eps: 0.3, Workers: 2}
	var seen [][]int
	recording := func(rows, cols []int) ([][2]int, error) {
		seen = append(seen, append(append([]int(nil), rows...), cols...))
		return localEdges(u, cfg, rows, cols)
	}
	idx := make([]int, len(seqs))
	for i := range idx {
		idx[i] = i
	}
	for _, tc := range []struct {
		name       string
		rows, cols []int
	}{
		{"triangular", idx, nil},
		{"bipartite", idx[:20], idx[20:]},
	} {
		want, _ := localEdges(u, cfg, tc.rows, tc.cols)
		canonical := append(append([]int(nil), tc.rows...), tc.cols...)
		for _, seed := range []int64{0, 1887} {
			seen = nil
			got, err := scheduledEdges(seed, recording)(tc.rows, tc.cols)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed=%d: pairs %v, canonical %v", tc.name, seed, got, want)
			}
			if reordered := !reflect.DeepEqual(seen[0], canonical); reordered != (seed != 0) {
				t.Fatalf("%s seed=%d: sweep order reordered=%v", tc.name, seed, reordered)
			}
		}
	}
}

// TestInProcessScheduleVariants pins the in-process schedule variants: a
// seeded schedule must produce bit-identical results, and a different
// partition fanout (which legitimately changes partition composition)
// must still be deterministic.
func TestInProcessScheduleVariants(t *testing.T) {
	day := ekit.Date(8, 9)
	inputs := dayInputs(t, day, 100)
	base := DefaultConfig()
	base.Workers = 3
	base.PartitionSize = 9 // many partitions

	ref, err := Process(inputs, seededCorpus(day), base)
	if err != nil {
		t.Fatal(err)
	}
	stripTimings(&ref)

	modes := []struct {
		name   string
		mutate func(*Config)
		same   bool
	}{
		{"seeded", func(c *Config) { c.ScheduleSeed = 1887 }, true},
		// Different fanout legitimately changes partition composition (and
		// so may change clusters); it must still be deterministic.
		{"fanout=1", func(c *Config) { c.PartitionFanout = 1 }, false},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			cfg := base
			m.mutate(&cfg)
			got, err := Process(inputs, seededCorpus(day), cfg)
			if err != nil {
				t.Fatal(err)
			}
			stripTimings(&got)
			if m.same {
				if !reflect.DeepEqual(ref.Clusters, got.Clusters) || !reflect.DeepEqual(ref.Signatures, got.Signatures) {
					t.Fatal("schedule changed pipeline output")
				}
				return
			}
			again, err := Process(inputs, seededCorpus(day), cfg)
			if err != nil {
				t.Fatal(err)
			}
			stripTimings(&again)
			if !reflect.DeepEqual(got, again) {
				t.Fatal("mode is not deterministic across runs")
			}
		})
	}
}

func sortInts(s []int) { sort.Ints(s) }

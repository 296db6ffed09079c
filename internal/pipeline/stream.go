package pipeline

import (
	"fmt"
	"sort"
	"sync"

	"kizzle/internal/contentcache"
	"kizzle/internal/ingest"
	"kizzle/internal/jstoken"
	"kizzle/internal/parallel"
)

// This file implements the streaming dispatch of the clustering stage.
// Tokenization, dedup, and partition emission are fused into one pass:
// group representatives are lexed one chunk ahead of the dedup cursor, and
// every time PartitionSize new unique sequences accumulate, the partition
// is emitted immediately — so a shard fleet starts clustering while the
// host is still lexing and deduplicating the tail of the batch. Partition
// content (membership and weights) depends only on the input order, never
// on scheduling, which keeps the pipeline's output bit-identical between
// in-process and fleet execution.

// lexChunkGroups is how many digest groups are lexed per pipeline chunk;
// one chunk is always being lexed while the previous one is deduplicated.
const lexChunkGroups = 64

// defaultPartitionFanout is the default number of concurrently filling
// partition buffers (Config.PartitionFanout).
const defaultPartitionFanout = 8

// emittedPartition records one emitted partition work unit with the unique
// indices behind its wire sequences (for mapping results back).
type emittedPartition struct {
	part    ShardPartition
	uniques []int
}

// clusterSession abstracts where the clustering stage's work units run.
// The pipeline drives both executors through the same calls: partitions
// are submitted as dedup emits them, collect blocks until all partition
// summaries are in, and edges serves the reduce step's distance sweeps.
type clusterSession interface {
	// submitPartition hands over one emitted partition.
	submitPartition(ep emittedPartition)
	// collect returns one summary per submitted partition, in emission
	// order, after every partition result arrived.
	collect(u *uniqueSet) ([]summary, error)
	// edges evaluates within-eps pairs over unique indices (the edgeFunc
	// contract); valid after collect.
	edges(rows, cols []int) ([][2]int, error)
	// close releases session resources; no calls may follow.
	close()
}

// openClusterSession picks the executor: with a Clusterer, partitions
// stream to the fleet as emitted and reduce sweeps are dispatched as edge
// jobs; without one, work units run in-process across cfg.Workers and the
// reduce sweeps run directly over the unique set.
func openClusterSession(cfg Config) clusterSession {
	if cfg.Clusterer != nil {
		return newStreamSession(cfg.Clusterer, cfg)
	}
	return newLocalStreamSession(cfg)
}

// --- digest grouping (stage 1a) ---

// digestGroups groups inputs by content digest, verified byte-for-byte
// within a bucket, so identical raw documents — the bulk of provider
// telemetry — are lexed once and share one symbol slice. Returns the
// groups (input indices, first occurrence order) and each input's group.
func digestGroups(inputs []Input, symKind contentcache.Kind, workers int) (groups [][]int, groupOf []int) {
	n := len(inputs)
	keys := make([]contentcache.Key, n)
	parallel.ForEach(n, workers, 8, func(_, i int) {
		keys[i] = contentcache.KeyOf(symKind, inputs[i].Content)
	})
	groupOf = make([]int, n)
	index := make(map[contentcache.Key][]int, n)
	for i := 0; i < n; i++ {
		found := -1
		for _, g := range index[keys[i]] {
			if inputs[groups[g][0]].Content == inputs[i].Content {
				found = g
				break
			}
		}
		if found < 0 {
			found = len(groups)
			groups = append(groups, nil)
			index[keys[i]] = append(index[keys[i]], found)
		}
		groups[found] = append(groups[found], i)
		groupOf[i] = found
	}
	return groups, groupOf
}

// --- fused lex + dedup + emit (stages 1b–3) ---

// streamOutcome is what the fused stage hands to the reduce step.
type streamOutcome struct {
	u          uniqueSet
	uniqueDocs int
	emitWeight []int // per unique: members at partition emission
	partitions int
}

// runClusterStage lexes group representatives one chunk ahead of the dedup
// cursor, deduplicates inputs in order, and emits a partition to sess
// every time cfg.PartitionSize new uniques accumulate. The partition's
// weights are the members each unique had accumulated when its partition
// was emitted — deterministic in the input order (duplicates of an
// already-dispatched shape still join the cluster via u.members; they just
// no longer vote in that partition's density estimate).
func runClusterStage(inputs []Input, cfg Config, sess clusterSession) streamOutcome {
	prof := cfg.profile()
	symKind := profiledKind(kindRawSymbols, prof)
	groups, groupOf := digestGroups(inputs, symKind, cfg.Workers)
	groupSyms := make([][]jstoken.Symbol, len(groups))

	// Chunked look-ahead lexing: chunk k+1 lexes in the background while
	// the dedup cursor consumes chunk k.
	scratches := make([]ingest.Scratch, cfg.Workers)
	for i := range scratches {
		scratches[i] = prof.NewScratch()
	}
	lexRange := func(start, end int) {
		parallel.ForEach(end-start, cfg.Workers, 1, func(worker, k int) {
			g := start + k
			rep := groups[g][0]
			content := inputs[rep].Content
			key := contentcache.KeyOf(symKind, content)
			if v, ok := cfg.Cache.Get(key, content); ok {
				groupSyms[g] = v.([]jstoken.Symbol)
				return
			}
			syms := scratches[worker].AppendSymbols(nil, content)
			cfg.Cache.PutSized(key, content, syms, 2*len(syms))
			groupSyms[g] = syms
		})
	}
	startLex := func(start, end int) chan struct{} {
		done := make(chan struct{})
		go func() {
			lexRange(start, end)
			close(done)
		}()
		return done
	}

	var out streamOutcome
	out.uniqueDocs = len(groups)
	d := dedupEmitter{
		cfg:      cfg,
		sess:     sess,
		index:    make(map[uint64][]int),
		hashMemo: make(map[*jstoken.Symbol]uint64),
	}

	total := len(groups)
	chunkEnd := min(lexChunkGroups, total)
	done := startLex(0, chunkEnd)
	cursor := 0
	for lexed := 0; lexed < total; {
		<-done
		lexed = chunkEnd
		if lexed < total {
			chunkEnd = min(lexed+lexChunkGroups, total)
			done = startLex(lexed, chunkEnd)
		}
		// Every input whose group is lexed can now be deduplicated; groups
		// are numbered by first occurrence, so those inputs form a prefix.
		limit := len(inputs)
		if lexed < total {
			limit = groups[lexed][0]
		}
		for ; cursor < limit; cursor++ {
			d.insert(cursor, groupSyms[groupOf[cursor]])
		}
	}
	d.flush()
	out.u = d.u
	out.emitWeight = d.emitWeight
	out.partitions = d.partitions
	return out
}

// dedupEmitter deduplicates symbol sequences in input order and emits
// fixed-size partitions of new uniques as they accumulate. New uniques
// are scattered round-robin across PartitionFanout open buffers — the
// streaming stand-in for the paper's random partitioning: consecutive
// stream samples (often one family's near-identical variants) land in
// different partitions, keeping each partition's pair tests mostly
// prunable by the length/histogram bounds and leaving the cross-partition
// reconciliation to the (distributed) reduce.
type dedupEmitter struct {
	cfg        Config
	sess       clusterSession
	u          uniqueSet
	index      map[uint64][]int
	hashMemo   map[*jstoken.Symbol]uint64
	buffers    [][]int // open partition buffers, filled round-robin
	next       int     // next buffer to receive a unique
	emitWeight []int
	partitions int
}

func (d *dedupEmitter) insert(input int, seq []jstoken.Symbol) {
	var h uint64
	if len(seq) == 0 {
		h = hashSeq(seq)
	} else if v, ok := d.hashMemo[&seq[0]]; ok {
		h = v
	} else {
		h = hashSeq(seq)
		d.hashMemo[&seq[0]] = h
	}
	found := -1
	for _, u := range d.index[h] {
		if symbolsEqual(d.u.seqs[u], seq) {
			found = u
			break
		}
	}
	if found >= 0 {
		d.u.members[found] = append(d.u.members[found], input)
		return
	}
	found = len(d.u.seqs)
	d.u.seqs = append(d.u.seqs, seq)
	d.u.members = append(d.u.members, []int{input})
	d.u.ids = append(d.u.ids, seqID{h1: h, h2: altHashSeq(seq), n: len(seq)})
	d.emitWeight = append(d.emitWeight, 0)
	d.index[h] = append(d.index[h], found)
	if d.buffers == nil {
		fan := d.cfg.PartitionFanout
		if fan < 1 {
			fan = defaultPartitionFanout
		}
		d.buffers = make([][]int, fan)
	}
	b := d.next
	d.next = (d.next + 1) % len(d.buffers)
	d.buffers[b] = append(d.buffers[b], found)
	if len(d.buffers[b]) >= d.cfg.PartitionSize {
		d.emit(b)
	}
}

// emit dispatches buffer b as one partition, snapshotting each unique's
// member count as its clustering weight.
func (d *dedupEmitter) emit(b int) {
	pending := d.buffers[b]
	d.buffers[b] = nil
	part := ShardPartition{
		Seqs:    make([][]jstoken.Symbol, len(pending)),
		Weights: make([]int, len(pending)),
	}
	for k, ui := range pending {
		part.Seqs[k] = d.u.seqs[ui]
		part.Weights[k] = len(d.u.members[ui])
		d.emitWeight[ui] = part.Weights[k]
	}
	d.partitions++
	d.sess.submitPartition(emittedPartition{part: part, uniques: pending})
}

// flush emits every remaining non-empty buffer in order.
func (d *dedupEmitter) flush() {
	for b := range d.buffers {
		if len(d.buffers[b]) > 0 {
			d.emit(b)
		}
	}
}

// --- in-process sessions ---

// localStreamSession executes work units in-process across cfg.Workers
// goroutines, overlapping clustering with the host's lex/dedup loop the
// same way a remote fleet would.
type localStreamSession struct {
	cfg       Config
	u         *uniqueSet
	work      chan WorkUnit
	collected *resultCollector
	emitted   []emittedPartition
	nextSeq   int
}

func newLocalStreamSession(cfg Config) *localStreamSession {
	work := make(chan WorkUnit)
	return &localStreamSession{
		cfg:       cfg,
		work:      work,
		collected: newResultCollector(localClusterStream(work, cfg)),
	}
}

func (s *localStreamSession) submitPartition(ep emittedPartition) {
	s.emitted = append(s.emitted, ep)
	part := ep.part
	s.work <- WorkUnit{Seq: s.nextSeq, Partition: &part}
	s.nextSeq++
}

func (s *localStreamSession) collect(u *uniqueSet) ([]summary, error) {
	s.u = u
	return collectSummaries(s.collected, s.emitted)
}

func (s *localStreamSession) edges(rows, cols []int) ([][2]int, error) {
	// In-process reduce sweeps run directly over the unique set with the
	// shared parallel kernel; no work units are involved.
	return localEdges(s.u, s.cfg, rows, cols)
}

func (s *localStreamSession) close() {
	close(s.work)
	s.collected.drain()
}

// localEdges is the in-process edgeFunc over the unique set.
func localEdges(u *uniqueSet, cfg Config, rows, cols []int) ([][2]int, error) {
	return sweepPairs(u.seqs, u.ids, cfg.Cache, rows, cols, cfg.Eps, cfg.Workers), nil
}

// --- remote streaming session ---

// streamSession drives a Clusterer: partitions flow to the fleet as
// dedup emits them, and the reduce step's distance sweeps are fanned out
// as edge jobs over the same stream.
type streamSession struct {
	cfg       Config
	sc        Clusterer
	u         *uniqueSet
	work      chan WorkUnit
	collected *resultCollector
	emitted   []emittedPartition
	nextSeq   int
	// keyOf memoizes each unique's content address: computed once when its
	// partition is emitted, reused by every edge sweep that references it.
	keyOf map[int]SeqKey
}

func newStreamSession(sc Clusterer, cfg Config) *streamSession {
	work := make(chan WorkUnit)
	return &streamSession{
		cfg:       cfg,
		sc:        sc,
		work:      work,
		collected: newResultCollector(sc.ClusterStream(work, cfg)),
		keyOf:     make(map[int]SeqKey),
	}
}

func (s *streamSession) submitPartition(ep emittedPartition) {
	s.emitted = append(s.emitted, ep)
	part := ep.part
	// Content addresses ride along so the coordinator can record which
	// worker turned resident for which sequences; they never go on the
	// wire (json:"-").
	part.Keys = make([]SeqKey, len(part.Seqs))
	for k, ui := range ep.uniques {
		key := SeqKeyOf(part.Seqs[k])
		part.Keys[k] = key
		s.keyOf[ui] = key
	}
	s.work <- WorkUnit{Seq: s.nextSeq, Partition: &part}
	s.nextSeq++
}

// seqKey returns the memoized content address of a unique sequence.
func (s *streamSession) seqKey(ui int) SeqKey {
	if key, ok := s.keyOf[ui]; ok {
		return key
	}
	key := SeqKeyOf(s.u.seqs[ui])
	s.keyOf[ui] = key
	return key
}

func (s *streamSession) collect(u *uniqueSet) ([]summary, error) {
	s.u = u
	return collectSummaries(s.collected, s.emitted)
}

// edges splits the sweep into jobs, submits them over the open stream,
// and reassembles the pair list in deterministic order. Jobs are composed
// from rows the Clusterer places on the same worker — within-group
// triangles plus cross-group rectangles — so routing ships near-zero
// sequence bytes for warm groups; rows with no known placement are split
// to balance pair counts across the fleet. Either way the pair set is
// independent of the chunking, so placement and fleet size cannot change
// the result.
func (s *streamSession) edges(rows, cols []int) ([][2]int, error) {
	if len(rows) == 0 || (cols != nil && len(cols) == 0) {
		return nil, nil
	}
	specs := buildEdgeJobs(s.u.seqs, rows, cols, s.cfg.Eps, s.sc.StreamWorkers(), s.seqKey, s.placeRows(rows))
	first := s.nextSeq
	for i := range specs {
		job := specs[i].job
		s.work <- WorkUnit{Seq: s.nextSeq, Edges: &job}
		s.nextSeq++
	}
	results, err := s.collected.await(first, len(specs))
	if err != nil {
		return nil, err
	}
	var out [][2]int
	for i, r := range results {
		if r.Edges == nil {
			return nil, fmt.Errorf("edge job %d: result carries no pairs", i)
		}
		spec := specs[i]
		for _, pr := range r.Edges.Pairs {
			if pr[0] < 0 || pr[0] >= len(spec.mapRow) || pr[1] < 0 || pr[1] >= len(spec.mapCol) {
				return nil, fmt.Errorf("edge job %d: pair (%d,%d) outside job bounds", i, pr[0], pr[1])
			}
			a, b := spec.mapRow[pr[0]], spec.mapCol[pr[1]]
			if cols == nil && a > b {
				// Placement-grouped rectangles can pair a later row with an
				// earlier one; normalize so triangular sweeps keep the
				// ascending-pair contract regardless of grouping.
				a, b = b, a
			}
			out = append(out, [2]int{a, b})
		}
	}
	sortPairs(out)
	return out, nil
}

// placeRows asks the Clusterer where each row's sequence is resident.
func (s *streamSession) placeRows(rows []int) []int {
	keys := make([]SeqKey, len(rows))
	for i, ui := range rows {
		keys[i] = s.seqKey(ui)
	}
	return s.sc.PlaceRows(keys)
}

func (s *streamSession) close() {
	close(s.work)
	s.collected.drain()
}

// edgeJobSpec pairs a wire job with the mapping from its local pair
// positions back to the caller's row/col positions.
type edgeJobSpec struct {
	job    EdgeJob
	mapRow []int
	mapCol []int
}

// makeEdgeSpec assembles one wire job from row/col positions (positions
// into the caller's rows and cols slices; colPos nil means triangular).
// keyFor attaches each shipped sequence's content address for
// digest-first dispatch.
func makeEdgeSpec(seqs [][]jstoken.Symbol, rows, cols []int, eps float64, keyFor func(int) SeqKey, rowPos, colPos []int) edgeJobSpec {
	nr, nc := len(rowPos), len(colPos)
	jobSeqs := make(PackedSeqs, nr+nc)
	keys := make([]SeqKey, nr+nc)
	jobRows := make([]int, nr)
	mapRow := make([]int, nr)
	for k, p := range rowPos {
		ui := rows[p]
		jobSeqs[k] = seqs[ui]
		keys[k] = keyFor(ui)
		jobRows[k] = k
		mapRow[k] = p
	}
	if colPos == nil {
		return edgeJobSpec{
			job:    EdgeJob{Eps: eps, Seqs: jobSeqs, Rows: jobRows, Keys: keys},
			mapRow: mapRow,
			mapCol: mapRow,
		}
	}
	jobCols := make([]int, nc)
	mapCol := make([]int, nc)
	for k, p := range colPos {
		ui := cols[p]
		jobSeqs[nr+k] = seqs[ui]
		keys[nr+k] = keyFor(ui)
		jobCols[k] = nr + k
		mapCol[k] = p
	}
	return edgeJobSpec{
		job:    EdgeJob{Eps: eps, Seqs: jobSeqs, Rows: jobRows, Cols: jobCols, Keys: keys},
		mapRow: mapRow,
		mapCol: mapCol,
	}
}

// groupByPlace buckets row positions by their placement shard, ascending
// shard order with the unknown group (-1) last. Positions within a group
// stay ascending, so grouping is deterministic in the placement.
func groupByPlace(place []int) [][]int {
	byShard := make(map[int][]int)
	var shards []int
	for pos, s := range place {
		if _, ok := byShard[s]; !ok {
			shards = append(shards, s)
		}
		byShard[s] = append(byShard[s], pos)
	}
	sort.Slice(shards, func(a, b int) bool {
		// -1 (unknown) sorts last.
		if (shards[a] < 0) != (shards[b] < 0) {
			return shards[b] < 0
		}
		return shards[a] < shards[b]
	})
	groups := make([][]int, len(shards))
	for i, s := range shards {
		groups[i] = byShard[s]
	}
	return groups
}

// buildEdgeJobs splits a sweep over unique indices into wire jobs. With
// placement knowledge (place non-nil, aligned with rows, at least two
// groups) jobs follow locality: one triangle per resident group plus one
// rectangle per group pair, so each job's rows live together on one
// worker and routing ships only cold bytes. Without placement,
// a triangular sweep is chunked by pair count — each chunk [lo,hi)
// yields a within-chunk triangle plus a chunk×tail rectangle — and
// bipartite sweeps split rows evenly. Every unordered pair lands in
// exactly one job under either composition, so the result is identical;
// each job ships only the sequences it references.
func buildEdgeJobs(seqs [][]jstoken.Symbol, rows, cols []int, eps float64, fleet int, keyFor func(int) SeqKey, place []int) []edgeJobSpec {
	if fleet < 1 {
		fleet = 1
	}
	var specs []edgeJobSpec
	if len(place) == len(rows) {
		if groups := groupByPlace(place); len(groups) >= 2 {
			if cols == nil {
				for gi, g := range groups {
					if len(g) >= 2 {
						specs = append(specs, makeEdgeSpec(seqs, rows, nil, eps, keyFor, g, nil))
					}
					for gj := gi + 1; gj < len(groups); gj++ {
						// Cross-group rectangle (cols drawn from rows).
						specs = append(specs, makeEdgeSpec(seqs, rows, rows, eps, keyFor, g, groups[gj]))
					}
				}
			} else {
				allCols := make([]int, len(cols))
				for k := range allCols {
					allCols[k] = k
				}
				for _, g := range groups {
					specs = append(specs, makeEdgeSpec(seqs, rows, cols, eps, keyFor, g, allCols))
				}
			}
			return specs
		}
	}
	if cols == nil {
		bounds := splitTriangular(len(rows), fleet)
		for c := 0; c+1 < len(bounds); c++ {
			lo, hi := bounds[c], bounds[c+1]
			if lo >= hi {
				continue
			}
			chunk := make([]int, hi-lo)
			for k := range chunk {
				chunk[k] = lo + k
			}
			// Within-chunk triangle.
			if hi-lo >= 2 {
				specs = append(specs, makeEdgeSpec(seqs, rows, nil, eps, keyFor, chunk, nil))
			}
			// Chunk × tail rectangle.
			if hi < len(rows) {
				tail := make([]int, len(rows)-hi)
				for k := range tail {
					tail[k] = hi + k
				}
				specs = append(specs, makeEdgeSpec(seqs, rows, rows, eps, keyFor, chunk, tail))
			}
		}
		return specs
	}
	// Bipartite: split rows evenly; every job ships the full col set.
	allCols := make([]int, len(cols))
	for k := range allCols {
		allCols[k] = k
	}
	chunk := (len(rows) + fleet - 1) / fleet
	for lo := 0; lo < len(rows); lo += chunk {
		hi := lo + chunk
		if hi > len(rows) {
			hi = len(rows)
		}
		rowPos := make([]int, hi-lo)
		for k := range rowPos {
			rowPos[k] = lo + k
		}
		specs = append(specs, makeEdgeSpec(seqs, rows, cols, eps, keyFor, rowPos, allCols))
	}
	return specs
}

// SeededPerm returns a deterministic Fisher–Yates permutation of [0,n)
// driven by a splitmix64 stream over seed. Shared by the reduce sweeps'
// schedule permutation (scheduledEdges) and the shard coordinator's so a
// single seed names one reproducible alternative schedule.
func SeededPerm(n int, seed uint64) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	x := seed
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// splitTriangular returns fleet+1 ascending boundaries over [0,n) chosen
// so each chunk covers a near-equal share of the triangular pair count
// (row i partners with n-1-i later rows).
func splitTriangular(n, fleet int) []int {
	total := n * (n - 1) / 2
	bounds := []int{0}
	acc, next := 0, 1
	for i := 0; i < n && next < fleet; i++ {
		acc += n - 1 - i
		if acc*fleet >= total*next {
			bounds = append(bounds, i+1)
			next++
		}
	}
	for len(bounds) < fleet+1 {
		bounds = append(bounds, n)
	}
	return bounds
}

// localClusterStream is the in-process Clusterer executor: work
// units are pulled from the channel by cfg.Workers goroutines. Exactly the
// remote fleet's pull-queue shape, minus the wire.
func localClusterStream(work <-chan WorkUnit, cfg Config) <-chan WorkResult {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	out := make(chan WorkResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for unit := range work {
				out <- execLocalUnit(unit, cfg)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// execLocalUnit executes one work unit in-process.
func execLocalUnit(unit WorkUnit, cfg Config) WorkResult {
	switch {
	case unit.Partition != nil:
		sc := ClusterPartition(*unit.Partition, cfg)
		red := PreReducePartition(*unit.Partition, sc, cfg)
		return WorkResult{Seq: unit.Seq, Reduced: &red}
	case unit.Edges != nil:
		el, err := SweepEdges(*unit.Edges, cfg.Workers, cfg.Cache)
		if err != nil {
			return WorkResult{Seq: unit.Seq, Err: err}
		}
		return WorkResult{Seq: unit.Seq, Edges: &el}
	default:
		return WorkResult{Seq: unit.Seq, Err: fmt.Errorf("pipeline: empty work unit %d", unit.Seq)}
	}
}

// --- result collection ---

// resultCollector drains a result channel in the background and lets the
// driver wait for specific sequence numbers without deadlocking the
// executor's result sends.
type resultCollector struct {
	mu      sync.Mutex
	got     map[int]WorkResult
	firstE  error
	closed  bool
	changed chan struct{}
}

func newResultCollector(results <-chan WorkResult) *resultCollector {
	c := &resultCollector{
		got:     make(map[int]WorkResult),
		changed: make(chan struct{}),
	}
	go func() {
		for r := range results {
			c.mu.Lock()
			c.got[r.Seq] = r
			if r.Err != nil && c.firstE == nil {
				c.firstE = fmt.Errorf("work unit %d: %w", r.Seq, r.Err)
			}
			c.notifyLocked()
			c.mu.Unlock()
		}
		c.mu.Lock()
		c.closed = true
		c.notifyLocked()
		c.mu.Unlock()
	}()
	return c
}

func (c *resultCollector) notifyLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// await blocks until every seq in [first, first+n) has a result (or the
// stream failed) and returns them in order.
func (c *resultCollector) await(first, n int) ([]WorkResult, error) {
	for {
		c.mu.Lock()
		if c.firstE != nil {
			err := c.firstE
			c.mu.Unlock()
			return nil, err
		}
		have := 0
		for i := first; i < first+n; i++ {
			if _, ok := c.got[i]; ok {
				have++
			} else {
				break
			}
		}
		if have == n {
			out := make([]WorkResult, n)
			for i := 0; i < n; i++ {
				out[i] = c.got[first+i]
			}
			c.mu.Unlock()
			return out, nil
		}
		if c.closed {
			c.mu.Unlock()
			return nil, fmt.Errorf("pipeline: result stream closed with %d of %d results", have, n)
		}
		ch := c.changed
		c.mu.Unlock()
		<-ch
	}
}

// drain waits for the underlying channel to close (after the work channel
// has been closed), so no executor goroutine is left blocked.
func (c *resultCollector) drain() {
	for {
		c.mu.Lock()
		closed := c.closed
		ch := c.changed
		c.mu.Unlock()
		if closed {
			return
		}
		<-ch
	}
}

// collectSummaries awaits every partition result and maps the summaries to
// unique indices.
func collectSummaries(c *resultCollector, emitted []emittedPartition) ([]summary, error) {
	results, err := c.await(0, len(emitted))
	if err != nil {
		return nil, err
	}
	sums := make([]summary, len(emitted))
	for pi, r := range results {
		if r.Reduced == nil {
			return nil, fmt.Errorf("partition %d: result carries no summary", pi)
		}
		s, err := mapSummary(emitted[pi].uniques, r.Reduced)
		if err != nil {
			return nil, fmt.Errorf("partition %d: %w", pi, err)
		}
		sums[pi] = s
	}
	return sums, nil
}

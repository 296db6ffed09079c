package shardcoord

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"kizzle/internal/pipeline"
)

// Transport delivers work to one shard. Implementations must be safe for
// concurrent use across shards.
type Transport interface {
	// Shards reports how many shard workers are reachable.
	Shards() int
	// Partition clusters and pre-reduces one partition on the given shard
	// (0 ≤ shard < Shards).
	Partition(ctx context.Context, shard int, req *PartitionRequest) (*PartitionResponse, error)
	// EdgesV3 runs one digest-first distance sweep on the given shard.
	EdgesV3(ctx context.Context, shard int, req *EdgeRequestV3) (*EdgeResponseV3, error)
}

// Coordinator implements pipeline.Clusterer over a Transport: shards pull
// work units from a shared queue (one unit in flight per shard — an idle
// machine immediately takes the next unit, so skewed costs still
// balance). Units are consumed as the pipeline emits them — partitions
// while the host is still deduplicating, then the reduce step's edge
// sweeps — and results are matched back by sequence number, so arrival
// order never affects output.
type Coordinator struct {
	transport Transport
	// retries is how many times a failed unit is retried on the next
	// shard (round-robin) before the stream fails.
	retries int
	// sequential processes units one after another (profiling mode)
	// instead of concurrently.
	sequential bool

	// schedSeed/shardPerm implement the seeded schedule permutation: the
	// pull queue's shard choice is relabeled through a fixed seeded
	// permutation, so a certification verifier's run schedules work onto
	// different machines than the canonical run. Results are matched back
	// by sequence number, so the relabeling cannot change output.
	schedSeed int64
	shardPerm []int
	// resident maps each sequence key to a bitmask of shards believed to
	// hold it (bit s = shard s; shards ≥64 are never tracked). "Believed"
	// because workers evict and die — the edge protocol's refill round
	// corrects stale entries, and invalidateShard drops a shard's bits
	// after a dispatch failure.
	affMu    sync.Mutex
	resident map[pipeline.SeqKey]uint64

	schedMu    sync.Mutex
	schedTotal ScheduleStats
}

// ScheduleStats accumulates the simulated fleet schedule measured under
// sequential dispatch (see WithSequentialDispatch): per-shard busy time,
// and the modeled makespan — when the last work unit would have finished
// on a real fleet, given each unit's measured cost, its host-side
// availability time, and a barrier before each reduce wave. Divide by
// Runs for per-batch numbers.
type ScheduleStats struct {
	// Busy is accumulated execution time per shard.
	Busy []time.Duration
	// Makespan models the fleet's clustering+reduce critical path: work
	// units start no earlier than the host emitted them, each shard runs
	// one unit at a time, and each reduce wave starts only after the
	// previous wave completed.
	Makespan time.Duration
	// PartitionUnits and EdgeUnits count executed work units.
	PartitionUnits int
	EdgeUnits      int
	// Runs counts completed streams folded into the totals.
	Runs int
}

// CoordinatorOption configures a Coordinator.
type CoordinatorOption func(*Coordinator)

// WithRetries sets how many alternative shards a failed work unit is
// retried on before the whole stream errors (default 1: one failover).
func WithRetries(n int) CoordinatorOption {
	return func(c *Coordinator) { c.retries = n }
}

// WithSchedulePermutation relabels every pull-queue shard choice through
// a seeded deterministic permutation (0 keeps the canonical schedule).
// This is a diversity lever for dual-path certification: the verify run
// lands work units on different shards than the primary run while the
// sequence-number result matching keeps the output bit-identical — so a
// worker that misbehaves only for particular units cannot corrupt both
// paths the same way.
func WithSchedulePermutation(seed int64) CoordinatorOption {
	return func(c *Coordinator) { c.schedSeed = seed }
}

// WithSequentialDispatch dispatches one work unit at a time, assigning
// each to the shard that would be idle first in a simulated fleet
// schedule (arrival-aware: a unit never starts before the host emitted
// it). This is a profiling mode: per-shard busy times and the modeled
// makespan measured under sequential dispatch are undistorted by CPU
// time-slicing among loopback workers, which is how
// BenchmarkPipelineSharded computes the distributed critical path — the
// wall-clock an N-machine fleet would see — on a host with fewer cores
// than shards. Results are identical to concurrent dispatch.
func WithSequentialDispatch() CoordinatorOption {
	return func(c *Coordinator) { c.sequential = true }
}

// NewCoordinator builds a coordinator over a transport.
func NewCoordinator(t Transport, opts ...CoordinatorOption) *Coordinator {
	c := &Coordinator{transport: t, retries: 1, resident: make(map[pipeline.SeqKey]uint64)}
	for _, opt := range opts {
		opt(c)
	}
	if c.schedSeed != 0 && t.Shards() > 1 {
		c.shardPerm = pipeline.SeededPerm(t.Shards(), uint64(c.schedSeed))
	}
	return c
}

// permShard applies the seeded schedule permutation to a pull-queue
// shard choice (identity without one).
func (c *Coordinator) permShard(s int) int {
	if c.shardPerm == nil {
		return s
	}
	return c.shardPerm[s%len(c.shardPerm)]
}

// StreamWorkers reports the fleet size (pipeline.Clusterer).
func (c *Coordinator) StreamWorkers() int { return c.transport.Shards() }

// WireBytes reports the transport's cumulative wire traffic (total and
// edge-path bytes) when the transport counts it, zeros otherwise. The
// pipeline surfaces the numbers as Stats.WireBytes / Stats.EdgeWireBytes.
func (c *Coordinator) WireBytes() (total, edges int64) {
	if wb, ok := c.transport.(interface{ WireBytes() (int64, int64) }); ok {
		return wb.WireBytes()
	}
	return 0, 0
}

// PlaceRows implements pipeline.Clusterer: for each key, the shard
// believed to hold that sequence (lowest set residency bit), or -1. The
// pipeline uses the placement to compose shard-pure edge jobs — per-group
// triangles plus cross-group rectangles — so that a routed job finds
// (nearly) all of its bytes already resident.
func (c *Coordinator) PlaceRows(keys []pipeline.SeqKey) []int {
	out := make([]int, len(keys))
	c.affMu.Lock()
	for i, k := range keys {
		out[i] = -1
		if m := c.resident[k]; m != 0 {
			out[i] = bits.TrailingZeros64(m)
		}
	}
	c.affMu.Unlock()
	return out
}

// recordResident marks every key as resident on the shard after a round
// trip that shipped (or confirmed) the sequences there: a clustered
// partition or an edge job.
func (c *Coordinator) recordResident(shard int, keys []pipeline.SeqKey) {
	if shard >= 64 || len(keys) == 0 {
		return
	}
	mask := uint64(1) << shard
	c.affMu.Lock()
	for _, k := range keys {
		c.resident[k] |= mask
	}
	c.affMu.Unlock()
}

// invalidateShard forgets everything believed resident on a shard. Called
// after a dispatch failure there: the worker may have died, and a
// restarted worker starts with an empty resident set.
func (c *Coordinator) invalidateShard(shard int) {
	if shard >= 64 {
		return
	}
	keep := ^(uint64(1) << shard)
	c.affMu.Lock()
	for k, m := range c.resident {
		if nm := m & keep; nm != m {
			if nm == 0 {
				delete(c.resident, k)
			} else {
				c.resident[k] = nm
			}
		}
	}
	c.affMu.Unlock()
}

// routeUnit picks the shard for a work unit: for an edge job with content
// keys, the shard holding the most resident bytes (ties to the lowest
// shard); otherwise the caller's fallback (the pull queue's choice).
// Routing runs before execution so the schedule model attributes the
// unit's cost to the shard that actually served it.
func (c *Coordinator) routeUnit(unit pipeline.WorkUnit, fallback int) int {
	fallback = c.permShard(fallback)
	if unit.Edges == nil {
		return fallback
	}
	shards := c.transport.Shards()
	if shards > 64 {
		shards = 64
	}
	var held [64]int64
	c.affMu.Lock()
	for _, k := range unit.Edges.Keys {
		m := c.resident[k]
		for m != 0 {
			s := bits.TrailingZeros64(m)
			m &^= uint64(1) << s
			if s < shards {
				held[s] += int64(k.WireBytes())
			}
		}
	}
	c.affMu.Unlock()
	best, bestBytes := fallback, int64(0)
	for s := 0; s < shards; s++ {
		if held[s] > bestBytes {
			best, bestBytes = s, held[s]
		}
	}
	return best
}

// ScheduleTotals returns the accumulated sequential-dispatch schedule
// model and resets the accumulator.
func (c *Coordinator) ScheduleTotals() ScheduleStats {
	c.schedMu.Lock()
	defer c.schedMu.Unlock()
	out := c.schedTotal
	out.Busy = append([]time.Duration(nil), c.schedTotal.Busy...)
	c.schedTotal = ScheduleStats{}
	return out
}

// ClusterStream consumes work units as the pipeline emits them and
// returns one result per unit (pipeline.Clusterer). Partition units are
// clustered and pre-reduced on the shard, edge units run the reduce's
// distance sweeps. After a terminal failure every subsequent unit is
// drained with the root error attached, so the pipeline never blocks.
func (c *Coordinator) ClusterStream(work <-chan pipeline.WorkUnit, cfg pipeline.Config) <-chan pipeline.WorkResult {
	out := make(chan pipeline.WorkResult)
	shards := c.transport.Shards()
	if shards < 1 {
		go func() {
			err := fmt.Errorf("shardcoord: transport has no shards")
			for unit := range work {
				out <- pipeline.WorkResult{Seq: unit.Seq, Err: err}
			}
			close(out)
		}()
		return out
	}
	if c.sequential {
		go c.streamSequential(work, cfg, out, shards)
	} else {
		go c.streamConcurrent(work, cfg, out, shards)
	}
	return out
}

// streamConcurrent runs the shared pull queue: each shard goroutine takes
// the next unit the moment it finishes its current one.
func (c *Coordinator) streamConcurrent(work <-chan pipeline.WorkUnit, cfg pipeline.Config, out chan<- pipeline.WorkResult, shards int) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var errOnce sync.Once
	var firstErr atomic.Value // error
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for unit := range work {
				// Affinity may override the pull queue's shard. The goroutine
				// then acts as a dispatcher for the routed shard — transports
				// are concurrency-safe, and shard-pure job composition keeps
				// the preferences spread, so the pull model still balances.
				res := c.executeUnit(ctx, c.routeUnit(unit, shard), unit, cfg)
				if res.Err != nil {
					errOnce.Do(func() {
						firstErr.Store(res.Err)
						cancel()
					})
					// Attach the root cause, not a cascading cancellation.
					res.Err = firstErr.Load().(error)
				}
				out <- res
			}
		}(s)
	}
	wg.Wait()
	close(out)
}

// streamSequential executes units inline, one at a time, while modeling
// the fleet schedule: each unit is assigned to the simulated
// earliest-free shard, starting no earlier than the host emitted it
// (unit.Emitted), with a barrier before each reduce wave (unit.Wave).
func (c *Coordinator) streamSequential(work <-chan pipeline.WorkUnit, cfg pipeline.Config, out chan<- pipeline.WorkResult, shards int) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stats := ScheduleStats{Busy: make([]time.Duration, shards)}
	free := make([]time.Duration, shards) // simulated per-shard finish times
	wave := 0
	var waveBase time.Duration
	var firstErr error
	for unit := range work {
		if firstErr != nil {
			out <- pipeline.WorkResult{Seq: unit.Seq, Err: firstErr}
			continue
		}
		if unit.Wave != wave {
			// Wave barrier: a reduce sweep starts only after everything
			// before it completed.
			wave = unit.Wave
			waveBase = 0
			for _, f := range free {
				if f > waveBase {
					waveBase = f
				}
			}
		}
		arrival := time.Duration(unit.Emitted)
		if unit.Wave > 0 {
			arrival = waveBase
		}
		shard := 0
		for s := 1; s < shards; s++ {
			if free[s] < free[shard] {
				shard = s
			}
		}
		// Affinity overrides earliest-free for keyed edge jobs, and does so
		// before execution so busy time and makespan charge the routed shard.
		shard = c.routeUnit(unit, shard)
		start := time.Now()
		res := c.executeUnit(ctx, shard, unit, cfg)
		cost := time.Since(start)
		if res.Err != nil {
			firstErr = res.Err
			out <- res
			continue
		}
		simStart := arrival
		if free[shard] > simStart {
			simStart = free[shard]
		}
		free[shard] = simStart + cost
		stats.Busy[shard] += cost
		if unit.Partition != nil {
			stats.PartitionUnits++
		} else {
			stats.EdgeUnits++
		}
		out <- res
	}
	for _, f := range free {
		if f > stats.Makespan {
			stats.Makespan = f
		}
	}
	stats.Runs = 1
	c.schedMu.Lock()
	if len(c.schedTotal.Busy) != shards {
		c.schedTotal.Busy = make([]time.Duration, shards)
	}
	for s := range free {
		c.schedTotal.Busy[s] += stats.Busy[s]
	}
	c.schedTotal.Makespan += stats.Makespan
	c.schedTotal.PartitionUnits += stats.PartitionUnits
	c.schedTotal.EdgeUnits += stats.EdgeUnits
	c.schedTotal.Runs++
	c.schedMu.Unlock()
	close(out)
}

// executeUnit runs one work unit on (nominally) the given shard, with
// failover to subsequent shards.
func (c *Coordinator) executeUnit(ctx context.Context, shard int, unit pipeline.WorkUnit, cfg pipeline.Config) pipeline.WorkResult {
	switch {
	case unit.Partition != nil:
		req := &PartitionRequest{
			Eps:       cfg.Eps,
			MinPts:    cfg.MinPts,
			Partition: *unit.Partition,
			Profile:   cfg.ProfileID(),
		}
		resp, served, err := c.dispatchPartition(ctx, shard, req)
		if err != nil {
			return pipeline.WorkResult{Seq: unit.Seq, Err: fmt.Errorf("partition unit %d on shard %d: %w", unit.Seq, shard, err)}
		}
		c.recordResident(served, unit.Partition.Keys)
		// The summary is untrusted wire data; the pipeline validates it
		// before mapping its indices.
		return pipeline.WorkResult{Seq: unit.Seq, Reduced: &resp.Reduced}
	case unit.Edges != nil:
		el, err := c.dispatchEdgeJob(ctx, shard, unit.Edges, cfg.ProfileID())
		if err != nil {
			return pipeline.WorkResult{Seq: unit.Seq, Err: fmt.Errorf("edge unit %d on shard %d: %w", unit.Seq, shard, err)}
		}
		return pipeline.WorkResult{Seq: unit.Seq, Edges: el}
	default:
		return pipeline.WorkResult{Seq: unit.Seq, Err: fmt.Errorf("shardcoord: empty work unit %d", unit.Seq)}
	}
}

// dispatchPartition sends one partition request, failing over to
// subsequent shards up to the retry budget. A dead worker therefore slows
// the stream rather than killing it. Returns the shard that actually
// served the request so residency is recorded against it.
func (c *Coordinator) dispatchPartition(ctx context.Context, shard int, req *PartitionRequest) (*PartitionResponse, int, error) {
	shards := c.transport.Shards()
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
		s := (shard + attempt) % shards
		resp, err := c.transport.Partition(ctx, s, req)
		if err == nil {
			return resp, s, nil
		}
		lastErr = err
		c.invalidateShard(s)
	}
	return nil, 0, lastErr
}

// dispatchEdgeJob sends one digest-first edge job, failing over to
// subsequent shards up to the retry budget. Per shard the protocol is two
// rounds at most: round 0 fills only the sequences the residency map says
// the shard lacks; if the worker still reports misses (it evicted, or died
// and restarted since the map was recorded), round 1 fills every position
// — a worker resolves fills before its resident set, so a second-round
// miss is impossible on a correct worker and is treated as a shard
// failure.
func (c *Coordinator) dispatchEdgeJob(ctx context.Context, shard int, job *pipeline.EdgeJob, profile string) (*pipeline.EdgeList, error) {
	if len(job.Keys) != len(job.Seqs) {
		return nil, fmt.Errorf("shardcoord: edge job carries %d keys for %d sequences", len(job.Keys), len(job.Seqs))
	}
	shards := c.transport.Shards()
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		s := (shard + attempt) % shards
		el, err := c.sweepOn(ctx, s, job, profile)
		if err == nil {
			c.recordResident(s, job.Keys)
			return el, nil
		}
		lastErr = err
		c.invalidateShard(s)
	}
	return nil, lastErr
}

// sweepOn runs one edge job on one shard: fills for the keys the
// residency map does not place there, then a full refill if the worker
// reports misses.
func (c *Coordinator) sweepOn(ctx context.Context, shard int, job *pipeline.EdgeJob, profile string) (*pipeline.EdgeList, error) {
	req := &EdgeRequestV3{Eps: job.Eps, Keys: job.Keys, Rows: job.Rows, Cols: job.Cols, Profile: profile}
	var mask uint64
	if shard < 64 {
		mask = uint64(1) << shard
	}
	c.affMu.Lock()
	for i, k := range job.Keys {
		if c.resident[k]&mask == 0 {
			req.FillAt = append(req.FillAt, i)
			req.Fill = append(req.Fill, job.Seqs[i])
		}
	}
	c.affMu.Unlock()
	for round := 0; ; round++ {
		resp, err := c.transport.EdgesV3(ctx, shard, req)
		if err != nil {
			return nil, err
		}
		if len(resp.Missing) == 0 {
			return &resp.EdgeList, nil
		}
		if round >= 1 {
			return nil, fmt.Errorf("shardcoord: shard %d still missing %d sequences after a full refill", shard, len(resp.Missing))
		}
		// The residency map was stale — drop everything recorded for this
		// shard and refill the whole job.
		c.invalidateShard(shard)
		req.FillAt = req.FillAt[:0]
		req.Fill = req.Fill[:0]
		for i := range job.Keys {
			req.FillAt = append(req.FillAt, i)
			req.Fill = append(req.Fill, job.Seqs[i])
		}
	}
}

package shardcoord

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

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
}

// CoordinatorOption configures a Coordinator.
type CoordinatorOption func(*Coordinator)

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

// NewCoordinator builds a coordinator over a transport.
func NewCoordinator(t Transport, opts ...CoordinatorOption) *Coordinator {
	c := &Coordinator{transport: t, resident: make(map[pipeline.SeqKey]uint64)}
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

// failovers is how many further shards a failed work unit is tried on
// before the stream fails: one failover, so a dead worker slows the
// stream rather than killing it.
const failovers = 1

// ClusterStream consumes work units as the pipeline emits them and
// returns one result per unit (pipeline.Clusterer) from the shared pull
// queue: each shard goroutine takes the next unit the moment it finishes
// its current one. Partition units are clustered and pre-reduced on the
// shard, edge units run the reduce's distance sweeps. After a terminal
// failure every subsequent unit is drained with the root error attached,
// so the pipeline never blocks.
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
	ctx, cancel := context.WithCancel(context.Background())
	var errOnce sync.Once
	var firstErr error
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
						firstErr = res.Err
						cancel()
					})
					// Attach the root cause, not a cascading cancellation.
					res.Err = firstErr
				}
				out <- res
			}
		}(s)
	}
	go func() {
		wg.Wait()
		cancel()
		close(out)
	}()
	return out
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
		resp, err := c.dispatchPartition(ctx, shard, req)
		if err != nil {
			return pipeline.WorkResult{Seq: unit.Seq, Err: fmt.Errorf("partition unit %d on shard %d: %w", unit.Seq, shard, err)}
		}
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

// dispatchPartition sends one partition request with failover, and
// records the partition's sequences resident on the shard that served it.
func (c *Coordinator) dispatchPartition(ctx context.Context, shard int, req *PartitionRequest) (*PartitionResponse, error) {
	var resp *PartitionResponse
	served, err := c.failover(ctx, shard, func(s int) (err error) {
		resp, err = c.transport.Partition(ctx, s, req)
		return err
	})
	if err != nil {
		return nil, err
	}
	c.recordResident(served, req.Partition.Keys)
	return resp, nil
}

// dispatchEdgeJob sends one digest-first edge job (see sweepOn) with
// failover, and records the job's sequences resident on the shard that
// served it.
func (c *Coordinator) dispatchEdgeJob(ctx context.Context, shard int, job *pipeline.EdgeJob, profile string) (*pipeline.EdgeList, error) {
	if len(job.Keys) != len(job.Seqs) {
		return nil, fmt.Errorf("shardcoord: edge job carries %d keys for %d sequences", len(job.Keys), len(job.Seqs))
	}
	var el *pipeline.EdgeList
	served, err := c.failover(ctx, shard, func(s int) (err error) {
		el, err = c.sweepOn(ctx, s, job, profile)
		return err
	})
	if err != nil {
		return nil, err
	}
	c.recordResident(served, job.Keys)
	return el, nil
}

// failover calls try on shard, then on the following shards (round-robin)
// up to the failover budget, forgetting each failed shard's residency. It
// returns the shard whose call succeeded.
func (c *Coordinator) failover(ctx context.Context, shard int, try func(shard int) error) (int, error) {
	shards := c.transport.Shards()
	var lastErr error
	for attempt := 0; attempt <= failovers; attempt++ {
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		s := (shard + attempt) % shards
		if lastErr = try(s); lastErr == nil {
			return s, nil
		}
		c.invalidateShard(s)
	}
	return 0, lastErr
}

// sweepOn runs one digest-first edge job on one shard, in two rounds at
// most: round 0 fills only the sequences the residency map says the shard
// lacks; if the worker still reports misses (it evicted, or died and
// restarted since the map was recorded), round 1 fills every position. A
// worker resolves fills before its resident set, so a second-round miss
// is impossible on a correct worker and is treated as a shard failure.
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

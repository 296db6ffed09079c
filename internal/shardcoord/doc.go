// Package shardcoord distributes the pipeline's clustering and reduce
// work across processes — the reproduction of the paper's 50-machine
// layout (§IV: "randomly partition the samples across a cluster of
// machines"), extended with streaming dispatch, a distributed reduce, and
// locality-aware edge routing over a digest-first wire.
//
// The division of labor follows the paper's Figure 7: a Coordinator owns
// the serial stages and implements pipeline.Clusterer — work units are
// consumed from a shared streaming pull queue as the pipeline emits them:
// clustering partitions while the host is still deduplicating, then the
// reduce step's distance sweeps as edge jobs. A Worker executes
// pipeline.ClusterPartition + pipeline.PreReducePartition behind POST
// /partition and pipeline.SweepEdges behind POST /edges3
// (cmd/kizzleshard is the standalone binary); only two-byte-per-token
// abstract symbol sequences travel on the wire, never raw documents.
//
// There is one wire protocol, and it is digest-first: sequences are
// content addressed (pipeline.SeqKey — 20 bytes); every worker keeps a
// bounded resident set (DefaultResidentBudget, sized by
// WithWorkerResidentBudget / kizzleshard -residentmb) of every sequence it
// has clustered or been sent, and the coordinator remembers which shards
// hold which keys. Edge jobs are composed placement-aware (rows grouped
// by owning shard — identical pair coverage to blind chunking), routed to
// the shard holding the most of their bytes, and sent as keys plus only
// the fills the residency map says that shard lacks. Stale residency is
// safe: the worker answers Missing positions (no sweep runs), and one
// full refill round settles it; a dispatch failure invalidates that
// shard's residency. Residency trades wire bytes for bookkeeping —
// Coordinator.WireBytes meters it — and cannot change output.
//
// Transports:
//
//   - NewHTTPTransport dispatches to real worker processes by base URL;
//   - NewLoopback runs the identical HTTP handler/JSON round trip against
//     in-process workers with no sockets, so `go test` (and the
//     BenchmarkPipelineSharded scaling benchmark) exercises the full
//     distributed path deterministically.
//
// Every work unit's result is a pure function of the unit, so shard
// count, scheduling, the seeded schedule permutation
// (WithSchedulePermutation), mid-stream failover (WithRetries), and
// result arrival order are invisible in pipeline output — pinned by
// TestShardedMatchesSingleProcess, TestHierarchicalReduceOrderInvariant,
// TestStreamFailoverMidStream, TestShardedAffinityMatchesSingleProcess
// (1/2/4/8 streamed shards, plus the warm-day wire-savings assertion),
// TestShardedAffinityFailoverMidEdgeSweep (worker death at the edge wave),
// and TestCoordinatorEdgesV3StaleResidencyRefill.
// Workers may carry a contentcache.Cache (optionally disk-backed, see
// WithWorkerCache) to reuse pair within-eps verdicts across requests and
// restarts; caching never changes results. WithSequentialDispatch turns
// the coordinator into a profiling instrument that models the fleet
// schedule (ScheduleTotals) while dispatching units one at a time.
package shardcoord

// Package pipeline is Kizzle's main driver (paper Figure 7): stream the
// day's samples into clustering partitions, cluster each partition with
// DBSCAN over normalized token edit distance, reconcile the pre-reduced
// partition summaries in a hierarchical reduce, label each merged cluster
// by unpacking its prototype and winnow-matching it against the known-kit
// corpus, and generate a structural signature for every malicious
// cluster.
//
// The stages, and where each one's cost goes:
//
//   - tokenize + dedupe + emit (fused, streaming): digest pre-dedup, then
//     streaming symbol-only lexing (jstoken.Scratch) one chunk ahead of
//     the dedup cursor — identical raw documents are lexed once per cache
//     lifetime. Identical abstract sequences collapse to one weighted
//     point; new uniques scatter round-robin across Config.PartitionFanout
//     open partitions (the streaming stand-in for the paper's random
//     partitioning), and each partition is dispatched the moment it
//     fills — a shard fleet clusters while the host still lexes the tail;
//   - cluster + pre-reduce: weighted DBSCAN per partition over the
//     allocation-free bit-parallel bounded edit-distance kernel
//     (textdist.Scratch per worker + frequency lower bounds),
//     then PreReducePartition compacts the
//     result (representative merge + local noise fold). The dominant
//     cold-path cost and the stage that scales horizontally:
//     Config.Clusterer dispatches work units to shard workers
//     (internal/shardcoord, one concurrent pull queue), bit-identically;
//   - hierarchical reduce: union-find merge over the summaries'
//     representatives, noise re-cluster, straggler adoption — the step
//     the paper calls the serial bottleneck. Its three distance sweeps
//     run through the same seam as clustering: in-process by default,
//     fanned out to the fleet as EdgeJob work units under a Clusterer,
//     leaving the coordinator only union-find and bookkeeping;
//   - label: unpack the prototype, winnow-fingerprint it, sweep the
//     known-kit corpus. The sweep is family-sliced: the Corpus keeps a
//     content-derived generation per family, cached verdicts carry one
//     slice per family, and a corpus Add re-sweeps only the family it
//     touched (Stats.LabelSweeps counts the sweeps actually run);
//   - sign: generalize a structural signature per malicious cluster,
//     finding its common run on the symbol sequences already lexed and
//     lexing token values for that run only.
//
// Config.Cache threads a contentcache.Cache through every stage so a day
// N+1 batch pays only for novel content; CacheCodecs supplies the disk
// codecs that make that cache survive restarts (contentcache.Save/Load).
// The per-cluster stages read it through contentcache's single-flighted
// GetOrCompute, so a key raced by several workers is computed — and its
// miss counted — once, and Stats cache counters are deterministic at any
// GOMAXPROCS.
// Caching, sharding, and the schedule (Config.ScheduleSeed permutes the
// reduce sweeps and the fleet's shard assignment) are pinned by
// differential tests to never change pipeline output. Stats reports
// only measured quantities: per-stage wall-clock, counts and wire bytes.
package pipeline

// Package kizzle is a signature compiler for detecting exploit kits,
// reproducing the system described in "Kizzle: A Signature Compiler for
// Detecting Exploit Kits" (Stock, Livshits, Zorn — DSN 2016).
//
// Kizzle ingests batches of "grayware" JavaScript/HTML samples, clusters
// them by tokenized structure (DBSCAN over normalized token edit distance),
// labels malicious clusters by unpacking a prototype and winnow-matching it
// against a corpus of known unpacked exploit-kit payloads, and compiles a
// structural regex signature for every malicious cluster. Signatures can be
// deployed with a Matcher (in a browser, on the desktop, or server-side).
//
// Basic usage:
//
//	c := kizzle.New()
//	c.AddKnown("Nuclear", unpackedNuclearPayload)
//	res, err := c.Process(samples)
//	// res.Signatures → deploy:
//	m, err := kizzle.NewMatcher(res.Signatures)
//	if m.Detects(incomingDocument) { block() }
//
// # Scaling knobs
//
// The compiler is built for daily provider-scale batches; the levers, in
// the order they usually matter:
//
//   - WithWorkers sets in-process parallelism for tokenization,
//     clustering, and labeling (default GOMAXPROCS).
//   - WithCacheBytes bounds the content-addressed cache carried across
//     Process calls: day N+1 re-tokenizes, re-unpacks, re-fingerprints,
//     and re-verifies pair distances only for content it has not seen.
//     SaveCache / LoadCache persist that cache to disk, so a restarted
//     process keeps the warm-day economics.
//   - WithShardWorkers dispatches the clustering stage — the dominant
//     cost of a cold batch — to remote cmd/kizzleshard workers over HTTP,
//     the paper's 50-machine layout. Results are identical to
//     single-process operation.
//   - WithPartitionSize controls the clustering work-unit size; smaller
//     partitions balance better across shard workers at slightly more
//     reduce-step work.
//
// On the deployment side, Matcher.ScanAllBytes scans batches across a
// worker pool, and MatcherCache rebuilds a Matcher incrementally when
// only some families' signatures changed — the publisher's republish
// path.
//
// The labeling thresholds (WithThreshold, WithDefaultThreshold) and
// signature shape (WithSignatureTokens, WithSignatureSlack) follow the
// paper's §V tuning discussion; defaults reproduce the evaluation.
package kizzle

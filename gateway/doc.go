// Package gateway implements the paper's deployment channels as a working
// HTTP component: "Kizzle signatures may be deployed within a browser ...
// to scan all or some of the incoming JavaScript code" and "server-side,
// for instance, a CDN administrator may decide which JavaScript files to
// host". The Proxy is a reverse proxy that scans HTML/JavaScript responses
// with a deployed signature set and blocks exploit-kit landings; the
// Vetter is the CDN-side admission check for uploads.
//
// The Proxy scans what the browser renders. It drops the client's
// Accept-Encoding, so its transport negotiates gzip and hands the scan
// the decoded body; a scannable response that still carries another
// content coding cannot be scanned, so it is answered 502 and counted
// (Proxy.Metrics "encoded"), never admitted.
//
// The serving hot path is built for provider load. Response bodies move
// as []byte through pooled buffers into the one Scanner interface
// (Vetter.VetBytes → Scanner.ScanBytes) — a vetted-and-passed response
// allocates nothing on the scan path. The Admitter decides each response
// on its own request's goroutine, with no collection window: it pins the
// running signature set and its version together, consults the fleet's
// shared verdict store, scans on a miss and publishes under the pinned
// version. A response byte-identical to one already in flight under the
// same set joins that flight instead of scanning again; under the
// hot-key skew an edge actually sees, the hottest pages are the ones
// most often in flight twice. Admitted decisions are differentially
// pinned identical to per-document decisions, so coalescing is an
// economics knob, never a semantics one.
//
// Signature updates arrive through sigdb's update client (one loop of
// long-poll watch rounds over per-family deltas, degrading to jittered
// conditional polling against servers without the watch endpoint), so a
// running proxy converges on a new published set without restarting;
// Vetter.Update swaps the matcher atomically under in-flight scans, and
// the new set runs unversioned — publishing no shared verdicts — until
// Vetter.SetVersion names it. BenchmarkServe prices the path — direct vs
// admitted ("batched"), cold vs warm signature swap — and reports exact
// p50/p99 custom metrics that CI's bench gate enforces as SLOs.
package gateway

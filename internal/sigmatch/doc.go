// Package sigmatch compiles Kizzle signatures into a scanner that can be
// run over incoming JavaScript, emulating an AV engine's deployment of the
// generated signatures. Matching is performed structurally over the
// normalized token stream (token-aligned), which gives exact semantics for
// the back-references Kizzle emits — Go's RE2 regexp engine deliberately
// has none — and runs in linear time per start offset without regex
// backtracking pathologies.
//
// Deployment-side scanning is anchor-indexed: at compile time the scanner
// picks each signature's rarest literal element as an anchor and builds an
// index from token value to candidate (signature, anchor offset)
// alignments. A scan then walks the token stream once and runs full
// verification only at candidate alignments, so cost scales with anchor
// hits instead of signatures × offsets. Signatures without a literal
// element fall back to the sliding scan.
//
// The scanner matches token streams; lexing a document with its ingest
// profile and fanning a batch out across a worker pool belong to
// kizzle.Matcher, the one document entry point. Compile and
// NewScannerFromCompiled split
// per-signature compilation from whole-set index construction, which is
// what lets kizzle.MatcherCache rebuild a published set incrementally
// when only some families' signatures changed.
package sigmatch

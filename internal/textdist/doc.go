// Package textdist implements the edit-distance primitives Kizzle's
// clustering stage uses to compare abstract token sequences. The paper
// clusters samples with DBSCAN "using the edit distance between token
// strings as a means of determining the distance between any two samples"
// with a normalized threshold of 0.10.
//
// Two implementations are provided: Distance, a full O(n·m) dynamic
// program, and DistanceWithin, which decides whether the distance is
// within a caller-supplied bound and returns it exactly if so. DBSCAN only
// needs to know whether two samples are within eps of each other, so
// DistanceWithin is the hot path. It is Myers' bit-parallel algorithm in
// Hyyrö's edit-distance form, in edlib's 64-row blocks: one column of 64
// cells costs a dozen word operations, only the blocks covering the
// diagonals an alignment within the bound can touch are advanced, and the
// loop stops once no cell of a column can still end within the bound.
// At compile-cold's sizes (about 660 symbols, bound 73) that is about 20
// times cheaper than the banded dynamic program it replaced, with the
// same results; Distance is the oracle the tests and the fuzz target pin
// it to.
//
// Both are available as package functions (which allocate their state per
// call) and as methods on a reusable Scratch. Clustering issues millions
// of region queries per batch; a per-worker Scratch makes the whole
// distance stage allocation-free after warm-up.
package textdist

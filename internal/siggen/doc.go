// Package siggen implements Kizzle's signature creation algorithm
// (paper §III-C): for a malicious cluster it finds a long common token
// substring, unique in every sample, by the paper's binary search over its
// length (capped at 200; see FindCommonRun for why the search can miss
// the longest), with a hashed window index per sample so each probe costs
// time linear in the cluster's tokens; it then collects the distinct
// concrete strings at every token offset of that run (GenerateWindows
// searches the abstract symbols and asks for token values at the run's
// offsets only; Generate takes full token streams), and compiles the result into a
// structural regular-expression signature — literals where samples agree,
// inferred character classes where they diverge, and back-references where
// packers reuse templatized variable names (Figures 9 and 10).
package siggen

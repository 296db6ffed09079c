// Command e2ebench is the repository's end-to-end benchmark. It runs one
// seeded workload through the public APIs of the whole signature loop —
// certified compile, attested publish, push to a strict client, arming a
// gateway replica, and serving verdicts through the scanning proxy with
// admission batching and the shared verdict cache — all in one process
// over loopback TCP, checks every output against references that do not
// come from the code under test, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	sh e2ebench/run.sh --workload compile-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 it runs the workload untraced and then traced on the same
// seed, and the result carries the per-layer metrics, including the
// tracing overhead; the spans are written under .bench_build/traces.
// See README.md in this directory for the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: compile-cold, recompile-warm, serve-zipf or serve-unique")
	seed := flag.Int64("seed", 1, "input seed: picks days, junk variants, document order and zipf draws")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds; sets the work per run")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need --workload compile-cold|recompile-warm|serve-zipf|serve-unique, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	res, err := execute(w, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs the workload untraced (and, for a traced run, once more
// traced on the same seed) and assembles the result.
func execute(w workload, seed int64, seconds int, traced bool) (*result, error) {
	r, err := measure(w, seed, seconds, nil)
	if err != nil {
		return nil, err
	}
	e2e, err := endToEnd(r)
	if err != nil {
		return nil, err
	}
	report(os.Stderr, r, e2e)
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: e2e}
	if !traced {
		return res, nil
	}
	tr := newTracer()
	rt, err := measure(w, seed, seconds, tr)
	if err != nil {
		return nil, err
	}
	if rt.inputDigest != r.inputDigest {
		return nil, fmt.Errorf("traced run saw inputs %.12s, untraced %.12s", rt.inputDigest, r.inputDigest)
	}
	layers := perLayer(rt, tr)
	te2e, err := endToEnd(rt)
	if err != nil {
		return nil, err
	}
	base := e2e[w.headline].Value
	layers["trace.overhead_frac"] = metric{(te2e[w.headline].Value - base) / base, "fraction"}
	if path, err := tr.write(".bench_build/traces", fmt.Sprintf("%s-%d.json", w.name, seed)); err == nil {
		fmt.Fprintln(os.Stderr, "spans:", path)
	} else {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
	}
	report(os.Stderr, rt, layers)
	return &result{
		Correct:   r.failed == 0 && rt.failed == 0,
		Attempted: r.attempted + rt.attempted,
		Failed:    r.failed + rt.failed,
		Metrics:   layers,
	}, nil
}

// report prints a run's identity, checks and metrics for a human reader.
func report(f *os.File, r *run, m map[string]metric) {
	fmt.Fprintf(f, "workload %s: inputs %s, set digests %s (%d cycles), %d/%d failed\n",
		r.w.name, r.inputDigest[:16], chainDigest(r.setDigests), len(r.setDigests), r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintln(f, "  failure:", p)
	}
	for _, s := range []struct {
		name string
		s    samples
	}{{"sample-to-armed", r.armed}, {"request-to-verdict", r.verdicts()}} {
		p, v, n := s.s.tailPercentile()
		fmt.Fprintf(f, "  %s: %d samples, highest percentile with %d beyond it: p%g = %v\n", s.name, n, minTail, p, v)
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "  %-32s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"kizzle"
)

// serveRate is the open-loop request rate (requests/s) of every
// workload's serving phase: well under the stack's capacity on two cores,
// so the latency measured is service time plus ordinary queueing, not a
// growing backlog.
const serveRate = 400

// setupRepeats is how many times a run builds its inputs and stack; the
// reported set-up time is their median, and the last stack is measured.
const setupRepeats = 3

// closedSegment is the closed loop's unit: docs_per_s is the median rate
// of its segments, for the reason segmented tails are medians.
const closedSegment = 300

// minCycles makes the p90 of sample-to-armed rest on ten cycles beyond it.
const minCycles = 100

// plan is the amount of work a run does: publish cycles, then requests.
type plan struct {
	cycles                 int
	warmup, openN, closedN int
}

// workload is one benchmark input mix and the stack it runs on.
type workload struct {
	name string
	cfg  stackConfig
	plan func(seconds int) plan
	gen  func(seed int64, p plan) (*inputs, error)
	// cycleRecall measures recall on each cycle's own documents against
	// the set that cycle armed; otherwise recall is measured on the
	// served documents.
	cycleRecall bool
	// headline is the end-to-end metric trace.overhead_frac compares.
	headline string
}

// compilePlan: the run is mostly publish cycles, followed by a serving
// phase over the cycles' documents, each requested once.
func compilePlan(perSecond int) func(int) plan {
	return func(seconds int) plan {
		return plan{
			cycles:  max(minCycles, perSecond*seconds),
			warmup:  40,
			openN:   3 * segment,
			closedN: 5 * closedSegment,
		}
	}
}

// servePlan: idle publishes (cheap, so more of them than minCycles, for
// a steadier p90), then the run is mostly serving.
func servePlan(seconds int) plan {
	return plan{
		cycles:  minCycles * 5 / 2,
		warmup:  300,
		openN:   segment * max(3, seconds/4),
		closedN: closedSegment * max(3, seconds/2),
	}
}

var workloads = []workload{
	{
		name:        "compile-cold",
		cfg:         stackConfig{shards: 2, fresh: true, profiles: []string{"js"}},
		plan:        compilePlan(5),
		gen:         compileColdInputs,
		cycleRecall: true,
		headline:    "armed_ms_p50",
	},
	{
		name:        "recompile-warm",
		cfg:         stackConfig{profiles: profiles},
		plan:        compilePlan(6),
		gen:         recompileWarmInputs,
		cycleRecall: true,
		headline:    "armed_ms_p50",
	},
	{
		name:     "serve-zipf",
		cfg:      stackConfig{profiles: profiles},
		plan:     servePlan,
		gen:      serveZipfInputs,
		headline: "verdict_us_p50",
	},
	{
		name:     "serve-unique",
		cfg:      stackConfig{profiles: profiles},
		plan:     servePlan,
		gen:      serveUniqueInputs,
		headline: "verdict_us_p50",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// counts is the tally of oracle documents and how many were blocked.
type counts struct {
	kits, kitsBlocked, benign, benignBlocked int64
}

func (c *counts) add(kit, blocked bool) {
	if kit {
		c.kits++
		if blocked {
			c.kitsBlocked++
		}
		return
	}
	c.benign++
	if blocked {
		c.benignBlocked++
	}
}

// run is everything one measured run recorded.
type run struct {
	w          workload
	in         *inputs
	setup      samples
	armed      samples
	cycles     []cycleOut
	setDigests []string
	open       []outcome
	closed     []outcome
	// closedRates are the completed requests per second of each
	// closed-loop segment.
	closedRates []float64
	oracle      counts
	attempted   int64
	failed      int64
	problems    []string
	inputDigest string
	peakRSSMB   float64
	// counter snapshots around the publish and serving phases.
	clientBefore, clientAfter map[string]any
	admitBefore, admitAfter   map[string]any
	storeBefore, storeAfter   map[string]any
	scannedBefore             int64
	scannedAfter              int64
	profilesArmed             []string
}

// verdicts are the open loop's request-to-verdict latencies, in request
// order, of the requests that completed.
func (r *run) verdicts() samples {
	var out samples
	for _, o := range r.open {
		if o.err == nil {
			out = append(out, o.lat)
		}
	}
	return out
}

// problem records an operation failure (first few kept for the report).
func (r *run) problem(format string, args ...any) {
	r.failed++
	if len(r.problems) < 5 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// measure builds the workload's inputs and stack setupRepeats times,
// then runs the publish cycles and the serving phase on the last stack
// and checks every output. tr is nil for the untraced run.
func measure(w workload, seed int64, seconds int, tr *tracer) (*run, error) {
	p := w.plan(seconds)
	r := &run{w: w}
	conns := runtime.GOMAXPROCS(0)
	var st *stack
	var ld *loader
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			ld.close()
			st.close()
			runtime.GC()
		}
		t0 := time.Now()
		in, err := w.gen(seed, p)
		if err != nil {
			return nil, fmt.Errorf("%s inputs: %w", w.name, err)
		}
		if st, err = newStack(w.cfg, tr, in.docs); err != nil {
			return nil, err
		}
		if _, err := st.cycle(in.training, -1); err != nil {
			st.close()
			return nil, fmt.Errorf("training publish: %w", err)
		}
		ld = newLoader(st.front.URL, in.docs, conns)
		// The warm-up opens the connections and, on serve-zipf, primes the
		// shared verdict cache.
		warm, _ := ld.closedLoop(in.warmup, -len(in.warmup)-1)
		for _, o := range warm {
			if o.err != nil {
				ld.close()
				st.close()
				return nil, fmt.Errorf("warm-up request: %w", o.err)
			}
		}
		r.setup = append(r.setup, time.Since(t0))
		r.in = in
	}
	defer st.close()
	defer ld.close()
	r.inputDigest = r.in.digest()
	if tr != nil {
		tr.on.Store(true)
	}

	// The publisher and the replica share this process only because the
	// benchmark runs the whole loop in one; collecting each phase's
	// garbage before the next keeps one phase's heap off the other's
	// numbers.
	runtime.GC()
	r.clientBefore = st.client.Metrics()
	for c, in := range r.in.cycles {
		r.attempted++
		out, err := st.cycle(in, int64(c))
		if err != nil {
			r.problem("%v", err)
			continue
		}
		r.armed = append(r.armed, out.armed)
		r.setDigests = append(r.setDigests, out.digest)
		if w.cycleRecall {
			m, err := kizzle.NewMatcher(out.sigs)
			if err != nil {
				r.problem("cycle %d: armed set does not compile: %v", c, err)
				continue
			}
			for _, d := range in.oracle {
				r.oracle.add(d.Kit, m.DetectsBytes([]byte(d.Content)))
			}
		}
		if tr == nil {
			out.results, out.sigs = nil, nil
		}
		r.cycles = append(r.cycles, out)
	}
	r.clientAfter = st.client.Metrics()
	// In a deployment the publisher is another process: drop its
	// compilers (and, unless the traced run replays them, the cycles'
	// documents) so the serving phase runs on the heap a replica has.
	st.primaries, st.corpus = nil, nil
	if tr == nil {
		r.in.training, r.in.cycles = compileInput{}, nil
	}

	// Return the publish phase's freed heap now, not through the
	// background scavenger while requests are being timed.
	debug.FreeOSMemory()
	r.admitBefore, r.storeBefore = st.admit.Metrics(), st.vstore.Metrics()
	r.scannedBefore, _ = st.vetter.Stats()
	r.open = ld.openLoop(r.in.open, serveRate, 0)
	for i := 0; i < len(r.in.closed); i += closedSegment {
		seq := r.in.closed[i:min(i+closedSegment, len(r.in.closed))]
		out, took := ld.closedLoop(seq, len(r.in.open)+i)
		r.closed = append(r.closed, out...)
		r.closedRates = append(r.closedRates, float64(len(out))/took.Seconds())
	}
	r.admitAfter, r.storeAfter = st.admit.Metrics(), st.vstore.Metrics()
	r.scannedAfter, _ = st.vetter.Stats()
	if tr != nil {
		tr.on.Store(false)
	}
	if err := r.checkVerdicts(st); err != nil {
		return nil, err
	}
	r.peakRSSMB = peakRSSMB()
	return r, nil
}

// checkVerdicts compares every served verdict with an unbatched,
// uncached scan of the same document on the armed set, and tallies the
// oracle on the served documents when the workload measures recall there.
func (r *run) checkVerdicts(st *stack) error {
	snap := st.store.Snapshot()
	if got := st.vetter.Version(); got != snap.Version {
		return fmt.Errorf("replica runs v%d, store holds v%d", got, snap.Version)
	}
	ref, err := kizzle.NewMatcher(snap.Signatures)
	if err != nil {
		return fmt.Errorf("reference matcher: %w", err)
	}
	r.profilesArmed = profilesOf(snap.Signatures)
	want := make(map[int]bool)
	seen := make(map[int]bool)
	for _, o := range append(append([]outcome(nil), r.open...), r.closed...) {
		r.attempted++
		if o.err != nil {
			r.problem("request: %v", o.err)
			continue
		}
		w, ok := want[o.doc]
		if !ok {
			w = ref.DetectsBytes([]byte(r.in.docs[o.doc].Content))
			want[o.doc] = w
		}
		if o.blocked != w {
			r.problem("document %d: gateway blocked=%v, reference scan blocked=%v", o.doc, o.blocked, w)
			continue
		}
		if !r.w.cycleRecall && !seen[o.doc] {
			seen[o.doc] = true
			r.oracle.add(r.in.docs[o.doc].Kit, o.blocked)
		}
	}
	return nil
}

// profilesOf lists the ingest profiles a signature set spans, in
// publish order (each is one lexing pass per scanned document).
func profilesOf(sigs []kizzle.Signature) []string {
	seen := make(map[string]bool)
	for _, s := range sigs {
		p, _, namespaced := strings.Cut(s.Family(), "/")
		if !namespaced {
			p = "js"
		}
		seen[p] = true
	}
	var out []string
	for _, p := range profiles {
		if seen[p] {
			out = append(out, p)
		}
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB; 0 when
// the platform does not expose it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// Command sigserve is the publisher side of the signature distribution
// channel: it serves a sigdb store over HTTP for kizzlegate (and any other
// consumer) to poll — or long-poll on /signatures/watch, which pushes a
// new version to every parked replica the moment it publishes — and can
// optionally watch a samples directory and recompile signatures on an
// interval — the "signatures for malware variants observed the same day
// within a matter of hours" loop. It also hosts the fleet's shared
// verdict cache on /verdicts, so gateway replicas pointed at it scan
// each hot document once fleet-wide per signature version.
//
// The recompilation loop is incremental end to end: one long-lived
// compiler carries the content-addressed cache across recompiles (and,
// with -cachedir, across restarts), known payloads re-seed the corpus only
// when their files change (bumping just that family's generation, so only
// its label verdicts recompute), an unchanged signature set publishes
// without a version bump, and with -shards the clustering stage runs on
// the same kizzleshard fleet the analysis pipeline uses. Without -shards
// everything runs in-process — the fleet is an accelerator, never a
// requirement.
//
// Usage:
//
//	sigserve -store sigs.json -listen :9090 \
//	         [-samples corpus/ -known known/ -recompile 1h] \
//	         [-shards http://shard-0:9191,http://shard-1:9191] \
//	         [-cachedir cache/]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sync/atomic"

	"kizzle"
	"kizzle/gateway"
	"kizzle/internal/contentcache"
	"kizzle/internal/servemetrics"
	"kizzle/internal/verdictcache"
	"kizzle/internal/zerocopy"
	"kizzle/sigdb"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "sigserve:", err)
		os.Exit(1)
	}
}

// run configures the server. When ready is non-nil the handler is sent to
// it instead of binding a listener (test hook); recompilation still runs
// once synchronously so tests observe a populated store.
func run(args []string, ready chan<- http.Handler) error {
	fs := flag.NewFlagSet("sigserve", flag.ContinueOnError)
	storePath := fs.String("store", "", "sigdb JSON file to serve (required)")
	listen := fs.String("listen", ":9090", "address to serve on")
	samplesDir := fs.String("samples", "", "directory of samples to recompile from (optional)")
	knownDir := fs.String("known", "", "directory of known unpacked payloads (required with -samples)")
	recompile := fs.Duration("recompile", time.Hour, "recompilation interval")
	shards := fs.String("shards", "", "comma-separated kizzleshard worker base URLs to cluster on (empty = in-process)")
	cacheDir := fs.String("cachedir", "", "persist the compiler's content cache here across restarts")
	profileFlag := fs.String("profile", "js", "comma-separated ingest profiles to compile (e.g. js,webkit); with several, -samples/-known/-cachedir hold one subdirectory per profile and non-js families publish namespaced (profile/family)")
	yaraPath := fs.String("yara", "", "write every changed publish as a YARA ruleset to this file (requires -samples)")
	certify := fs.Bool("certify", false, "certify every publish: recompile through a second, diverse execution path and require bit-identical agreement")
	certKey := fs.String("certkey", "", "HMAC key for signing attestations (share with strict consumers)")
	certVerify := fs.String("certverify", "inprocess", "verification path: inprocess or fleet")
	certSeed := fs.Int64("certseed", defaultCertSeed, "schedule-permutation seed for the verification path")
	verdictCap := fs.Int("verdictcache", verdictcache.DefaultCapacity, "capacity of the fleet-shared verdict cache served on /verdicts (0 = default)")
	verdictKey := fs.String("verdictkey", "", "HMAC key required on /verdicts writes (share with gateway replicas via -verdictkey); empty accepts unauthenticated writes, safe only on an isolated replica network")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storePath == "" {
		return fmt.Errorf("-store is required")
	}
	if *samplesDir != "" && *knownDir == "" {
		return fmt.Errorf("-known is required with -samples")
	}
	if *samplesDir == "" && (*shards != "" || *cacheDir != "") {
		return fmt.Errorf("-shards/-cachedir require -samples")
	}
	if *certify && *samplesDir == "" {
		return fmt.Errorf("-certify requires -samples")
	}
	profiles, err := parseProfiles(*profileFlag)
	if err != nil {
		return err
	}
	if *samplesDir == "" && *profileFlag != "js" {
		return fmt.Errorf("-profile requires -samples")
	}
	if *yaraPath != "" && *samplesDir == "" {
		return fmt.Errorf("-yara requires -samples")
	}
	if !*certify && (*certKey != "" || *certVerify != "inprocess" || *certSeed != defaultCertSeed) {
		return fmt.Errorf("-certkey/-certverify/-certseed require -certify")
	}

	store, err := sigdb.Open(*storePath)
	if err != nil {
		return err
	}
	if *certKey != "" {
		store.SetCertKey([]byte(*certKey))
	}

	shardURLs, err := parseShardURLs(*shards)
	if err != nil {
		return err
	}

	var pub *publisher
	if *samplesDir != "" {
		primary := pathSpec{shardURLs: shardURLs, profiles: profiles}
		var cert *certConfig
		if *certify {
			vspec, err := verifyPathSpec(primary, *certVerify, *certSeed)
			if err != nil {
				return err
			}
			cert = &certConfig{verify: vspec}
			log.Printf("certifying publishes: primary %s, verify %s",
				primary.descriptor(), vspec.descriptor())
		}
		pub, err = newPublisher(store, *samplesDir, *knownDir, *cacheDir, primary, cert)
		if err != nil {
			return err
		}
		pub.yaraPath = *yaraPath
		if _, err := pub.recompile(); err != nil {
			// A quarantined first compile is an operational condition, not a
			// startup failure: the store keeps serving whatever version it
			// already holds while the operator investigates the audit log.
			if !errors.Is(err, errQuarantined) {
				return fmt.Errorf("initial compile: %w", err)
			}
			log.Printf("initial compile: %v", err)
		}
	}

	scans := &scanHandler{store: store}
	verdicts := verdictcache.New(*verdictCap)
	mux := http.NewServeMux()
	mux.Handle("/signatures", store.Handler())
	mux.Handle("/signatures/watch", store.WatchHandler())
	mux.Handle("/attest", store.AttestHandler())
	mux.Handle("/scan", scans)
	mux.Handle("/verdicts", verdictcache.Handler(verdicts, []byte(*verdictKey)))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "ok v%d\n", store.Version())
	})
	mux.Handle("/metrics", servemetrics.Handler(func() map[string]any {
		out := map[string]any{
			"store_version": store.Version(),
			"scan":          scans.metrics(),
			"verdict_cache": verdicts.Metrics(),
			"runtime":       servemetrics.RuntimeStats(),
		}
		if pub != nil {
			out["publisher"] = pub.metrics()
		}
		return out
	}))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loopDone := make(chan struct{})
	if pub != nil && ready == nil {
		go func() {
			defer close(loopDone)
			ticker := time.NewTicker(*recompile)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
				}
				if _, err := pub.recompile(); err != nil {
					log.Printf("recompile: %v", err)
					continue
				}
			}
		}()
	} else {
		close(loopDone)
	}

	if ready != nil {
		ready <- mux
		cancel()
		<-loopDone
		return nil
	}
	log.Printf("sigserve on %s (store %s, v%d)", *listen, *storePath, store.Version())
	err = http.ListenAndServe(*listen, mux)
	cancel()
	<-loopDone
	return err
}

// parseShardURLs splits the -shards flag. A non-empty value that yields
// no URLs is a configuration error, not a silent fallback to in-process
// clustering — the operator asked for a fleet and must learn they did
// not get one.
func parseShardURLs(shards string) ([]string, error) {
	if shards == "" {
		return nil, nil
	}
	var urls []string
	for _, u := range strings.Split(shards, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("-shards %q contains no worker URLs", shards)
	}
	return urls, nil
}

// parseProfiles splits and validates the -profile flag against the
// registered ingest profiles. Unknown names and duplicates are
// configuration errors — a typo must not silently drop a workload.
func parseProfiles(spec string) ([]string, error) {
	valid := make(map[string]bool)
	for _, id := range kizzle.Profiles() {
		valid[id] = true
	}
	seen := make(map[string]bool)
	var out []string
	for _, p := range strings.Split(spec, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		if !valid[p] {
			return nil, fmt.Errorf("-profile %q: unknown ingest profile (registered: %s)",
				p, strings.Join(kizzle.Profiles(), ", "))
		}
		if seen[p] {
			return nil, fmt.Errorf("-profile lists %q twice", p)
		}
		seen[p] = true
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-profile %q contains no profiles", spec)
	}
	return out, nil
}

// defaultCertSeed is the default -certseed: an arbitrary nonzero value,
// so the verification path's schedule is permuted out of the box.
const defaultCertSeed = 1887

// publisher owns sigserve's recompilation loop. Each configured ingest
// profile gets one workload: a long-lived compiler whose content cache —
// clustering verdicts, unpack results, fingerprints, per-family label
// slices — stays warm across recompiles, so the steady state pays only
// for the day's novel content, plus its own sample/known directories.
// Every cycle compiles all workloads and lands their signatures as one
// publish, so a single sigdb version (and a single attestation) always
// covers the whole fleet's deployed set. Clustering optionally runs on a
// kizzleshard fleet. All methods are serialized by the caller (the
// recompile loop is a single goroutine).
type publisher struct {
	store     *sigdb.Store
	workloads []*workload
	// yaraPath, when set, receives the published set as a YARA ruleset on
	// every changed publish.
	yaraPath string

	// primary describes the main compile path; cert, when non-nil, holds
	// the certification setup (see certify.go).
	primary pathSpec
	cert    *certConfig

	// lastMu guards last for /metrics readers; recompile itself stays
	// single-goroutine.
	lastMu      sync.Mutex
	last        pubStats
	recompiles  atomic.Int64
	certified   atomic.Int64
	quarantined atomic.Int64
}

// workload is one ingest profile's slice of the publisher: its compiler,
// directories, and known-corpus sync state.
type workload struct {
	profile    string
	compiler   *kizzle.Compiler
	samplesDir string
	knownDir   string
	cacheDir   string
	// knownFiles tracks each known file's content digest — plus the size
	// and mtime observed alongside it — from the last sync. An untouched
	// directory skips seeding entirely (unchanged metadata skips even the
	// reads); any change (new, modified, or removed files) rebuilds the
	// corpus from the current files, so the corpus is always a pure
	// function of the directory — and since family generations are
	// content-derived, families whose files did not change keep their
	// generation and their cached label verdicts.
	knownFiles map[string]knownMeta
	// knownNames/knownBodies retain the last-read corpus (sorted seeding
	// order and contents), so the certification verifier can seed a fresh
	// compiler with exactly the corpus the primary holds — including on
	// idle ticks that never re-read the files.
	knownNames  []string
	knownBodies map[string]string
}

// familyLabel maps a known payload file name to the family name its
// matches publish under: the bare file-derived label for the default JS
// workload (wire back-compat), namespaced "profile/label" for every
// other workload so one store can carry both corpora without collisions.
func (w *workload) familyLabel(name string) string {
	fam := knownFamily(name)
	if fam == "" || w.profile == "js" {
		return fam
	}
	return w.profile + "/" + fam
}

// workloadRun is one workload's output within a recompile cycle.
type workloadRun struct {
	w            *workload
	samples      []kizzle.Sample
	res          *kizzle.Result
	knownChanged int
}

// metrics reports the publisher's /metrics fields: recompile count, the
// last cycle's aggregate outcome, and a per-workload breakdown so a
// mixed-profile fleet's operators can watch each corpus independently.
func (p *publisher) metrics() map[string]any {
	p.lastMu.Lock()
	last := p.last
	p.lastMu.Unlock()
	workloads := make(map[string]any, len(last.Workloads))
	for _, ws := range last.Workloads {
		workloads[ws.Profile] = map[string]any{
			"documents":     ws.Documents,
			"clusters":      ws.Compile.Clusters,
			"signatures":    ws.Signatures,
			"known_changed": ws.KnownChanged,
			"label_sweeps":  ws.Compile.LabelSweeps,
			"cache_misses":  ws.Compile.CacheMisses,
			"cache_hits":    ws.Compile.CacheHits,
		}
	}
	return map[string]any{
		"recompiles":         p.recompiles.Load(),
		"certified":          p.certified.Load(),
		"quarantined":        p.quarantined.Load(),
		"last_version":       last.Version,
		"last_changed":       last.Changed,
		"last_known_changed": last.KnownChanged,
		"last_signatures":    last.Signatures,
		"last_clusters":      last.Compile.Clusters,
		"last_label_sweeps":  last.Compile.LabelSweeps,
		"last_cache_misses":  last.Compile.CacheMisses,
		"last_cache_hits":    last.Compile.CacheHits,
		"workloads":          workloads,
	}
}

// knownMeta is one known file's sync record: the content digest that
// decides change, and the stat metadata that lets an idle tick skip
// re-reading the file to recompute it.
type knownMeta struct {
	digest  uint64
	size    int64
	modTime time.Time
}

// newPublisher builds one workload per configured profile (an empty
// profile list means the default JS workload, keeping pre-profile call
// sites and deployments unchanged) and, when cacheDir is set, restores
// each workload's cache snapshot so a restarted publisher keeps warm-day
// economics. With several profiles the sample/known/cache directories
// hold one subdirectory per profile.
func newPublisher(store *sigdb.Store, samplesDir, knownDir, cacheDir string, primary pathSpec, cert *certConfig) (*publisher, error) {
	profiles := primary.profiles
	if len(profiles) == 0 {
		profiles = []string{"js"}
	}
	p := &publisher{store: store, primary: primary, cert: cert}
	multi := len(profiles) > 1
	for _, prof := range profiles {
		w := &workload{
			profile:    prof,
			samplesDir: samplesDir,
			knownDir:   knownDir,
			cacheDir:   cacheDir,
			knownFiles: make(map[string]knownMeta),
		}
		if multi {
			w.samplesDir = filepath.Join(samplesDir, prof)
			w.knownDir = filepath.Join(knownDir, prof)
			if cacheDir != "" {
				w.cacheDir = filepath.Join(cacheDir, prof)
			}
		}
		w.compiler = kizzle.New(primary.workloadOptions(prof)...)
		if w.cacheDir != "" {
			stats, err := w.compiler.LoadCache(w.cacheDir)
			if err != nil {
				return nil, fmt.Errorf("load cache (%s): %w", prof, err)
			}
			if stats.Entries > 0 || stats.CorruptSegments > 0 {
				log.Printf("cache (%s): restored %d entries from %s (%d corrupt segments skipped)",
					prof, stats.Entries, w.cacheDir, stats.CorruptSegments)
			}
		}
		p.workloads = append(p.workloads, w)
	}
	return p, nil
}

// pubStats summarizes one recompile for logging and tests. The top-level
// fields aggregate across workloads (a single-profile publisher reports
// exactly its one workload); Workloads carries the per-profile split.
type pubStats struct {
	Version int64
	Changed bool
	// KnownChanged counts known files that were new, modified, or removed
	// since the previous sync (0 means every corpus was left untouched).
	KnownChanged int
	Compile      kizzle.Stats
	Signatures   int
	Workloads    []workloadStats
}

// workloadStats is one workload's share of a recompile cycle.
type workloadStats struct {
	Profile      string
	Documents    int
	KnownChanged int
	Compile      kizzle.Stats
	Signatures   int
}

// addStats accumulates one workload's compile stats into the aggregate.
func addStats(dst *kizzle.Stats, s kizzle.Stats) {
	dst.Samples += s.Samples
	dst.UniqueSequences += s.UniqueSequences
	dst.Partitions += s.Partitions
	dst.Clusters += s.Clusters
	dst.MaliciousClusters += s.MaliciousClusters
	dst.LabelSweeps += s.LabelSweeps
	dst.CacheHits += s.CacheHits
	dst.CacheMisses += s.CacheMisses
	dst.WireBytes += s.WireBytes
	dst.EdgeWireBytes += s.EdgeWireBytes
}

// recompile runs one publishing cycle: for each workload, sync its known
// corpus (per-family incremental) and process its samples directory;
// then publish the concatenated signature set if it changed, export YARA
// when configured, and snapshot each workload's cache for restarts.
func (p *publisher) recompile() (pubStats, error) {
	var st pubStats
	runs := make([]workloadRun, 0, len(p.workloads))
	var allSigs []kizzle.Signature
	for _, w := range p.workloads {
		knownChanged, err := w.syncKnown()
		if err != nil {
			return st, err
		}
		samples, err := readSamples(w.samplesDir)
		if err != nil {
			return st, err
		}
		res, err := w.compiler.Process(samples)
		if err != nil {
			return st, err
		}
		st.KnownChanged += knownChanged
		addStats(&st.Compile, res.Stats)
		st.Signatures += len(res.Signatures)
		st.Workloads = append(st.Workloads, workloadStats{
			Profile:      w.profile,
			Documents:    len(samples),
			KnownChanged: knownChanged,
			Compile:      res.Stats,
			Signatures:   len(res.Signatures),
		})
		allSigs = append(allSigs, res.Signatures...)
		runs = append(runs, workloadRun{w: w, samples: samples, res: res, knownChanged: knownChanged})
	}
	var version int64
	var changed bool
	var err error
	if p.cert != nil {
		version, changed, err = p.certify(runs, allSigs)
	} else {
		version, changed, err = p.store.Publish(allSigs, nil)
	}
	if err != nil {
		// A quarantine still counts the cycle and snapshots the caches —
		// the primary compiles ran and may have warmed them legitimately.
		if errors.Is(err, errQuarantined) {
			p.recompiles.Add(1)
			p.snapshotCaches(runs)
		}
		return st, err
	}
	st.Version, st.Changed = version, changed
	if changed {
		log.Printf("published signature set v%d (%d signatures, %d clusters, %d label sweeps)",
			version, st.Signatures, st.Compile.Clusters, st.Compile.LabelSweeps)
	} else {
		log.Printf("signature set unchanged at v%d (%d label sweeps)", version, st.Compile.LabelSweeps)
	}
	if changed && p.yaraPath != "" {
		if werr := writeYARA(p.yaraPath, allSigs); werr != nil {
			// Losing one export costs the AV channel a day's freshness, not
			// the serving store its new version.
			log.Printf("yara export: %v", werr)
		}
	}
	p.snapshotCaches(runs)
	p.recompiles.Add(1)
	p.lastMu.Lock()
	p.last = st
	p.lastMu.Unlock()
	return st, nil
}

// snapshotCaches persists each workload's cache, but only when its cycle
// could have changed it: a fully-warm tick (no misses, no corpus change)
// would rewrite an identical snapshot — recurring I/O proportional to
// the cache budget for zero information. A failed snapshot costs the
// next restart warmth, not this process correctness.
func (p *publisher) snapshotCaches(runs []workloadRun) {
	for _, run := range runs {
		if run.w.cacheDir == "" || (run.res.Stats.CacheMisses == 0 && run.knownChanged == 0) {
			continue
		}
		if _, err := run.w.compiler.SaveCache(run.w.cacheDir); err != nil {
			log.Printf("save cache (%s): %v", run.w.profile, err)
		}
	}
}

// writeYARA renders the published set as a YARA ruleset and installs it
// atomically via rename, validating first so a malformed export never
// replaces a good file. An empty set writes nothing (there is no valid
// empty YARA ruleset).
func writeYARA(path string, sigs []kizzle.Signature) error {
	if len(sigs) == 0 {
		return nil
	}
	out := kizzle.ExportYARA(sigs)
	if err := kizzle.ValidateYARA(out); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(out), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// syncKnown keeps the workload's corpus equal to its known directory's
// current contents. The file name up to the first '.' or '-' is the
// family label — namespaced by familyLabel for non-js workloads — so
// families can carry several payload files (angler.txt,
// angler-variant2.txt); hidden files are skipped. An unchanged directory
// is a no-op — and when no file's size or mtime moved either, the no-op
// is decided from stat metadata alone, so the steady-state tick never
// re-reads the payloads; content digests remain the change authority
// whenever metadata moves. Any change rebuilds the corpus from scratch
// in sorted file order — a modified file replaces its old payload (Add
// alone would keep the retracted content live) and a deleted file's
// payload goes away, while content-derived generations keep every
// untouched family's label cache warm through the rebuild. The return
// counts new, modified, and removed files.
func (w *workload) syncKnown() (changed int, err error) {
	entries, err := os.ReadDir(w.knownDir)
	if err != nil {
		return 0, fmt.Errorf("read known dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	infos := make(map[string]os.FileInfo, len(entries))
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, fmt.Errorf("stat known payload %s: %w", e.Name(), err)
		}
		names = append(names, e.Name())
		infos[e.Name()] = info
	}
	// Deterministic seeding order: corpus generations are content-derived
	// and order-sensitive within a family, so every rebuild — in this
	// process or a restarted one — must Add in the same order.
	sort.Strings(names)
	if len(names) == 0 {
		return 0, fmt.Errorf("no known payloads in %s", w.knownDir)
	}
	for _, name := range names {
		if knownFamily(name) == "" {
			// An empty label would collide with the corpus's "no match"
			// sentinel and silently suppress labeling; refuse loudly.
			return 0, fmt.Errorf("known payload %q yields an empty family label", name)
		}
	}
	if len(names) == len(w.knownFiles) {
		same := true
		for _, name := range names {
			prev, ok := w.knownFiles[name]
			info := infos[name]
			if !ok || info.Size() != prev.size || !info.ModTime().Equal(prev.modTime) {
				same = false
				break
			}
		}
		if same {
			return 0, nil
		}
	}
	bodies := make(map[string]string, len(names))
	current := make(map[string]knownMeta, len(names))
	for _, name := range names {
		body, err := os.ReadFile(filepath.Join(w.knownDir, name))
		if err != nil {
			return 0, err
		}
		bodies[name] = string(body)
		info := infos[name]
		current[name] = knownMeta{
			digest:  contentcache.Digest(string(body)),
			size:    info.Size(),
			modTime: info.ModTime(),
		}
	}
	for name, meta := range current {
		if prev, ok := w.knownFiles[name]; !ok || prev.digest != meta.digest {
			changed++
		}
	}
	for name := range w.knownFiles {
		if _, ok := current[name]; !ok {
			changed++ // removed
		}
	}
	// Record the observed metadata even when the contents did not change
	// (e.g. a touch), so the next idle tick can skip the reads again; the
	// retained names/bodies are what the certification verifier re-seeds
	// its fresh compiler from.
	w.knownFiles = current
	w.knownNames = names
	w.knownBodies = bodies
	if changed == 0 {
		return 0, nil
	}
	w.compiler.ResetKnown()
	for _, name := range names {
		w.compiler.AddKnown(w.familyLabel(name), bodies[name])
	}
	return changed, nil
}

// knownFamily derives the family label from a known payload file name:
// everything up to the first '.' or '-'.
func knownFamily(name string) string {
	cut := strings.IndexAny(name, ".-")
	if cut < 0 {
		cut = len(name)
	}
	return name[:cut]
}

// scanHandler serves POST /scan: consumers submit a batch of documents and
// get per-document verdicts from the currently published signature set.
// The compiled matcher is cached and only rebuilt when the store version
// moves; the rebuild itself is incremental per family (kizzle.MatcherCache),
// so a /signatures update that changes one family's signatures recompiles
// only that family instead of the whole deployed set — the publisher
// doubles as the bulk scanning service of the deployment channel.
type scanHandler struct {
	store *sigdb.Store

	mu       sync.Mutex
	version  int64
	matcher  *kizzle.Matcher
	compiled kizzle.MatcherCache

	// scanSem bounds concurrent batch scans: each ScanAllBytes call spins
	// up its own GOMAXPROCS-sized worker pool, so unbounded concurrent
	// requests would oversubscribe the CPU and starve /signatures and
	// /healthz on the same publisher. Excess requests queue here.
	scanSemOnce sync.Once
	scanSem     chan struct{}

	requests      atomic.Int64
	docsScanned   atomic.Int64
	docsBlocked   atomic.Int64
	docsOversized atomic.Int64
	sigsCompiled  atomic.Int64
	sigsReused    atomic.Int64
	lat           servemetrics.Hist
}

// metrics reports the scan service's /metrics fields: request and
// document counters, batch-scan latency, the deployed matcher version,
// and what incremental rebuilds reused.
func (h *scanHandler) metrics() map[string]any {
	h.mu.Lock()
	version := h.version
	h.mu.Unlock()
	return map[string]any{
		"requests":            h.requests.Load(),
		"documents":           h.docsScanned.Load(),
		"blocked":             h.docsBlocked.Load(),
		"oversized":           h.docsOversized.Load(),
		"matcher_version":     version,
		"signatures_compiled": h.sigsCompiled.Load(),
		"signatures_reused":   h.sigsReused.Load(),
		"batch_scan_latency":  h.lat.Summary(),
	}
}

// maxScanRequestBytes caps one /scan request body: a day-scale batch of
// maximum-size documents without letting a single client OOM the
// publisher. Expressed in units of the fleet-wide per-document cap so
// the two bounds cannot drift apart again.
const maxScanRequestBytes = 16 * gateway.DefaultMaxScanBytes

// scanRequest is the /scan request body.
type scanRequest struct {
	Documents []string `json:"documents"`
}

// scanVerdict is one per-document result. Skipped, when non-empty,
// reports that the document was not scanned at all and why — a caller
// must be able to tell "scanned clean" from "never looked at" on the
// wire, not just from a server-side counter.
type scanVerdict struct {
	Blocked bool   `json:"blocked"`
	Family  string `json:"family,omitempty"`
	Skipped string `json:"skipped,omitempty"`
}

// scanResponse is the /scan response body.
type scanResponse struct {
	Version  int64         `json:"version"`
	Verdicts []scanVerdict `json:"verdicts"`
}

// current returns the matcher for the store's live version, recompiling
// only on version changes — and then only the families whose signatures
// actually changed.
func (h *scanHandler) current() (*kizzle.Matcher, int64, error) {
	snap := h.store.Snapshot()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.matcher != nil && snap.Version == h.version {
		return h.matcher, h.version, nil
	}
	m, stats, err := h.compiled.Build(snap.Signatures)
	if err != nil {
		return nil, 0, err
	}
	h.sigsCompiled.Add(int64(stats.SignaturesCompiled))
	h.sigsReused.Add(int64(stats.SignaturesReused))
	if stats.FamiliesRecompiled > 0 || stats.FamiliesReused > 0 {
		log.Printf("matcher v%d: %d signatures compiled (%d families), %d reused (%d families)",
			snap.Version, stats.SignaturesCompiled, stats.FamiliesRecompiled,
			stats.SignaturesReused, stats.FamiliesReused)
	}
	h.matcher, h.version = m, snap.Version
	return m, h.version, nil
}

func (h *scanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	// Bound the request so one oversized batch cannot take down the
	// publisher the whole distribution channel depends on (mirrors the
	// proxy's MaxScanBytes per-document cap).
	r.Body = http.MaxBytesReader(w, r.Body, maxScanRequestBytes)
	var req scanRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad request: "+err.Error(), status)
		return
	}
	m, version, err := h.current()
	if err != nil {
		http.Error(w, "signature set unavailable: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	h.scanSemOnce.Do(func() { h.scanSem = make(chan struct{}, 2) })
	h.scanSem <- struct{}{}
	defer func() { <-h.scanSem }()
	h.requests.Add(1)
	h.docsScanned.Add(int64(len(req.Documents)))
	start := time.Now()
	resp := scanResponse{Version: version, Verdicts: make([]scanVerdict, len(req.Documents))}
	// Apply the fleet-wide per-document cap exactly as the proxy does:
	// an oversized document passes through unscanned — never
	// truncated-and-scanned, which could vouch "clean" for content the
	// scan never saw — and its verdict says so, so batch clients can
	// distinguish "scanned clean" from "skipped oversized".
	docs := make([][]byte, 0, len(req.Documents))
	idx := make([]int, 0, len(req.Documents))
	for i, d := range req.Documents {
		if int64(len(d)) > gateway.DefaultMaxScanBytes {
			h.docsOversized.Add(1)
			resp.Verdicts[i] = scanVerdict{Skipped: "oversized"}
			continue
		}
		docs = append(docs, zerocopy.Bytes(d))
		idx = append(idx, i)
	}
	for j, matches := range m.ScanAllBytes(docs) {
		if len(matches) > 0 {
			resp.Verdicts[idx[j]] = scanVerdict{Blocked: true, Family: matches[0].Family}
			h.docsBlocked.Add(1)
		}
	}
	h.lat.Observe(time.Since(start))
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		log.Printf("scan: encode response: %v", err)
	}
}

func readSamples(dir string) ([]kizzle.Sample, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("read samples dir: %w", err)
	}
	var out []kizzle.Sample
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ext := strings.ToLower(filepath.Ext(e.Name()))
		if ext != ".html" && ext != ".htm" && ext != ".js" {
			continue
		}
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out = append(out, kizzle.Sample{ID: e.Name(), Content: string(body)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	if len(out) == 0 {
		return nil, fmt.Errorf("no samples in %s", dir)
	}
	return out, nil
}

// Command evalmonth replays the paper's August 2014 evaluation (§IV) and
// prints every table and figure of the evaluation section: the Angler
// window of vulnerability (Fig 6), similarity over time (Fig 11), signature
// lengths (Fig 12), FP/FN rates (Fig 13), absolute counts (Fig 14), plus
// the static kit inventory (Fig 2) and Nuclear timeline (Fig 5).
//
// Usage:
//
//	evalmonth [-benign 1200] [-days 31] [-fig all|2|5|6|11|12|13|14|perf] \
//	          [-shards N] [-cachemb 64] [-cachedir dir] \
//	          [-profile js|webkit]
//
// -shards N routes the clustering stage through N in-process shard
// workers over the loopback transport (the paper's 50-machine layout at
// test scale; results are identical to -shards 0): partitions flow to
// the workers while dedup is still running and the reduce's distance
// sweeps fan out as edge jobs. -cachedir persists the month's content
// cache across invocations: a re-run — or the next day's run — starts
// warm instead of cold.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"kizzle"
	"kizzle/internal/contentcache"
	"kizzle/internal/ekit"
	"kizzle/internal/evalharness"
	"kizzle/internal/pipeline"
	"kizzle/internal/shardcoord"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "evalmonth:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("evalmonth", flag.ContinueOnError)
	benign := fs.Int("benign", 1200, "benign samples per day")
	days := fs.Int("days", 31, "number of August days to evaluate (1-31)")
	fig := fs.String("fig", "all", "which figure to print: all, 2, 5, 6, 11, 12, 13, 14, perf")
	slack := fs.Int("slack", 0, "signature length slack (0 = paper-faithful)")
	cacheMB := fs.Int("cachemb", 64, "content cache budget in MiB shared across the month (0 disables)")
	cacheDir := fs.String("cachedir", "", "persist the content cache to this directory (load at start, save at end)")
	shards := fs.Int("shards", 0, "cluster via N loopback shard workers (0 = in-process)")
	sweep := fs.String("sweep", "", "sweep the labeling threshold for this family instead of running figures")
	profile := fs.String("profile", "js", "ingest profile to compile the stream with; non-js profiles namespace families profile/family")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *days < 1 || *days > 31 {
		return fmt.Errorf("-days %d outside 1-31", *days)
	}
	if *shards < 0 {
		return fmt.Errorf("-shards %d must be >= 0", *shards)
	}
	if *cacheDir != "" && *cacheMB <= 0 {
		return fmt.Errorf("-cachedir requires -cachemb > 0")
	}
	if !slices.Contains(kizzle.Profiles(), *profile) {
		return fmt.Errorf("-profile %q: unknown ingest profile (registered: %s)",
			*profile, strings.Join(kizzle.Profiles(), ", "))
	}
	if *sweep != "" {
		scfg := evalharness.DefaultSweepWindow(*benign)
		points, err := evalharness.SweepThreshold(*sweep,
			[]float64{0.3, 0.45, 0.6, 0.75, 0.88, 0.95}, scfg)
		if err != nil {
			return err
		}
		fmt.Println(evalharness.FormatSweep(*sweep, points))
		return nil
	}

	// Static figures need no run.
	static := map[string]func() string{"2": evalharness.FormatFig2, "5": evalharness.FormatFig5}
	if f, ok := static[*fig]; ok {
		fmt.Println(f())
		return nil
	}

	cfg := evalharness.DefaultConfig()
	cfg.Profile = *profile
	cfg.Stream.BenignPerDay = *benign
	cfg.Pipeline.Signature.LengthSlack = *slack
	cfg.Days = ekit.AugustDays()[:*days]
	if *cacheMB <= 0 {
		cfg.CacheBytes = -1 // disabled
	} else {
		cfg.CacheBytes = *cacheMB << 20
	}

	// Persistent cache: restore last invocation's snapshot before the run.
	if *cacheDir != "" {
		cache, stats, err := contentcache.Load(*cacheDir, pipeline.CacheCodecs(), *cacheMB<<20)
		if err != nil {
			return fmt.Errorf("load cache: %w", err)
		}
		cfg.Pipeline.Cache = cache
		fmt.Fprintf(os.Stderr, "cache: restored %d entries from %s (%d corrupt segments skipped)\n",
			stats.Entries, *cacheDir, stats.CorruptSegments)
	}

	// Sharded clustering: N loopback workers, each modeling one machine of
	// the paper's layout with an equal slice of the local CPU budget. With
	// -cachedir, each worker's verdict cache persists under its own
	// subdirectory — exactly what a kizzleshard fleet does with its own
	// -cachedir — so a restarted sharded run keeps the clustering warm
	// path too, not just the coordinator-side artifacts.
	var workerCaches []*contentcache.Cache
	workerCacheDir := func(i int) string { return filepath.Join(*cacheDir, fmt.Sprintf("shard-%d", i)) }
	if *shards > 0 {
		perWorker := runtime.GOMAXPROCS(0) / *shards
		if perWorker < 1 {
			perWorker = 1
		}
		workers := make([]*shardcoord.Worker, *shards)
		for i := range workers {
			opts := []shardcoord.WorkerOption{shardcoord.WithWorkerParallelism(perWorker)}
			if *cacheMB > 0 {
				budget := *cacheMB << 20 / *shards
				var wc *contentcache.Cache
				if *cacheDir != "" {
					loaded, stats, err := contentcache.Load(workerCacheDir(i), pipeline.CacheCodecs(), budget)
					if err != nil {
						return fmt.Errorf("load shard %d cache: %w", i, err)
					}
					fmt.Fprintf(os.Stderr, "cache: shard %d restored %d entries\n", i, stats.Entries)
					wc = loaded
				} else {
					wc = contentcache.New(budget)
				}
				workerCaches = append(workerCaches, wc)
				opts = append(opts, shardcoord.WithWorkerCache(wc))
			}
			workers[i] = shardcoord.NewWorker(opts...)
		}
		cfg.Pipeline.Clusterer = shardcoord.NewCoordinator(shardcoord.NewLoopback(workers))
	}

	fmt.Fprintf(os.Stderr, "running %d days at %d benign samples/day (%d shards)...\n", *days, *benign, *shards)
	res, err := evalharness.Run(cfg)
	if err != nil {
		return err
	}

	// Snapshot the warmed caches for the next invocation: the
	// coordinator-side artifact cache, plus each loopback worker's
	// verdict cache.
	if *cacheDir != "" {
		stats, err := cfg.Pipeline.Cache.Save(*cacheDir, pipeline.CacheCodecs())
		if err != nil {
			return fmt.Errorf("save cache: %w", err)
		}
		fmt.Fprintf(os.Stderr, "cache: persisted %d entries (%d segments, %d bytes) to %s\n",
			stats.Entries, stats.Segments, stats.Bytes, *cacheDir)
		for i, wc := range workerCaches {
			wstats, err := wc.Save(workerCacheDir(i), pipeline.CacheCodecs())
			if err != nil {
				return fmt.Errorf("save shard %d cache: %w", i, err)
			}
			fmt.Fprintf(os.Stderr, "cache: shard %d persisted %d entries\n", i, wstats.Entries)
		}
	}

	sections := []struct {
		key string
		out func() string
	}{
		{"2", evalharness.FormatFig2},
		{"5", evalharness.FormatFig5},
		{"6", res.FormatFig6},
		{"11", res.FormatFig11},
		{"12", res.FormatFig12},
		{"13", res.FormatFig13},
		{"14", res.FormatFig14},
		{"perf", res.FormatPerf},
	}
	printed := false
	for _, s := range sections {
		if *fig == "all" || *fig == s.key {
			fmt.Println(s.out())
			fmt.Println(strings.Repeat("-", 78))
			printed = true
		}
	}
	if !printed {
		return fmt.Errorf("unknown -fig %q", *fig)
	}
	fmt.Println(res.FormatSummary())
	return nil
}

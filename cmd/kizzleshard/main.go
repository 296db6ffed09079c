// Command kizzleshard is a clustering shard worker — one machine of the
// paper's 50-machine layout. It serves POST /partition (a clustering work
// unit dispatched by a coordinator, see internal/shardcoord), POST
// /edges3 (a digest-first reduce sweep) and GET /healthz, and optionally
// keeps a disk-backed verdict cache so a restarted worker retains its
// warm-day economics.
//
// Usage:
//
//	kizzleshard [-listen :9191] [-workers N] [-cachemb 64] [-cachedir dir] [-residentmb MB]
//
// With -cachedir the worker loads the previous snapshot at startup and
// saves on SIGINT/SIGTERM; corrupt snapshots degrade to a cold cache.
// -residentmb sizes the bounded digest-addressed resident set of the
// sequences the worker has seen, which lets the coordinator ship 20-byte
// content keys instead of sequence bytes on the edge path.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"kizzle/internal/contentcache"
	"kizzle/internal/pipeline"
	"kizzle/internal/shardcoord"
)

func main() {
	if err := run(os.Args[1:], nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "kizzleshard:", err)
		os.Exit(1)
	}
}

// run configures the worker. When ready is non-nil the handler is sent to
// it instead of binding a listener (test hook); run then blocks until quit
// closes and saves the cache before returning, mirroring the signal path.
func run(args []string, ready chan<- http.Handler, quit <-chan struct{}) error {
	fs := flag.NewFlagSet("kizzleshard", flag.ContinueOnError)
	listen := fs.String("listen", ":9191", "address to serve on")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "clustering parallelism per partition request")
	cacheMB := fs.Int("cachemb", 64, "pair-verdict cache budget in MiB (0 disables)")
	cacheDir := fs.String("cachedir", "", "directory for the persistent cache snapshot (optional)")
	residentMB := fs.Int("residentmb", shardcoord.DefaultResidentBudget>>20, "resident sequence set budget in MiB for digest-first edge jobs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *residentMB < 1 {
		return fmt.Errorf("-residentmb %d must be at least 1", *residentMB)
	}

	opts := []shardcoord.WorkerOption{
		shardcoord.WithWorkerParallelism(*workers),
		shardcoord.WithWorkerResidentBudget(*residentMB << 20),
	}
	var cache *contentcache.Cache
	if *cacheMB > 0 {
		budget := *cacheMB << 20
		if *cacheDir != "" {
			var stats contentcache.LoadStats
			var err error
			cache, stats, err = contentcache.Load(*cacheDir, pipeline.CacheCodecs(), budget)
			if err != nil {
				return fmt.Errorf("load cache: %w", err)
			}
			log.Printf("cache: restored %d entries from %s (%d corrupt segments, %d stale entries skipped)",
				stats.Entries, *cacheDir, stats.CorruptSegments, stats.SkippedEntries)
		} else {
			cache = contentcache.New(budget)
		}
		opts = append(opts, shardcoord.WithWorkerCache(cache))
	} else if *cacheDir != "" {
		return fmt.Errorf("-cachedir requires -cachemb > 0")
	}

	worker := shardcoord.NewWorker(opts...)
	handler := worker.Handler()

	save := func() error {
		if *cacheDir == "" {
			return nil
		}
		stats, err := cache.Save(*cacheDir, pipeline.CacheCodecs())
		if err != nil {
			return fmt.Errorf("save cache: %w", err)
		}
		log.Printf("cache: persisted %d entries (%d segments, %d bytes) to %s",
			stats.Entries, stats.Segments, stats.Bytes, *cacheDir)
		return nil
	}

	if ready != nil {
		ready <- handler
		if quit != nil {
			<-quit
		}
		return save()
	}

	// Persist the cache on graceful shutdown.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() {
		log.Printf("kizzleshard on %s (workers %d, cache %d MiB)", *listen, *workers, *cacheMB)
		errc <- http.ListenAndServe(*listen, handler)
	}()
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("received %s, shutting down", sig)
		return save()
	}
}

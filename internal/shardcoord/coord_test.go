package shardcoord

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kizzle/internal/contentcache"
	"kizzle/internal/ekit"
	"kizzle/internal/jstoken"
	"kizzle/internal/pipeline"
	"kizzle/internal/winnow"
)

// seqsOf turns byte strings into symbol sequences (one in-alphabet symbol
// per byte), enough structure for transport-level tests.
func seqsOf(texts ...string) [][]jstoken.Symbol {
	space := jstoken.Symbol(jstoken.SymbolSpace())
	out := make([][]jstoken.Symbol, len(texts))
	for i, s := range texts {
		seq := make([]jstoken.Symbol, len(s))
		for j := 0; j < len(s); j++ {
			seq[j] = jstoken.Symbol(s[j]) % space
		}
		out[i] = seq
	}
	return out
}

func dayInputs(t testing.TB, day, benign int) []pipeline.Input {
	t.Helper()
	scfg := ekit.DefaultStreamConfig()
	scfg.BenignPerDay = benign
	stream, err := ekit.NewStream(scfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := stream.Day(day)
	inputs := make([]pipeline.Input, len(samples))
	for i, s := range samples {
		inputs[i] = pipeline.Input{ID: s.ID, Content: s.Content}
	}
	return inputs
}

func seededCorpus(day int) *pipeline.Corpus {
	corpus := pipeline.NewCorpus(winnow.DefaultConfig(), 16)
	for _, fam := range ekit.Families {
		corpus.Add(fam.String(), ekit.Payload(fam, day-1))
	}
	return corpus
}

func stripTimings(r *pipeline.Result) {
	r.Stats.Tokenize, r.Stats.Cluster, r.Stats.Reduce = 0, 0, 0
	r.Stats.Label, r.Stats.Signature = 0, 0
	r.Stats.CacheHits, r.Stats.CacheMisses = 0, 0
}

// loopbackWorkers builds n in-process workers, optionally each with its
// own verdict cache.
func loopbackWorkers(n int, withCache bool) []*Worker {
	workers := make([]*Worker, n)
	for i := range workers {
		opts := []WorkerOption{WithWorkerParallelism(2)}
		if withCache {
			opts = append(opts, WithWorkerCache(contentcache.New(8<<20)))
		}
		workers[i] = NewWorker(opts...)
	}
	return workers
}

// TestShardedMatchesSingleProcess is the tentpole's differential test: the
// distributed pipeline must produce identical clusters and identical
// signatures to the single-process pipeline, at every shard count, with
// small partitions so the batch actually fans out across many requests.
func TestShardedMatchesSingleProcess(t *testing.T) {
	day := ekit.Date(8, 6)
	inputs := dayInputs(t, day, 120)
	cfg := pipeline.DefaultConfig()
	cfg.PartitionSize = 8 // force many partitions per batch

	ref, err := pipeline.Process(inputs, seededCorpus(day), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stripTimings(&ref)

	for _, shards := range []int{1, 2, 4} {
		for _, withCache := range []bool{false, true} {
			name := fmt.Sprintf("shards=%d,cache=%v", shards, withCache)
			t.Run(name, func(t *testing.T) {
				workers := loopbackWorkers(shards, withCache)
				scfg := cfg
				scfg.Clusterer = NewCoordinator(NewLoopback(workers))
				// Two runs per setup: the second exercises warm worker
				// verdict caches, which must not change anything either.
				for run := 0; run < 2; run++ {
					got, err := pipeline.Process(inputs, seededCorpus(day), scfg)
					if err != nil {
						t.Fatal(err)
					}
					stripTimings(&got)
					if !reflect.DeepEqual(ref.Clusters, got.Clusters) {
						t.Fatalf("run %d: sharded clusters diverge from single-process", run)
					}
					if !reflect.DeepEqual(ref.Signatures, got.Signatures) {
						t.Fatalf("run %d: sharded signatures diverge from single-process", run)
					}
					if got.Stats.Partitions < shards {
						t.Fatalf("run %d: only %d partitions for %d shards — batch too small to distribute",
							run, got.Stats.Partitions, shards)
					}
				}
			})
		}
	}
}

// delayTransport perturbs scheduling: every request sleeps a
// pseudo-random (seed-dependent) amount before executing, so work lands
// on different shards in a different order on every seed.
type delayTransport struct {
	inner Transport
	seed  uint64
	calls atomic.Int64
}

func (d *delayTransport) Shards() int { return d.inner.Shards() }

func (d *delayTransport) delay() {
	n := uint64(d.calls.Add(1))
	h := (n*2654435761 + d.seed) % 4
	time.Sleep(time.Duration(h) * time.Millisecond)
}

func (d *delayTransport) Partition(ctx context.Context, shard int, req *PartitionRequest) (*PartitionResponse, error) {
	d.delay()
	return d.inner.Partition(ctx, shard, req)
}

func (d *delayTransport) EdgesV3(ctx context.Context, shard int, req *EdgeRequestV3) (*EdgeResponseV3, error) {
	d.delay()
	return d.inner.EdgesV3(ctx, shard, req)
}

// TestHierarchicalReduceOrderInvariant is the tentpole's property test:
// shuffling which shard handles which unit and in which order results
// return must never change the final clusters — the hierarchical merge is
// a pure function of the partition summaries, which are themselves pure
// functions of the partitions.
func TestHierarchicalReduceOrderInvariant(t *testing.T) {
	day := ekit.Date(8, 10)
	inputs := dayInputs(t, day, 70)
	cfg := pipeline.DefaultConfig()
	cfg.PartitionSize = 6

	ref, err := pipeline.Process(inputs, seededCorpus(day), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stripTimings(&ref)

	for seed := uint64(1); seed <= 3; seed++ {
		scfg := cfg
		scfg.Clusterer = NewCoordinator(&delayTransport{
			inner: NewLoopback(loopbackWorkers(3, true)),
			seed:  seed,
		})
		got, err := pipeline.Process(inputs, seededCorpus(day), scfg)
		if err != nil {
			t.Fatal(err)
		}
		stripTimings(&got)
		if !reflect.DeepEqual(ref.Clusters, got.Clusters) || !reflect.DeepEqual(ref.Signatures, got.Signatures) {
			t.Fatalf("seed %d: scheduling perturbation changed pipeline output", seed)
		}
	}
}

// dyingTransport lets a shard answer successfully a fixed number of times
// and then fail forever — a worker dying mid-stream. The first request to
// any other shard is held until dieShard has died (or a timeout passes),
// so the shared pull queue must hand dieShard its fatal unit however the
// goroutines are scheduled.
type dyingTransport struct {
	inner     Transport
	dieShard  int
	surviving int
	mu        sync.Mutex
	answered  int
	failed    int
	died      chan struct{}
	held      atomic.Bool
}

func newDyingTransport(inner Transport, dieShard, surviving int) *dyingTransport {
	return &dyingTransport{inner: inner, dieShard: dieShard, surviving: surviving, died: make(chan struct{})}
}

func (d *dyingTransport) Shards() int { return d.inner.Shards() }

func (d *dyingTransport) dead(shard int) bool {
	if shard != d.dieShard {
		if d.held.CompareAndSwap(false, true) {
			select {
			case <-d.died:
			case <-time.After(10 * time.Second):
			}
		}
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.answered >= d.surviving {
		d.failed++
		if d.failed == 1 {
			close(d.died)
		}
		return true
	}
	d.answered++
	return false
}

func (d *dyingTransport) Partition(ctx context.Context, shard int, req *PartitionRequest) (*PartitionResponse, error) {
	if d.dead(shard) {
		return nil, fmt.Errorf("shard %d died mid-stream", shard)
	}
	return d.inner.Partition(ctx, shard, req)
}

func (d *dyingTransport) EdgesV3(ctx context.Context, shard int, req *EdgeRequestV3) (*EdgeResponseV3, error) {
	if d.dead(shard) {
		return nil, fmt.Errorf("shard %d died mid-stream", shard)
	}
	return d.inner.EdgesV3(ctx, shard, req)
}

// TestStreamFailoverMidStream kills one shard after its first few answers
// of a streamed run. Its pending work must be re-dispatched to survivors
// with no duplicate or lost clusters — output identical to single-process.
func TestStreamFailoverMidStream(t *testing.T) {
	day := ekit.Date(8, 11)
	inputs := dayInputs(t, day, 80)
	cfg := pipeline.DefaultConfig()
	cfg.PartitionSize = 6

	ref, err := pipeline.Process(inputs, seededCorpus(day), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stripTimings(&ref)

	// Shard 0 answers three units, then dies.
	dying := newDyingTransport(NewLoopback(loopbackWorkers(2, false)), 0, 3)
	scfg := cfg
	scfg.Clusterer = NewCoordinator(dying)
	got, err := pipeline.Process(inputs, seededCorpus(day), scfg)
	if err != nil {
		t.Fatalf("stream failed despite a surviving shard: %v", err)
	}
	stripTimings(&got)
	if !reflect.DeepEqual(ref.Clusters, got.Clusters) || !reflect.DeepEqual(ref.Signatures, got.Signatures) {
		t.Fatal("mid-stream failover changed pipeline output")
	}
	if dying.failed == 0 {
		t.Fatal("dead shard was never exercised after dying")
	}

	// Every shard dead: the streamed batch must fail, not hang.
	scfg.Clusterer = NewCoordinator(&flakyTransport{
		inner:     NewLoopback(loopbackWorkers(1, false)),
		deadShard: -1,
		shards:    2,
	})
	if _, err := pipeline.Process(inputs, seededCorpus(day), scfg); err == nil {
		t.Fatal("streamed batch succeeded with no live shards")
	}
}

// TestCoordinatorFailover kills one shard and expects the batch to
// complete through retries on the surviving shard, with unchanged output.
func TestCoordinatorFailover(t *testing.T) {
	day := ekit.Date(8, 7)
	inputs := dayInputs(t, day, 60)
	cfg := pipeline.DefaultConfig()
	cfg.PartitionSize = 30

	ref, err := pipeline.Process(inputs, seededCorpus(day), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stripTimings(&ref)

	// Sequential dispatch makes the dead shard's involvement
	// deterministic: under the concurrent shared queue the live shard can
	// drain every partition before the dead one is ever asked.
	healthy := NewLoopback(loopbackWorkers(1, false))
	flaky := &flakyTransport{inner: healthy, deadShard: 0, shards: 2}
	scfg := cfg
	scfg.Clusterer = NewCoordinator(flaky, WithSequentialDispatch())
	got, err := pipeline.Process(inputs, seededCorpus(day), scfg)
	if err != nil {
		t.Fatalf("batch failed despite a surviving shard: %v", err)
	}
	stripTimings(&got)
	if !reflect.DeepEqual(ref.Clusters, got.Clusters) || !reflect.DeepEqual(ref.Signatures, got.Signatures) {
		t.Fatal("failover changed pipeline output")
	}
	if flaky.failed == 0 {
		t.Fatal("dead shard was never exercised")
	}

	// With every shard dead the batch must fail, not hang or fabricate —
	// via both dispatch modes.
	allDead := &flakyTransport{inner: healthy, deadShard: -1, shards: 2}
	scfg.Clusterer = NewCoordinator(allDead)
	if _, err := pipeline.Process(inputs, seededCorpus(day), scfg); err == nil {
		t.Fatal("batch succeeded with no live shards (concurrent dispatch)")
	}
	scfg.Clusterer = NewCoordinator(allDead, WithSequentialDispatch())
	if _, err := pipeline.Process(inputs, seededCorpus(day), scfg); err == nil {
		t.Fatal("batch succeeded with no live shards")
	}
}

// flakyTransport reports `shards` shards but fails requests to deadShard
// (-1 = all dead), routing the rest to a single healthy inner worker.
type flakyTransport struct {
	inner     Transport
	shards    int
	deadShard int
	failed    int
}

func (f *flakyTransport) Shards() int { return f.shards }

func (f *flakyTransport) Partition(ctx context.Context, shard int, req *PartitionRequest) (*PartitionResponse, error) {
	if shard == f.deadShard || f.deadShard == -1 {
		f.failed++
		return nil, fmt.Errorf("shard %d is down", shard)
	}
	return f.inner.Partition(ctx, 0, req)
}

func (f *flakyTransport) EdgesV3(ctx context.Context, shard int, req *EdgeRequestV3) (*EdgeResponseV3, error) {
	if shard == f.deadShard || f.deadShard == -1 {
		f.failed++
		return nil, fmt.Errorf("shard %d is down", shard)
	}
	return f.inner.EdgesV3(ctx, 0, req)
}

// TestWorkerHandlerHTTP exercises the worker's HTTP surface through the
// loopback round trip: malformed bodies, wrong methods, mismatched
// lengths, and health checks.
func TestWorkerHandlerHTTP(t *testing.T) {
	w := NewWorker(WithWorkerCache(contentcache.New(1 << 20)))
	client := &http.Client{Transport: handlerRoundTripper{
		handlers: map[string]http.Handler{"w.loopback": w.Handler()},
	}}

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := client.Post("http://w.loopback/partition", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := post("{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: got %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"eps":0.1,"minPts":2,"partition":{"seqs":[[1,2]],"weights":[1,2]}}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched weights: got %d, want 400", resp.StatusCode)
	}

	resp, err := client.Get("http://w.loopback/partition")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /partition: got %d, want 405", resp.StatusCode)
	}

	hresp, err := client.Get("http://w.loopback/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: got %d", hresp.StatusCode)
	}

	// A well-formed request round-trips as the pre-reduced summary of the
	// local computation: two identical short sequences cluster, the long
	// outlier stays noise.
	body, _ := json.Marshal(&PartitionRequest{
		Eps:    0.5,
		MinPts: 2,
		Partition: pipeline.ShardPartition{
			Seqs:    seqsOf("ab", "ab", "zzzzzz"),
			Weights: []int{1, 1, 1},
		},
	})
	resp2, err := client.Post("http://w.loopback/partition", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("valid request: got %d", resp2.StatusCode)
	}
	var pr PartitionResponse
	if err := json.NewDecoder(resp2.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	want := pipeline.ReducedPartition{Clusters: [][]int{{0, 1}}, Reps: []int{0}, Noise: []int{2}}
	if !reflect.DeepEqual(pr.Reduced, want) {
		t.Fatalf("summary = %+v, want %+v", pr.Reduced, want)
	}
}

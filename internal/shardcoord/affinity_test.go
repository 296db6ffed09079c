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

	"kizzle/internal/contentcache"
	"kizzle/internal/ekit"
	"kizzle/internal/pipeline"
)

// residentWorkers builds n in-process workers with verdict caches and
// resident sets of the given byte budget.
func residentWorkers(n, budget int) []*Worker {
	workers := make([]*Worker, n)
	for i := range workers {
		workers[i] = NewWorker(
			WithWorkerParallelism(2),
			WithWorkerCache(contentcache.New(8<<20)),
			WithWorkerResidentBudget(budget),
		)
	}
	return workers
}

// TestShardedAffinityMatchesSingleProcess is the locality layer's
// differential test: affinity routing over the digest-first wire must
// produce clusters and signatures identical to the single-process
// pipeline at every shard count, whether the workers' resident sets hold
// the working set or have no room for any of it (every job then misses
// and refills) — routing and residency are pure economics, never
// semantics. It also pins the economics: on a resident fleet the edge
// wave must ship less than half the bytes the roomless fleet ships.
func TestShardedAffinityMatchesSingleProcess(t *testing.T) {
	day := ekit.Date(8, 12)
	inputs := dayInputs(t, day, 110)
	cfg := pipeline.DefaultConfig()
	cfg.PartitionSize = 8 // force many partitions, and therefore many edge rows

	ref, err := pipeline.Process(inputs, seededCorpus(day), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stripTimings(&ref)

	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var residentEdgeWire, roomlessEdgeWire int64
			for _, mode := range []struct {
				name   string
				budget int
			}{
				{"resident", 32 << 20},
				{"roomless", 1}, // no sequence fits: every edge job refills
			} {
				scfg := cfg
				scfg.Clusterer = NewCoordinator(NewLoopback(residentWorkers(shards, mode.budget)))
				// Two runs per setup: the second exercises warm resident
				// sets and warm verdict caches on top of a populated
				// coordinator residency map.
				for run := 0; run < 2; run++ {
					got, err := pipeline.Process(inputs, seededCorpus(day), scfg)
					if err != nil {
						t.Fatalf("%s run %d: %v", mode.name, run, err)
					}
					edgeWire := got.Stats.EdgeWireBytes
					if edgeWire <= 0 {
						t.Fatalf("%s run %d: no edge wire traffic measured", mode.name, run)
					}
					if run == 1 {
						if mode.name == "resident" {
							residentEdgeWire = edgeWire
						} else {
							roomlessEdgeWire = edgeWire
						}
					}
					stripTimings(&got)
					if !reflect.DeepEqual(ref.Clusters, got.Clusters) {
						t.Fatalf("%s run %d: clusters diverge from single-process", mode.name, run)
					}
					if !reflect.DeepEqual(ref.Signatures, got.Signatures) {
						t.Fatalf("%s run %d: signatures diverge from single-process", mode.name, run)
					}
				}
			}
			// The acceptance economics: edge rows are partition members, so
			// by the edge wave every sequence is resident where it clustered
			// and the wire carries 20-byte keys instead of packed sequences.
			if residentEdgeWire*2 > roomlessEdgeWire {
				t.Fatalf("resident edge wire %d bytes is not ≤ half of the roomless fleet's %d bytes",
					residentEdgeWire, roomlessEdgeWire)
			}
		})
	}
}

// dyingV3Transport forwards every request to an inner fleet until
// the first /edges3 request reaches dieShard — from then on that shard
// fails every request, modeling a worker crashing at the start of the
// edge wave with its resident set (and the coordinator's beliefs about
// it) lost.
type dyingV3Transport struct {
	inner    *HTTPTransport
	dieShard int
	dead     atomic.Bool
	mu       sync.Mutex
	failed   int
}

func (d *dyingV3Transport) Shards() int { return d.inner.Shards() }

func (d *dyingV3Transport) fail() error {
	d.mu.Lock()
	d.failed++
	d.mu.Unlock()
	return fmt.Errorf("shard %d died at the edge wave", d.dieShard)
}

func (d *dyingV3Transport) Partition(ctx context.Context, shard int, req *PartitionRequest) (*PartitionResponse, error) {
	if shard == d.dieShard && d.dead.Load() {
		return nil, d.fail()
	}
	return d.inner.Partition(ctx, shard, req)
}

func (d *dyingV3Transport) EdgesV3(ctx context.Context, shard int, req *EdgeRequestV3) (*EdgeResponseV3, error) {
	if shard == d.dieShard {
		d.dead.Store(true)
		return nil, d.fail()
	}
	return d.inner.EdgesV3(ctx, shard, req)
}

// TestShardedAffinityFailoverMidEdgeSweep kills a resident-fleet shard on
// its first digest-first edge request. The coordinator must drop its
// residency beliefs about the dead shard, fail the job over to a
// survivor (re-shipping whatever that shard lacks), and produce output
// identical to single-process.
func TestShardedAffinityFailoverMidEdgeSweep(t *testing.T) {
	day := ekit.Date(8, 13)
	inputs := dayInputs(t, day, 80)
	cfg := pipeline.DefaultConfig()
	cfg.PartitionSize = 8

	ref, err := pipeline.Process(inputs, seededCorpus(day), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stripTimings(&ref)

	dying := &dyingV3Transport{inner: NewLoopback(residentWorkers(2, 32<<20)), dieShard: 0}
	scfg := cfg
	scfg.Clusterer = NewCoordinator(dying)
	got, err := pipeline.Process(inputs, seededCorpus(day), scfg)
	if err != nil {
		t.Fatalf("stream failed despite a surviving shard: %v", err)
	}
	stripTimings(&got)
	if !reflect.DeepEqual(ref.Clusters, got.Clusters) || !reflect.DeepEqual(ref.Signatures, got.Signatures) {
		t.Fatal("edge-wave worker death changed pipeline output")
	}
	if dying.failed == 0 {
		t.Fatal("dead shard was never exercised after dying")
	}
}

// TestCoordinatorEdgesV3StaleResidencyRefill pins the inline-miss dance:
// a coordinator whose residency map claims sequences live on a shard that
// does not hold them (worker restarted) must get the misses back, refill
// the whole job, and still return the correct pairs — two round trips,
// never a wrong answer, never a livelock.
func TestCoordinatorEdgesV3StaleResidencyRefill(t *testing.T) {
	c := NewCoordinator(NewLoopback(residentWorkers(1, 32<<20)))
	seqs := seqsOf("abcd", "abcd", "zzzzzzzzzzzz")
	keys := make([]pipeline.SeqKey, len(seqs))
	for i, s := range seqs {
		keys[i] = pipeline.SeqKeyOf(s)
	}
	// Lie to the coordinator: claim everything is already resident on
	// shard 0. The worker is fresh, so round 0 ships no fills.
	c.recordResident(0, keys)
	job := &pipeline.EdgeJob{Eps: 0.5, Seqs: seqs, Rows: []int{0, 1, 2}, Keys: keys}
	el, err := c.dispatchEdgeJob(context.Background(), 0, job, "")
	if err != nil {
		t.Fatalf("stale residency was not corrected: %v", err)
	}
	if len(el.Pairs) != 1 || el.Pairs[0] != [2]int{0, 1} {
		t.Fatalf("pairs = %v, want [[0 1]]", el.Pairs)
	}
	// The refill re-recorded reality; a repeat of the same job must now
	// resolve entirely from the resident set (no misses, no error).
	if _, err := c.dispatchEdgeJob(context.Background(), 0, job, ""); err != nil {
		t.Fatalf("warm repeat failed: %v", err)
	}
}

// TestWorkerEdgesV3HTTP exercises the digest-first /edges3 surface: key
// resolution, the Missing answer, fill verification, and rejection of
// malformed, out-of-alphabet, and out-of-range jobs.
func TestWorkerEdgesV3HTTP(t *testing.T) {
	w := NewWorker(WithWorkerCache(contentcache.New(1<<20)), WithWorkerResidentBudget(1<<20))
	client := &http.Client{Transport: handlerRoundTripper{
		handlers: map[string]http.Handler{"w.loopback": w.Handler()},
	}}
	post := func(body string) (*http.Response, EdgeResponseV3) {
		t.Helper()
		resp, err := client.Post("http://w.loopback/edges3", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out EdgeResponseV3
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		return resp, out
	}

	seqs := seqsOf("abcd", "abcd", "zzzzzzzzzzzz")
	keys := make([]pipeline.SeqKey, len(seqs))
	for i, s := range seqs {
		keys[i] = pipeline.SeqKeyOf(s)
	}
	marshal := func(req EdgeRequestV3) string {
		b, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	// Cold worker, no fills: every key comes back missing, no sweep runs.
	cold := EdgeRequestV3{Eps: 0.5, Keys: keys, Rows: []int{0, 1, 2}}
	resp, out := post(marshal(cold))
	if resp.StatusCode != http.StatusOK || !reflect.DeepEqual(out.Missing, []int{0, 1, 2}) {
		t.Fatalf("cold request: status %d missing %v, want 200 [0 1 2]", resp.StatusCode, out.Missing)
	}

	// Full fill: the sweep runs, and the fills stay resident.
	full := cold
	full.FillAt = []int{0, 1, 2}
	full.Fill = seqs
	resp, out = post(marshal(full))
	if resp.StatusCode != http.StatusOK || len(out.Missing) != 0 {
		t.Fatalf("filled request: status %d missing %v", resp.StatusCode, out.Missing)
	}
	if len(out.Pairs) != 1 || out.Pairs[0] != [2]int{0, 1} {
		t.Fatalf("pairs = %v, want [[0 1]]", out.Pairs)
	}

	// Digest-only repeat: resolved entirely from the resident set.
	resp, out = post(marshal(cold))
	if resp.StatusCode != http.StatusOK || len(out.Missing) != 0 || len(out.Pairs) != 1 {
		t.Fatalf("warm request: status %d missing %v pairs %v", resp.StatusCode, out.Missing, out.Pairs)
	}

	// A fill that does not hash to its declared key is a hard 400 — a
	// silently accepted one would poison every later resolution of the key.
	bad := full
	bad.Fill = seqsOf("abcd", "abcX", "zzzzzzzzzzzz")
	if resp, _ := post(marshal(bad)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched fill: got %d, want 400", resp.StatusCode)
	}
	// Duplicate fill positions and out-of-range positions are rejected.
	dup := full
	dup.FillAt = []int{0, 0, 1}
	if resp, _ := post(marshal(dup)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate fill position: got %d, want 400", resp.StatusCode)
	}
	oob := full
	oob.FillAt = []int{0, 1, 5}
	if resp, _ := post(marshal(oob)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fill position out of range: got %d, want 400", resp.StatusCode)
	}
	// Truncated fill list (fewer fills than positions) is rejected.
	trunc := full
	trunc.Fill = seqs[:2]
	if resp, _ := post(marshal(trunc)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated fill: got %d, want 400", resp.StatusCode)
	}
	if resp, _ := post("{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: got %d, want 400", resp.StatusCode)
	}

	// Fills are wire sequences like any other: an odd packed length and a
	// symbol outside the alphabet (0xFFFF packed little-endian) are 400s.
	for name, body := range map[string]string{
		"odd packed length": `{"eps":0.5,"keys":["AAAAAAAAAAAAAAAAAAAAAAAAAAA="],"fillAt":[0],"fill":["QUJD"],"rows":[0]}`,
		"out of alphabet":   `{"eps":0.5,"keys":["AAAAAAAAAAAAAAAAAAAAAAAAAAA="],"fillAt":[0],"fill":["//8="],"rows":[0]}`,
	} {
		if resp, _ := post(body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: got %d, want 400", name, resp.StatusCode)
		}
	}
	// Sweep bounds: rows out of range and non-positive eps are rejected;
	// eps >= 1 saturates (everything matches) like every other pipeline
	// path.
	outOfRange := full
	outOfRange.Rows = []int{0, 1, 3}
	if resp, _ := post(marshal(outOfRange)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("row out of range: got %d, want 400", resp.StatusCode)
	}
	badEps := full
	badEps.Eps = -0.5
	if resp, _ := post(marshal(badEps)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad eps: got %d, want 400", resp.StatusCode)
	}
	hresp, err := client.Get("http://w.loopback/edges3")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /edges3: got %d, want 405", hresp.StatusCode)
	}
}

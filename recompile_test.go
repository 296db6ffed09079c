// Differential tests for the fleet-backed, per-family-incremental
// recompilation path: a publisher recompiling on a kizzleshard fleet, with
// a warm content cache and a corpus that mutates between recompiles, must
// produce signature sets byte-identical to a single-process publisher
// following the same trajectory — across shard counts, canonical and
// seeded schedules, and corpus-add interleavings. Generation bumps may only change cache
// economics (label sweeps), never labels.
package kizzle_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"kizzle"
	"kizzle/internal/shardcoord"
	"kizzle/synth"
)

// startShardFleet launches n shard workers over real HTTP (httptest
// listeners on loopback) and returns their base URLs — exactly what a
// sigserve -shards flag would name. Callers get the full wire path:
// request marshalling, the worker handler's body caps and validation,
// response decoding.
func startShardFleet(tb testing.TB, n int) []string {
	tb.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := httptest.NewServer(shardcoord.NewWorker().Handler())
		tb.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// signatureJSON serializes a signature set in its deployed form — the
// bytes consumers fetch — for byte-identity comparison.
func signatureJSON(tb testing.TB, sigs []kizzle.Signature) string {
	tb.Helper()
	data, err := json.Marshal(sigs)
	if err != nil {
		tb.Fatal(err)
	}
	return string(data)
}

// publisherDay collects one day's batch from the synthetic stream.
func publisherDay(tb testing.TB, day, benign int) []kizzle.Sample {
	tb.Helper()
	cfg := synth.DefaultConfig()
	cfg.BenignPerDay = benign
	stream, err := synth.NewStream(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var batch []kizzle.Sample
	for _, s := range stream.Day(day) {
		batch = append(batch, kizzle.Sample{ID: s.ID, Content: s.Content})
	}
	return batch
}

// runTrajectory drives one publisher through the recompile trajectory the
// differential pins: process day 1, bump one family's corpus generation
// with duplicate content, reprocess day 1 (labels must hold), process
// day 2. It returns the signature JSON of each recompile plus the label
// sweep counts.
func runTrajectory(t *testing.T, c *kizzle.Compiler, day int, day1, day2 []kizzle.Sample) (jsons [3]string, sweeps [3]int) {
	t.Helper()
	for _, fam := range synth.Kits() {
		c.AddKnown(fam.String(), synth.Payload(fam, day-1))
	}
	res1, err := c.Process(day1)
	if err != nil {
		t.Fatal(err)
	}
	jsons[0], sweeps[0] = signatureJSON(t, res1.Signatures), res1.Stats.LabelSweeps

	// Duplicate-content corpus bump: RIG's generation moves, its overlaps
	// cannot.
	c.AddKnown(synth.RIG.String(), synth.Payload(synth.RIG, day-1))
	res2, err := c.Process(day1)
	if err != nil {
		t.Fatal(err)
	}
	jsons[1], sweeps[1] = signatureJSON(t, res2.Signatures), res2.Stats.LabelSweeps

	res3, err := c.Process(day2)
	if err != nil {
		t.Fatal(err)
	}
	jsons[2], sweeps[2] = signatureJSON(t, res3.Signatures), res3.Stats.LabelSweeps
	return jsons, sweeps
}

// TestRecompileDifferential pins fleet-backed + incremental recompilation
// against the single-process path: byte-identical signature sets at every
// step of the trajectory, across shard counts and schedules, with
// per-family generation bumps changing only sweep counts.
func TestRecompileDifferential(t *testing.T) {
	day := synth.Date(8, 6)
	day1 := publisherDay(t, day, 30)
	day2 := publisherDay(t, day+1, 30)

	ref, refSweeps := runTrajectory(t, kizzle.New(), day, day1, day2)
	if ref[0] != ref[1] {
		t.Fatal("duplicate-content corpus bump changed the signature set")
	}
	if refSweeps[0] <= refSweeps[1] {
		t.Fatalf("generation bump should cost fewer sweeps than cold: cold=%d bumped=%d",
			refSweeps[0], refSweeps[1])
	}
	if refSweeps[1] == 0 {
		t.Fatal("generation bump produced no re-sweeps — invalidation is not happening")
	}

	for _, shards := range []int{1, 2, 4} {
		for _, seed := range []int64{0, 1887} {
			// Every compile streams; the canonical schedule keeps its
			// historical subtest name.
			name := fmt.Sprintf("shards=%d/dispatch=stream", shards)
			if seed != 0 {
				name += fmt.Sprintf(",seed=%d", seed)
			}
			t.Run(name, func(t *testing.T) {
				urls := startShardFleet(t, shards)
				opts := []kizzle.Option{kizzle.WithShardWorkers(urls...), kizzle.WithScheduleSeed(seed)}
				got, gotSweeps := runTrajectory(t, kizzle.New(opts...), day, day1, day2)
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("recompile %d diverged from single-process reference", i)
					}
				}
				// The caching economics are a property of the coordinator-side
				// labeling, so they are identical no matter where clustering ran.
				if gotSweeps != refSweeps {
					t.Fatalf("sweep counts %v diverged from reference %v", gotSweeps, refSweeps)
				}
			})
		}
	}

	// Corpus-add interleaving: seeding the duplicate RIG entry before any
	// processing (instead of between recompiles) must yield the same
	// signature sets — the corpus differs only by duplicate content.
	t.Run("interleaving=pre-seeded", func(t *testing.T) {
		c := kizzle.New()
		c.AddKnown(synth.RIG.String(), synth.Payload(synth.RIG, day-1))
		got, _ := runTrajectory(t, c, day, day1, day2)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("recompile %d diverged under pre-seeded corpus interleaving", i)
			}
		}
	})
}

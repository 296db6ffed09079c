// Benchmarks regenerating every table and figure of the paper's evaluation
// section (run with `go test -bench=. -benchmem`), plus ablations for the
// design choices called out in DESIGN.md. Shape metrics are attached to the
// benchmark output via b.ReportMetric; the full-resolution tables come from
// `go run ./cmd/evalmonth`.
package kizzle_test

import (
	"fmt"
	"testing"

	"kizzle"
	"kizzle/internal/contentcache"
	"kizzle/internal/ekit"
	"kizzle/internal/evalharness"
	"kizzle/internal/jstoken"
	"kizzle/internal/pipeline"
	"kizzle/internal/shardcoord"
	"kizzle/internal/textdist"
	"kizzle/internal/winnow"
	"kizzle/synth"
)

// harnessWindow runs the evaluation harness over a window of August days at
// bench scale.
func harnessWindow(b *testing.B, fromDay, toDay, benign int, mutate func(*evalharness.Config)) *evalharness.MonthResult {
	b.Helper()
	cfg := evalharness.DefaultConfig()
	cfg.Stream.BenignPerDay = benign
	cfg.Days = nil
	for d := fromDay; d <= toDay; d++ {
		cfg.Days = append(cfg.Days, d)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := evalharness.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig2KitInventory regenerates the Figure 2 CVE table.
func BenchmarkFig2KitInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := evalharness.FormatFig2()
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(float64(len(ekit.KitInventory())), "kits")
}

// BenchmarkFig5NuclearEvolution regenerates the three-month Nuclear
// mutation timeline: 13 superficial packer changes, one semantic change,
// two payload events.
func BenchmarkFig5NuclearEvolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prev := ""
		changes := 0
		for day := ekit.JuneStart; day <= ekit.AugustEnd; day++ {
			cur := ekit.VersionOn(ekit.FamilyNuclear, day).Note
			if cur != prev {
				changes++
				prev = cur
			}
		}
		if changes != len(ekit.NuclearTimeline) {
			b.Fatalf("observed %d packer versions, want %d", changes, len(ekit.NuclearTimeline))
		}
	}
	b.ReportMetric(float64(len(ekit.NuclearTimeline)-1), "packer-changes")
}

// BenchmarkFig6WindowOfVulnerability replays the Angler flip window: AV
// loses roughly half its Angler coverage for ~6 days while Kizzle's
// same-day signatures keep FN near zero.
func BenchmarkFig6WindowOfVulnerability(b *testing.B) {
	var avPeak, kizzlePeak float64
	for i := 0; i < b.N; i++ {
		res := harnessWindow(b, ekit.Date(8, 11), ekit.Date(8, 20), 120, nil)
		avPeak, kizzlePeak = 0, 0
		for _, d := range res.Days {
			total := d.ByFamily["Angler"]
			if total == 0 || d.Day == ekit.Date(8, 13) {
				continue // flip day itself is the trickle, not the window
			}
			if r := float64(d.AVFN["Angler"]) / float64(total); r > avPeak {
				avPeak = r
			}
			if r := float64(d.KizzleFN["Angler"]) / float64(total); r > kizzlePeak {
				kizzlePeak = r
			}
		}
		if avPeak < 0.25 {
			b.Fatalf("AV FN peak %.2f, expected a window of vulnerability", avPeak)
		}
	}
	b.ReportMetric(100*avPeak, "av-fn-peak-%")
	b.ReportMetric(100*kizzlePeak, "kizzle-fn-peak-%")
}

// BenchmarkFig11SimilarityOverTime regenerates the day-over-day unpacked
// similarity series: Nuclear and Angler near 100%, Sweet Orange high with
// rotation dips, RIG noisy around 50%.
func BenchmarkFig11SimilarityOverTime(b *testing.B) {
	cfg := winnow.DefaultConfig()
	avgs := make(map[ekit.Family]float64, len(ekit.Families))
	for i := 0; i < b.N; i++ {
		for _, fam := range ekit.Families {
			sum, n := 0.0, 0
			prev := winnow.Fingerprint(ekit.Payload(fam, ekit.AugustStart), cfg)
			for day := ekit.AugustStart + 1; day <= ekit.AugustEnd; day++ {
				cur := winnow.Fingerprint(ekit.Payload(fam, day), cfg)
				sum += winnow.Overlap(cur, prev)
				prev = cur
				n++
			}
			avgs[fam] = sum / float64(n)
		}
	}
	b.ReportMetric(100*avgs[ekit.FamilyNuclear], "nuclear-%")
	b.ReportMetric(100*avgs[ekit.FamilyAngler], "angler-%")
	b.ReportMetric(100*avgs[ekit.FamilySweetOrange], "sweetorange-%")
	b.ReportMetric(100*avgs[ekit.FamilyRIG], "rig-%")
	if avgs[ekit.FamilyNuclear] < 0.96 || avgs[ekit.FamilyRIG] > 0.8 {
		b.Fatalf("similarity shape off: nuclear %.2f rig %.2f", avgs[ekit.FamilyNuclear], avgs[ekit.FamilyRIG])
	}
}

// BenchmarkFig12SignatureLengths regenerates signature lengths over the
// Nuclear churn window; signatures must stay in the AV-deployable range and
// new ones must be minted on mutation days.
func BenchmarkFig12SignatureLengths(b *testing.B) {
	var maxLen, newSigs float64
	for i := 0; i < b.N; i++ {
		res := harnessWindow(b, ekit.Date(8, 15), ekit.Date(8, 23), 100, nil)
		maxLen, newSigs = 0, 0
		for _, d := range res.Days {
			for _, l := range d.SigLength {
				if float64(l) > maxLen {
					maxLen = float64(l)
				}
			}
			for range d.NewSignature {
				newSigs++
			}
		}
		if maxLen > 2200 {
			b.Fatalf("signature length %d outside Figure 12's range", int(maxLen))
		}
	}
	b.ReportMetric(maxLen, "max-sig-chars")
	b.ReportMetric(newSigs, "new-sigs")
}

// BenchmarkFig13FalseRates regenerates the daily FP/FN comparison over a
// 12-day window spanning the Angler flip.
func BenchmarkFig13FalseRates(b *testing.B) {
	var rates evalharness.Rates
	for i := 0; i < b.N; i++ {
		res := harnessWindow(b, ekit.Date(8, 9), ekit.Date(8, 20), 200, nil)
		rates = res.MonthRates()
		if rates.KizzleFN >= 0.05 {
			b.Fatalf("Kizzle FN %.3f, headline requires < 5%%", rates.KizzleFN)
		}
	}
	b.ReportMetric(100*rates.KizzleFP, "kizzle-fp-%")
	b.ReportMetric(100*rates.KizzleFN, "kizzle-fn-%")
	b.ReportMetric(100*rates.AVFP, "av-fp-%")
	b.ReportMetric(100*rates.AVFN, "av-fn-%")
}

// BenchmarkFig14AbsoluteCounts regenerates the per-kit FP/FN count table
// over a window; ordering must match the paper (Angler dominates ground
// truth, RIG is Kizzle's hardest family).
func BenchmarkFig14AbsoluteCounts(b *testing.B) {
	var sum evalharness.Totals
	for i := 0; i < b.N; i++ {
		res := harnessWindow(b, ekit.Date(8, 16), ekit.Date(8, 27), 150, nil)
		totals := res.FamilyTotals()
		sum = totals[len(totals)-1]
		byFam := make(map[string]evalharness.Totals)
		for _, t := range totals {
			byFam[t.Family] = t
		}
		if byFam["Angler"].GroundTruth <= byFam["RIG"].GroundTruth {
			b.Fatal("ground-truth ordering broken")
		}
	}
	b.ReportMetric(float64(sum.GroundTruth), "ground-truth")
	b.ReportMetric(float64(sum.KizzleFP), "kizzle-fp")
	b.ReportMetric(float64(sum.KizzleFN), "kizzle-fn")
	b.ReportMetric(float64(sum.AVFP), "av-fp")
	b.ReportMetric(float64(sum.AVFN), "av-fn")
}

// BenchmarkFig15PluginDetectOverlap regenerates the representative false
// positive: the benign PluginDetect library's winnow overlap with Nuclear
// (the paper measured 79%).
func BenchmarkFig15PluginDetectOverlap(b *testing.B) {
	cfg := winnow.DefaultConfig()
	nuclear := winnow.Fingerprint(ekit.Payload(ekit.FamilyNuclear, ekit.Date(8, 20)), cfg)
	var overlap float64
	for i := 0; i < b.N; i++ {
		pd := ekit.BenignSample(ekit.BenignPluginDetect, ekit.Date(8, 20), 0)
		overlap = winnow.Overlap(winnow.Fingerprint(pd, cfg), nuclear)
	}
	if overlap < 0.6 || overlap > 0.95 {
		b.Fatalf("PluginDetect/Nuclear overlap %.2f outside the Figure 15 regime", overlap)
	}
	b.ReportMetric(100*overlap, "overlap-%")
}

// BenchmarkPipelineThroughput measures one full pipeline day (the paper's
// runs took ~90 minutes for up to 500k samples on 50 machines; this reports
// single-machine throughput at evaluation scale).
func BenchmarkPipelineThroughput(b *testing.B) {
	cfg := ekit.DefaultStreamConfig()
	cfg.BenignPerDay = 400
	stream, err := ekit.NewStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	day := ekit.Date(8, 5)
	samples := stream.Day(day)
	inputs := make([]pipeline.Input, len(samples))
	var bytes int64
	for i, s := range samples {
		inputs[i] = pipeline.Input{ID: s.ID, Content: s.Content}
		bytes += int64(len(s.Content))
	}
	corpus := pipeline.NewCorpus(winnow.DefaultConfig(), 16)
	for _, fam := range ekit.Families {
		corpus.Add(fam.String(), ekit.Payload(fam, day-1))
	}
	pcfg := pipeline.DefaultConfig()
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Process(inputs, corpus, pcfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(inputs)), "samples/run")
}

// BenchmarkWebkitPipelineThroughput measures the second ingest workload
// end to end: one synthetic phishing-kit day (HTML/PHP/JS bundles)
// compiled under the webkit profile through the public compiler — the
// apples-to-apples counterpart of BenchmarkPipelineThroughput for
// mixed-fleet capacity planning.
func BenchmarkWebkitPipelineThroughput(b *testing.B) {
	cfg := synth.DefaultWebkitConfig()
	cfg.BenignPerDay = 100
	stream, err := synth.NewWebkitStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const day = 35 // mid-epoch for every kit family
	var (
		batch []kizzle.Sample
		bytes int64
	)
	for _, s := range stream.Day(day) {
		batch = append(batch, kizzle.Sample{ID: s.ID, Content: s.Content})
		bytes += int64(len(s.Content))
	}
	c := kizzle.New(kizzle.WithProfile("webkit"), kizzle.WithSignatureSlack(2))
	for _, fam := range synth.WebkitKits() {
		c.AddKnown("webkit/"+fam.String(), synth.WebkitPayload(fam, day-1))
	}
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	var sigs int
	for i := 0; i < b.N; i++ {
		res, err := c.Process(batch)
		if err != nil {
			b.Fatal(err)
		}
		sigs = len(res.Signatures)
	}
	b.ReportMetric(float64(len(batch)), "samples/run")
	b.ReportMetric(float64(sigs), "signatures/run")
}

// BenchmarkTokenize measures the tokenization stage over one day of
// documents: the classic lex-then-abstract composition against the
// streaming symbol-only path the pipeline now uses.
func BenchmarkTokenize(b *testing.B) {
	cfg := ekit.DefaultStreamConfig()
	cfg.BenignPerDay = 300
	stream, err := ekit.NewStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	samples := stream.Day(ekit.Date(8, 7))
	var bytes int64
	for _, s := range samples {
		bytes += int64(len(s.Content))
	}
	b.Run("batch", func(b *testing.B) {
		b.SetBytes(bytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range samples {
				jstoken.Abstract(jstoken.LexDocument(s.Content))
			}
		}
	})
	b.Run("streaming", func(b *testing.B) {
		var scratch jstoken.Scratch
		b.SetBytes(bytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range samples {
				scratch.LexDocumentSymbols(s.Content)
			}
		}
	})
	b.ReportMetric(float64(len(samples)), "docs/run")
}

// BenchmarkLabelClusters isolates the cluster-labeling stage (unpack +
// winnow fingerprint + corpus sweep) by running the full pipeline and
// reporting the label stage's share.
func BenchmarkLabelClusters(b *testing.B) {
	cfg := ekit.DefaultStreamConfig()
	cfg.BenignPerDay = 300
	stream, err := ekit.NewStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	day := ekit.Date(8, 7)
	samples := stream.Day(day)
	inputs := make([]pipeline.Input, len(samples))
	for i, s := range samples {
		inputs[i] = pipeline.Input{ID: s.ID, Content: s.Content}
	}
	corpus := pipeline.NewCorpus(winnow.DefaultConfig(), 16)
	for _, fam := range ekit.Families {
		for d := day - 4; d < day; d++ {
			corpus.Add(fam.String(), ekit.Payload(fam, d))
		}
	}
	pcfg := pipeline.DefaultConfig()
	b.ReportAllocs()
	var labelUS, clusters float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipeline.Process(inputs, corpus, pcfg)
		if err != nil {
			b.Fatal(err)
		}
		labelUS = float64(res.Stats.Label.Microseconds())
		clusters = float64(res.Stats.Clusters)
	}
	b.ReportMetric(labelUS, "label-us")
	b.ReportMetric(clusters, "clusters")
}

// distinctDay returns one pipeline input per distinct document of a
// stream day.
func distinctDay(b *testing.B, day, benign int) []pipeline.Input {
	b.Helper()
	cfg := ekit.DefaultStreamConfig()
	cfg.BenignPerDay = benign
	stream, err := ekit.NewStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	samples := stream.Day(day)
	inputs := make([]pipeline.Input, len(samples))
	for i, s := range samples {
		inputs[i] = pipeline.Input{ID: s.ID, Content: s.Content}
	}
	return inputs
}

// replicate models observation multiplicity — many users fetch the same
// page, so the provider ingests each distinct document several times.
func replicate(distinct []pipeline.Input, dupFactor int) []pipeline.Input {
	out := make([]pipeline.Input, 0, len(distinct)*dupFactor)
	for r := 0; r < dupFactor; r++ {
		for _, in := range distinct {
			out = append(out, pipeline.Input{
				ID:      fmt.Sprintf("%s#%d", in.ID, r),
				Content: in.Content,
			})
		}
	}
	return out
}

// BenchmarkPipelineDayOverDay measures the content cache's economics: the
// cold run processes day N with an empty cache; the warm run processes a
// day N+1 whose content overlaps day N's by ~85% (the Figure 11 regime —
// RIG aside, kit bodies churn slowly, and benign content barely moves)
// against a cache primed with day N. The warm day pays tokenization,
// unpacking, and fingerprinting only for its novel 15%.
func BenchmarkPipelineDayOverDay(b *testing.B) {
	const (
		benign    = 150
		dupFactor = 3
		overlap   = 0.85
	)
	day := ekit.Date(8, 9)
	day1d := distinctDay(b, day, benign)
	nextd := distinctDay(b, day+1, benign)
	// Day N+1: ~85% of day N's distinct content is re-observed, the rest
	// is novel content drawn from the next stream day. Both days carry
	// the same observation multiplicity over same-sized distinct sets.
	carried := int(float64(len(day1d)) * overlap)
	novel := len(day1d) - carried
	if novel > len(nextd) {
		b.Fatalf("next day has %d distinct docs, need %d novel", len(nextd), novel)
	}
	day2d := append(append([]pipeline.Input(nil), day1d[:carried]...), nextd[:novel]...)
	day1 := replicate(day1d, dupFactor)
	day2 := replicate(day2d, dupFactor)

	corpus := pipeline.NewCorpus(winnow.DefaultConfig(), 16)
	for _, fam := range ekit.Families {
		corpus.Add(fam.String(), ekit.Payload(fam, day-1))
	}
	var bytes int64
	for _, in := range day1 {
		bytes += int64(len(in.Content))
	}

	run := func(b *testing.B, inputs []pipeline.Input, cache *contentcache.Cache) pipeline.Stats {
		cfg := pipeline.DefaultConfig()
		cfg.Cache = cache
		res, err := pipeline.Process(inputs, corpus, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res.Stats
	}

	b.Run("cold", func(b *testing.B) {
		var stats pipeline.Stats
		b.SetBytes(bytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stats = run(b, day1, contentcache.New(0))
		}
		b.ReportMetric(float64(stats.UniqueDocuments), "unique-docs")
	})
	b.Run("warm", func(b *testing.B) {
		var stats pipeline.Stats
		b.SetBytes(bytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache := contentcache.New(0)
			run(b, day1, cache) // yesterday primes the cache
			b.StartTimer()
			stats = run(b, day2, cache) // today pays only for new content
		}
		hitRate := 0.0
		if l := stats.CacheHits + stats.CacheMisses; l > 0 {
			hitRate = 100 * float64(stats.CacheHits) / float64(l)
		}
		b.ReportMetric(hitRate, "cache-hit-%")
		b.ReportMetric(float64(stats.UniqueDocuments), "unique-docs")
	})
}

// BenchmarkPipelineSharded runs the clustering AND reduce stages through
// the shard coordinator: N loopback workers, each pinned to one goroutine
// (one machine of the paper's 50-machine layout), with the coordinator's
// own stages also single-threaded. The full distributed path runs — JSON
// marshalling, the worker HTTP handler, response decoding — minus only
// the sockets. Partitions are dispatched as dedup emits them and the
// reduce's distance sweeps fan out to the fleet as edge jobs (the one
// dispatch mode, named mode=stream), through the coordinator's concurrent
// pull queue. Every reported number is measured: ns/op is the single-host
// wall-clock, so on a host with fewer cores than shards it shows the cost
// of distribution, not a fleet's speedup.
//
// Caches are cold every iteration — the honest daily-batch regime, in
// which the reduce's distance sweeps, not the partition clustering, are
// the fleet's serial floor (ROADMAP PR 3 "Next targets"); workers carry
// no verdict cache at all. Workers do carry resident sets, so runs
// exercise the locality layer: edge jobs route to the shard that
// clustered their rows and ship 20-byte content keys over the
// digest-first wire (wire-mb / edge-wire-mb report the resulting traffic
// per run).
//
// The synthetic stream's dedup collapses a plain day to ~50 unique
// shapes, which leaves too little clustering work to distribute, so the
// workload expands each sample into junk-insertion variants (the §V
// attacker mutation): hundreds of distinct-but-related token sequences —
// the regime where the paper needed 50 machines.
func BenchmarkPipelineSharded(b *testing.B) {
	cfg := ekit.DefaultStreamConfig()
	cfg.BenignPerDay = 40
	stream, err := ekit.NewStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	day := ekit.Date(8, 5)
	const variants = 4
	var inputs []pipeline.Input
	var bytes int64
	seed := int64(0)
	for _, s := range stream.Day(day) {
		for v := 0; v < variants; v++ {
			seed++
			doc := junkVariant(s.Content, seed, 0.12)
			inputs = append(inputs, pipeline.Input{ID: fmt.Sprintf("%s#%d", s.ID, v), Content: doc})
			bytes += int64(len(doc))
		}
	}
	corpus := pipeline.NewCorpus(winnow.DefaultConfig(), 16)
	for _, fam := range ekit.Families {
		corpus.Add(fam.String(), ekit.Payload(fam, day-1))
	}
	for _, shards := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("mode=stream/shards=%d", shards), func(b *testing.B) {
			workers := make([]*shardcoord.Worker, shards)
			for i := range workers {
				workers[i] = shardcoord.NewWorker(
					shardcoord.WithWorkerParallelism(1),
					shardcoord.WithWorkerResidentBudget(64<<20))
			}
			pcfg := pipeline.DefaultConfig()
			pcfg.Workers = 1
			pcfg.PartitionSize = 12 // many small partitions so the shared queue balances
			pcfg.Clusterer = shardcoord.NewCoordinator(shardcoord.NewLoopback(workers))
			var stats pipeline.Stats
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pcfg.Cache = contentcache.New(256 << 20) // cold day
				res, err := pipeline.Process(inputs, corpus, pcfg)
				if err != nil {
					b.Fatal(err)
				}
				stats = res.Stats
			}
			b.ReportMetric(float64(stats.UniqueSequences), "uniques")
			b.ReportMetric(float64(stats.Partitions), "partitions")
			b.ReportMetric(float64(stats.WireBytes)/1e6, "wire-mb")
			b.ReportMetric(float64(stats.EdgeWireBytes)/1e6, "edge-wire-mb")
		})
	}
}

// BenchmarkClusterVsReduce quantifies the paper's observation that
// clustering takes the majority of the time and the reduce step is the
// serial bottleneck.
func BenchmarkClusterVsReduce(b *testing.B) {
	cfg := ekit.DefaultStreamConfig()
	cfg.BenignPerDay = 400
	stream, err := ekit.NewStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	day := ekit.Date(8, 6)
	samples := stream.Day(day)
	inputs := make([]pipeline.Input, len(samples))
	for i, s := range samples {
		inputs[i] = pipeline.Input{ID: s.ID, Content: s.Content}
	}
	corpus := pipeline.NewCorpus(winnow.DefaultConfig(), 16)
	for _, fam := range ekit.Families {
		corpus.Add(fam.String(), ekit.Payload(fam, day-1))
	}
	pcfg := pipeline.DefaultConfig()
	pcfg.PartitionSize = 15 // stress the reduce step
	var stats pipeline.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipeline.Process(inputs, corpus, pcfg)
		if err != nil {
			b.Fatal(err)
		}
		stats = res.Stats
	}
	b.ReportMetric(float64(stats.Cluster.Microseconds()), "cluster-us")
	b.ReportMetric(float64(stats.Reduce.Microseconds()), "reduce-us")
	b.ReportMetric(float64(stats.Partitions), "partitions")
}

// --- Ablations ---

// BenchmarkAblationEps sweeps the DBSCAN threshold around the paper's 0.10:
// too small shatters kit clusters, too large merges distinct families.
func BenchmarkAblationEps(b *testing.B) {
	day := ekit.Date(8, 5)
	cfg := ekit.DefaultStreamConfig()
	cfg.BenignPerDay = 150
	stream, err := ekit.NewStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	samples := stream.Day(day)
	inputs := make([]pipeline.Input, len(samples))
	for i, s := range samples {
		inputs[i] = pipeline.Input{ID: s.ID, Content: s.Content}
	}
	corpus := pipeline.NewCorpus(winnow.DefaultConfig(), 16)
	for _, fam := range ekit.Families {
		corpus.Add(fam.String(), ekit.Payload(fam, day-1))
	}
	for _, eps := range []float64{0.02, 0.05, 0.10, 0.20, 0.40} {
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			var clusters, malicious int
			pcfg := pipeline.DefaultConfig()
			pcfg.Eps = eps
			for i := 0; i < b.N; i++ {
				res, err := pipeline.Process(inputs, corpus, pcfg)
				if err != nil {
					b.Fatal(err)
				}
				clusters, malicious = res.Stats.Clusters, res.Stats.Malicious
			}
			b.ReportMetric(float64(clusters), "clusters")
			b.ReportMetric(float64(malicious), "malicious")
		})
	}
}

// BenchmarkAblationSignatureCap sweeps the common-run token cap (the paper
// uses 200).
func BenchmarkAblationSignatureCap(b *testing.B) {
	day := synth.Date(8, 5)
	for _, cap := range []int{50, 100, 200, 400} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			var maxTokens, sigChars float64
			for i := 0; i < b.N; i++ {
				c := kizzle.New(kizzle.WithSignatureTokens(10, cap))
				for _, fam := range synth.Kits() {
					c.AddKnown(fam.String(), synth.Payload(fam, day-1))
				}
				scfg := synth.DefaultConfig()
				scfg.BenignPerDay = 60
				stream, err := synth.NewStream(scfg)
				if err != nil {
					b.Fatal(err)
				}
				var batch []kizzle.Sample
				for _, s := range stream.Day(day) {
					batch = append(batch, kizzle.Sample{ID: s.ID, Content: s.Content})
				}
				res, err := c.Process(batch)
				if err != nil {
					b.Fatal(err)
				}
				maxTokens, sigChars = 0, 0
				for _, sig := range res.Signatures {
					if float64(sig.TokenLength()) > maxTokens {
						maxTokens = float64(sig.TokenLength())
					}
					sigChars += float64(sig.Length())
				}
				if maxTokens > float64(cap) {
					b.Fatalf("signature %d tokens exceeds cap %d", int(maxTokens), cap)
				}
			}
			b.ReportMetric(maxTokens, "max-tokens")
			b.ReportMetric(sigChars, "total-chars")
		})
	}
}

// BenchmarkAblationSlack sweeps the signature length slack extension:
// next-day coverage rises with slack (0 is the paper's exact-lengths rule).
func BenchmarkAblationSlack(b *testing.B) {
	day := synth.Date(8, 5)
	scfg := synth.DefaultConfig()
	scfg.BenignPerDay = 80
	stream, err := synth.NewStream(scfg)
	if err != nil {
		b.Fatal(err)
	}
	var batch []kizzle.Sample
	for _, s := range stream.Day(day) {
		batch = append(batch, kizzle.Sample{ID: s.ID, Content: s.Content})
	}
	nextDay := stream.MaliciousDay(day + 1)
	for _, slack := range []int{0, 2, 6} {
		b.Run(fmt.Sprintf("slack=%d", slack), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				c := kizzle.New(kizzle.WithSignatureSlack(slack))
				for _, fam := range synth.Kits() {
					c.AddKnown(fam.String(), synth.Payload(fam, day-1))
				}
				res, err := c.Process(batch)
				if err != nil {
					b.Fatal(err)
				}
				m, err := kizzle.NewMatcher(res.Signatures)
				if err != nil {
					b.Fatal(err)
				}
				hit := 0
				for _, s := range nextDay {
					if m.Detects(s.Content) {
						hit++
					}
				}
				rate = float64(hit) / float64(len(nextDay))
			}
			b.ReportMetric(100*rate, "nextday-%")
		})
	}
}

// BenchmarkAblationTokenVsRaw demonstrates why clustering runs on abstract
// tokens: two same-day Nuclear samples are within eps in token space but
// far apart in raw byte space (per-sample keys re-encrypt the payload).
func BenchmarkAblationTokenVsRaw(b *testing.B) {
	day := ekit.Date(8, 5)
	payload := ekit.Payload(ekit.FamilyNuclear, day)
	s1 := ekit.Pack(ekit.FamilyNuclear, payload, day, 0)
	s2 := ekit.Pack(ekit.FamilyNuclear, payload, day, 1)
	tok1 := jstoken.Abstract(jstoken.Lex(s1))
	tok2 := jstoken.Abstract(jstoken.Lex(s2))
	raw1 := bytesAsSymbols(s1)
	raw2 := bytesAsSymbols(s2)
	var tokDist, rawDist float64
	for i := 0; i < b.N; i++ {
		tokDist = textdist.Normalized(tok1, tok2)
		rawDist = textdist.Normalized(raw1, raw2)
	}
	if tokDist > 0.10 {
		b.Fatalf("token distance %.3f should be within the 0.10 clustering eps", tokDist)
	}
	if rawDist < 0.3 {
		b.Fatalf("raw distance %.3f should be far outside eps", rawDist)
	}
	b.ReportMetric(tokDist, "token-dist")
	b.ReportMetric(rawDist, "raw-dist")
}

func bytesAsSymbols(s string) []jstoken.Symbol {
	out := make([]jstoken.Symbol, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = jstoken.Symbol(s[i])
	}
	return out
}

// BenchmarkAblationWinnow sweeps the winnowing parameters used for cluster
// labeling and reports the margin between a true Nuclear match and the
// benign PluginDetect near-miss.
func BenchmarkAblationWinnow(b *testing.B) {
	day := ekit.Date(8, 20)
	nuclear := ekit.Payload(ekit.FamilyNuclear, day)
	nuclearPrev := ekit.Payload(ekit.FamilyNuclear, day-1)
	pd := ekit.BenignSample(ekit.BenignPluginDetect, day, 0)
	for _, cfg := range []winnow.Config{{K: 3, Window: 4}, {K: 5, Window: 8}, {K: 8, Window: 16}} {
		b.Run(fmt.Sprintf("k=%d,w=%d", cfg.K, cfg.Window), func(b *testing.B) {
			var self, fp float64
			for i := 0; i < b.N; i++ {
				ref := winnow.Fingerprint(nuclearPrev, cfg)
				self = winnow.Overlap(winnow.Fingerprint(nuclear, cfg), ref)
				fp = winnow.Overlap(winnow.Fingerprint(pd, cfg), ref)
			}
			b.ReportMetric(100*self, "true-match-%")
			b.ReportMetric(100*fp, "benign-nearmiss-%")
			b.ReportMetric(100*(self-fp), "margin-%")
		})
	}
}

// BenchmarkAblationJunkAttack pits the §V junk-insertion evasion against
// single-run and multi-sequence signatures: the attacker sprays random
// statements between the packer's operations; fresh-variant detection is
// reported for both signature forms.
func BenchmarkAblationJunkAttack(b *testing.B) {
	day := synth.Date(8, 5)
	cfg := synth.DefaultConfig()
	cfg.BenignPerDay = 0
	stream, err := synth.NewStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	junk := func(doc string, seed int64) string { return junkVariant(doc, seed, 0.4) }
	var train, fresh []string
	i := int64(0)
	for _, s := range stream.Day(day) {
		if s.Family != synth.Angler {
			continue
		}
		i++
		if len(train) < 10 {
			train = append(train, junk(s.Content, i))
		} else if len(fresh) < 10 {
			fresh = append(fresh, junk(s.Content, 1000+i))
		}
	}
	var singleRate, multiRate float64
	for n := 0; n < b.N; n++ {
		// Single-run signature over the junked cluster.
		singleHits := 0
		c := kizzle.New(kizzle.WithSignatureSlack(2))
		for _, fam := range synth.Kits() {
			c.AddKnown(fam.String(), synth.Payload(fam, day-1))
		}
		batch := make([]kizzle.Sample, len(train))
		for j, d := range train {
			batch[j] = kizzle.Sample{ID: fmt.Sprintf("t%d", j), Content: d}
		}
		res, err := c.Process(batch)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Signatures) > 0 {
			m, err := kizzle.NewMatcher(res.Signatures)
			if err != nil {
				b.Fatal(err)
			}
			for _, d := range fresh {
				if m.Detects(d) {
					singleHits++
				}
			}
		}
		singleRate = float64(singleHits) / float64(len(fresh))

		// Multi-sequence signature over the same cluster.
		multiHits := 0
		if multi, err := kizzle.GenerateMulti("Angler", train, kizzle.WithMultiSlack(2)); err == nil {
			mm, err := kizzle.NewMultiMatcher([]kizzle.MultiSignature{multi})
			if err != nil {
				b.Fatal(err)
			}
			for _, d := range fresh {
				if mm.Detects(d) {
					multiHits++
				}
			}
		}
		multiRate = float64(multiHits) / float64(len(fresh))
	}
	b.ReportMetric(100*singleRate, "single-run-%")
	b.ReportMetric(100*multiRate, "multi-seq-%")
	if multiRate < singleRate {
		b.Fatalf("multi-sequence detection %.2f below single-run %.2f", multiRate, singleRate)
	}
}

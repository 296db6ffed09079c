package main

import (
	"time"

	"kizzle"
	"kizzle/internal/jstoken"
	"kizzle/internal/siggen"
	"kizzle/internal/unpack"
	"kizzle/internal/webkittoken"
	"kizzle/internal/winnow"
)

// replayCap bounds how many distinct documents a layer replay re-runs,
// so the traced run stays within the benchmark's time limit.
const replayCap = 4000

// perLayer computes the per-layer metrics of a traced run from its
// spans, the counters the program exports, and replays of the run's
// documents through each front-half module's public functions.
func perLayer(r *run, tr *tracer) map[string]metric {
	m := make(map[string]metric)
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	count := func(name string, v int64) { set(name, float64(v), "count") }
	frac := func(name string, q ratio) { set(name, q.value(), "fraction") }

	// pipeline, contentcache, shardcoord: the publish cycles.
	cycles := int64(len(r.cycles))
	count("pipeline.cycles", cycles)
	set("pipeline.primary_ms", ms(perTrace(tr.named("pipeline.primary")).median()), "ms")
	set("pipeline.verify_ms", ms(perTrace(tr.named("pipeline.verify")).median()), "ms")
	var st kizzle.Stats
	for _, c := range r.cycles {
		for _, res := range c.results {
			s := res.Stats
			st.UniqueSequences += s.UniqueSequences
			st.Partitions += s.Partitions
			st.Clusters += s.Clusters
			st.LabelSweeps += s.LabelSweeps
			st.CacheHits += s.CacheHits
			st.CacheMisses += s.CacheMisses
			st.WireBytes += s.WireBytes
		}
	}
	perCycle := func(n int) float64 { return ratio{int64(n), cycles}.value() }
	set("pipeline.unique_seqs", perCycle(st.UniqueSequences), "count/cycle")
	set("pipeline.partitions", perCycle(st.Partitions), "count/cycle")
	set("pipeline.clusters", perCycle(st.Clusters), "count/cycle")
	set("pipeline.label_sweeps", perCycle(st.LabelSweeps), "count/cycle")
	count("contentcache.lookups", st.CacheHits+st.CacheMisses)
	frac("contentcache.hit_frac", ratio{st.CacheHits, st.CacheHits + st.CacheMisses})

	partition := tr.named("shardcoord/partition")
	edges := append(tr.named("shardcoord/edges"), tr.named("shardcoord/edges3")...)
	set("shardcoord.partition_ms", ms(total(partition)), "ms")
	set("shardcoord.edges_ms", ms(total(edges)), "ms")
	units := append(partition, edges...)
	count("shardcoord.units", int64(len(units)))
	set("shardcoord.wire_mb", float64(st.WireBytes)/(1<<20), "MiB")
	failed := int64(0)
	for _, s := range units {
		if s.Status < 200 || s.Status > 299 {
			failed++
		}
	}
	count("shardcoord.failed", failed)

	// sigdb: publish, delivery to the strict client, and its counters.
	set("sigdb.publish_ms", ms(durations(tr.named("sigdb.publish")).median()), "ms")
	var deliver samples
	unchanged := int64(0)
	for _, c := range r.cycles {
		if c.changed {
			deliver = append(deliver, c.deliver)
		} else {
			unchanged++
		}
	}
	set("sigdb.deliver_ms", ms(deliver.median()), "ms")
	frac("sigdb.unchanged_frac", ratio{unchanged, cycles})
	cd := func(k string) int64 { return counter(r.clientAfter, k) - counter(r.clientBefore, k) }
	set("sigdb.wire_kb", float64(cd("wire_bytes_full")+cd("wire_bytes_delta"))/1024, "KiB")
	fetches := cd("fetches_full") + cd("fetches_delta")
	count("sigdb.fetches", fetches)
	frac("sigdb.delta_frac", ratio{cd("fetches_delta"), fetches})
	built := cd("signatures_compiled") + cd("signatures_reused")
	count("sigdb.sigs_built", built)
	frac("sigdb.reused_frac", ratio{cd("signatures_reused"), built})
	count("sigdb.attest_rejected", cd("attest_rejected"))

	// gateway, sigmatch, verdictcache, load: the serving phase.
	ad := func(k string) int64 { return counter(r.admitAfter, k) - counter(r.admitBefore, k) }
	vd := func(k string) int64 { return counter(r.storeAfter, k) - counter(r.storeBefore, k) }
	front, origin := tr.named("gateway.front"), tr.named("gateway.origin")
	fd := durations(front)
	set("gateway.front_us_p50", us(fd.median()), "us")
	set("gateway.front_us_p99", us(fd.upTo(99)), "us")
	set("gateway.origin_us", us(durations(origin).median()), "us")
	scans := tr.named("sigmatch.scan")
	gets, puts := tr.named("verdictcache.get"), tr.named("verdictcache.put")
	requests := ad("requests")
	count("gateway.requests", requests)
	shared := total(scans) + total(gets) + total(puts)
	set("gateway.residual_us", us(meanSelf(front, origin)-time.Duration(ratio{int64(shared), requests}.value())), "us")
	set("gateway.batch_docs", ratio{requests, ad("batches")}.value(), "docs/batch")
	frac("gateway.coalesced_frac", ratio{ad("coalesced"), requests})
	set("gateway.arm_us", us(durations(tr.named("sigdb.apply")).median()), "us")

	var scanned, scanBytes int64
	for _, s := range scans {
		scanned += s.Items
		scanBytes += s.Bytes
	}
	set("sigmatch.scan_us_per_doc", us(time.Duration(ratio{int64(total(scans)), scanned}.value())), "us")
	set("sigmatch.scans_per_request", ratio{r.scannedAfter - r.scannedBefore, requests}.value(), "scans/request")
	set("sigmatch.mb", float64(scanBytes)/(1<<20), "MiB")

	gd, pd := durations(gets), durations(puts)
	set("verdictcache.get_us_p50", us(gd.median()), "us")
	set("verdictcache.get_us_p99", us(gd.upTo(99)), "us")
	set("verdictcache.put_us_p50", us(pd.median()), "us")
	set("verdictcache.put_us_p99", us(pd.upTo(99)), "us")
	lookups := vd("hits") + vd("misses")
	count("verdictcache.lookups", lookups)
	frac("verdictcache.hit_frac", ratio{vd("hits"), lookups})
	count("verdictcache.rejects", ad("shared_rejects"))
	count("verdictcache.failopen", vd("errors"))

	var late samples
	failedReq := int64(0)
	for _, o := range r.open {
		late = append(late, o.late)
	}
	// The request-to-verdict tail: the p99 of each 1000-request segment,
	// median over segments. Reported here rather than gated end to end:
	// between identical runs on a 2-vCPU VM it varies more than the
	// largest regression bound allows (see README.md).
	v99, _ := r.verdicts().segmented(segment, 99)
	set("verdict_us_p99", us(v99), "us")
	for _, o := range append(append([]outcome(nil), r.open...), r.closed...) {
		if o.err != nil {
			failedReq++
		}
	}
	set("load.late_ms_p99", ms(late.upTo(99)), "ms")
	count("load.sent", int64(len(r.open)))
	count("load.closed", int64(len(r.closed)))
	count("load.failed", failedReq)

	replayLayers(r, set, count, frac)
	return m
}

// counter reads an integer counter from a Metrics() map.
func counter(m map[string]any, key string) int64 {
	switch v := m[key].(type) {
	case int64:
		return v
	case int:
		return int64(v)
	}
	return 0
}

// median is the p50 of s, 0 for no samples.
func (s samples) median() time.Duration {
	v, err := s.percentile(50)
	if err != nil {
		return 0
	}
	return v
}

// upTo is percentile p of s when at least minTail samples lie beyond it,
// else the highest lower percentile on the ladder that has them.
func (s samples) upTo(p float64) time.Duration {
	best := time.Duration(0)
	for _, q := range ladder {
		if q > p {
			break
		}
		if v, err := s.percentile(q); err == nil {
			best = v
		}
	}
	return best
}

// perTrace sums span durations per trace (one value per cycle).
func perTrace(spans []span) samples {
	by := make(map[int64]time.Duration)
	for _, s := range spans {
		by[s.Trace] += s.dur()
	}
	out := make(samples, 0, len(by))
	for _, d := range by {
		out = append(out, d)
	}
	return out
}

// meanSelf is the mean self time of parents whose children share their
// trace: here the front proxy's span minus the origin fetch it made.
func meanSelf(parents, children []span) time.Duration {
	if len(parents) == 0 {
		return 0
	}
	kids := make(map[int64][]interval)
	for _, c := range children {
		kids[c.Trace] = append(kids[c.Trace], interval{c.Start, c.End})
	}
	var sum time.Duration
	for _, p := range parents {
		sum += selfTime(interval{p.Start, p.End}, kids[p.Trace])
	}
	return sum / time.Duration(len(parents))
}

// replayLayers re-runs the run's documents through the front-half
// modules — the profile lexers, the unpackers, winnowing and signature
// generation — timing each call from the benchmark, since these layers
// run inside Process where no seam exposes them.
func replayLayers(r *run, set func(string, float64, string), count func(string, int64), frac func(string, ratio)) {
	lexers := map[string]func(string) []jstoken.Token{
		"js": jstoken.LexDocument, "webkit": webkittoken.LexDocument,
	}
	byProfile := map[string][]string{}
	seen := map[string]bool{}
	add := func(p, content string) {
		if len(byProfile[p]) < replayCap && !seen[p+"\x00"+content] {
			seen[p+"\x00"+content] = true
			byProfile[p] = append(byProfile[p], content)
		}
	}
	contentOf := map[string]string{}
	for _, c := range r.in.cycles {
		for p, ss := range c.samples {
			for _, s := range ss {
				add(p, s.Content)
				contentOf[s.ID] = s.Content
			}
		}
	}
	for _, o := range append(append([]outcome(nil), r.open...), r.closed...) {
		for _, p := range r.profilesArmed {
			add(p, r.in.docs[o.doc].Content)
		}
	}
	names := map[string]string{"js": "jstoken", "webkit": "webkittoken"}
	for _, p := range profiles {
		var bytes int64
		t0 := time.Now()
		for _, d := range byProfile[p] {
			lexers[p](d)
			bytes += int64(len(d))
		}
		el := time.Since(t0)
		set(names[p]+".lex_us_per_kb", per(el, float64(bytes)/1024), "us/KiB")
		count(names[p]+".docs", int64(len(byProfile[p])))
		set(names[p]+".mb", float64(bytes)/(1<<20), "MiB")
	}

	// Cluster representatives, unpacked payloads and malicious clusters'
	// sampled members, from each cycle's primary result.
	type rep struct{ profile, content string }
	var reps []rep
	var unpacked []string
	type sigJob struct {
		profile, family string
		members         []string
	}
	var jobs []sigJob
	seenRep := map[rep]bool{}
	for _, c := range r.cycles {
		for p, res := range c.results {
			for _, cl := range res.Clusters {
				if len(cl.SampleIDs) == 0 {
					continue
				}
				key := rep{p, contentOf[cl.SampleIDs[0]]}
				if seenRep[key] || len(reps) >= replayCap {
					continue
				}
				seenRep[key] = true
				reps = append(reps, key)
				unpacked = append(unpacked, cl.Unpacked)
				if cl.Family != "" && cl.SignatureIndex >= 0 {
					var members []string
					for _, id := range spread(cl.SampleIDs, 24) {
						members = append(members, contentOf[id])
					}
					jobs = append(jobs, sigJob{p, cl.Family, members})
				}
			}
		}
	}
	ok := int64(0)
	t0 := time.Now()
	for _, x := range reps {
		var err error
		if x.profile == "js" {
			_, err = unpack.Unpack(x.content)
		} else {
			_, err = webkittoken.Unpack(x.content)
		}
		if err == nil {
			ok++
		}
	}
	set("unpack.us_per_doc", per(time.Since(t0), float64(len(reps))), "us")
	count("unpack.docs", int64(len(reps)))
	frac("unpack.ok_frac", ratio{ok, int64(len(reps))})

	var ubytes int64
	t0 = time.Now()
	for _, u := range unpacked {
		winnow.Fingerprint(u, winnow.DefaultConfig())
		ubytes += int64(len(u))
	}
	set("winnow.fingerprint_us_per_kb", per(time.Since(t0), float64(ubytes)/1024), "us/KiB")

	var gen time.Duration
	sigs := int64(0)
	for _, j := range jobs {
		streams := make([][]jstoken.Token, len(j.members))
		for i, d := range j.members {
			streams[i] = lexers[j.profile](d)
		}
		t := time.Now()
		_, err := siggen.Generate(j.family, streams, siggen.DefaultConfig())
		gen += time.Since(t)
		if err == nil {
			sigs++
		}
	}
	set("siggen.generate_ms", ms(gen), "ms")
	count("siggen.signatures", sigs)
}

// per is microseconds per unit of work, 0 when there was none.
func per(d time.Duration, units float64) float64 {
	if units == 0 {
		return 0
	}
	return us(d) / units
}

// spread picks at most n items evenly across ids, as the pipeline
// samples a large cluster's members for signature generation.
func spread(ids []string, n int) []string {
	if len(ids) <= n {
		return ids
	}
	stride := len(ids) / n
	var out []string
	for i := 0; i < len(ids) && len(out) < n; i += stride {
		out = append(out, ids[i])
	}
	return out
}

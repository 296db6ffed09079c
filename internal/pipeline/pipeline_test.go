package pipeline

import (
	"fmt"
	"strings"

	"kizzle/internal/contentcache"
	"testing"

	"kizzle/internal/ekit"
	"kizzle/internal/winnow"
)

// testConfig returns a pipeline config sized for unit tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.PartitionSize = 120
	return cfg
}

// seedCorpus seeds a corpus with the previous day's unpacked kit payloads,
// the way the evaluation harness does.
func seedCorpus(day int) *Corpus {
	c := NewCorpus(winnow.DefaultConfig(), 16)
	for _, fam := range ekit.Families {
		c.Add(fam.String(), ekit.Payload(fam, day-1))
		c.Add(fam.String(), ekit.Payload(fam, day-2))
	}
	return c
}

func inputsFromSamples(samples []ekit.Sample) []Input {
	in := make([]Input, len(samples))
	for i, s := range samples {
		in[i] = Input{ID: s.ID, Content: s.Content}
	}
	return in
}

func TestProcessEmptyInput(t *testing.T) {
	if _, err := Process(nil, nil, testConfig()); err != ErrNoInputs {
		t.Errorf("err = %v, want ErrNoInputs", err)
	}
}

// TestProcessLabelsAllKits runs the full pipeline over one simulated day
// and checks every kit's traffic ends in a correctly labeled cluster with a
// signature.
func TestProcessLabelsAllKits(t *testing.T) {
	cfg := ekit.DefaultStreamConfig()
	cfg.BenignPerDay = 150
	stream, err := ekit.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	day := ekit.Date(8, 5)
	samples := stream.Day(day)
	res, err := Process(inputsFromSamples(samples), seedCorpus(day), testConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Map every sample index to its ground truth.
	truth := make([]ekit.Family, len(samples))
	for i, s := range samples {
		truth[i] = s.Family
	}

	labeled := make(map[ekit.Family]int)
	mislabeled := 0
	for _, cl := range res.Clusters {
		for _, si := range cl.Samples {
			want := truth[si]
			if cl.Label == "" {
				continue
			}
			if cl.Label == want.String() {
				labeled[want]++
			} else {
				mislabeled++
			}
		}
	}
	for _, fam := range ekit.Families {
		total := 0
		for i := range samples {
			if truth[i] == fam {
				total++
			}
		}
		if total == 0 {
			continue
		}
		if labeled[fam] < total*3/4 {
			t.Errorf("%v: only %d/%d samples in correctly labeled clusters", fam, labeled[fam], total)
		}
	}
	// A small number of benign mislabels is by design: the shared-code
	// benign families (PluginDetect / the charcode tracker) cross their
	// family thresholds on some days — the paper's false-positive
	// mechanism (Figure 15). Bound it rather than forbid it.
	if mislabeled > len(samples)*3/100 {
		t.Errorf("%d samples mislabeled (> 3%%)", mislabeled)
	}

	// Each malicious cluster must have produced a signature.
	for _, cl := range res.Clusters {
		if cl.Label != "" && cl.SignatureIndex < 0 {
			t.Errorf("malicious cluster %q (%d samples) has no signature", cl.Label, len(cl.Samples))
		}
	}
	if res.Stats.Malicious == 0 {
		t.Error("no malicious clusters found")
	}
	if res.Stats.Clusters < 10 {
		t.Errorf("only %d clusters; benign families should form many", res.Stats.Clusters)
	}
}

// TestProcessBenignOnly verifies that a stream without kits produces no
// malicious labels against an empty corpus.
func TestProcessBenignOnly(t *testing.T) {
	cfg := ekit.DefaultStreamConfig()
	cfg.BenignPerDay = 120
	cfg.KitPerDay = nil
	stream, err := ekit.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	day := ekit.Date(8, 6)
	res, err := Process(inputsFromSamples(stream.Day(day)), NewCorpus(winnow.DefaultConfig(), 8), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range res.Clusters {
		if cl.Label != "" {
			t.Errorf("benign-only stream produced malicious cluster %q", cl.Label)
		}
	}
	if len(res.Signatures) != 0 {
		t.Errorf("benign-only stream produced %d signatures", len(res.Signatures))
	}
}

// TestProcessDeterministic ensures two runs produce identical clusters.
func TestProcessDeterministic(t *testing.T) {
	cfg := ekit.DefaultStreamConfig()
	cfg.BenignPerDay = 80
	stream, err := ekit.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	day := ekit.Date(8, 7)
	in := inputsFromSamples(stream.Day(day))
	a, err := Process(in, seedCorpus(day), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Process(in, seedCorpus(day), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Clusters) != len(b.Clusters) || len(a.Signatures) != len(b.Signatures) {
		t.Fatalf("runs differ: %d/%d clusters, %d/%d signatures",
			len(a.Clusters), len(b.Clusters), len(a.Signatures), len(b.Signatures))
	}
	for i := range a.Signatures {
		if a.Signatures[i].Regex() != b.Signatures[i].Regex() {
			t.Errorf("signature %d differs between runs", i)
		}
	}
}

// TestReduceMergesAcrossPartitions forces a tiny partition size so that one
// kit's samples land in different partitions, then verifies the reduce step
// still assembles one cluster per kit.
func TestReduceMergesAcrossPartitions(t *testing.T) {
	cfg := ekit.DefaultStreamConfig()
	cfg.BenignPerDay = 40
	stream, err := ekit.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	day := ekit.Date(8, 8)
	samples := stream.Day(day)
	pcfg := testConfig()
	pcfg.PartitionSize = 10 // force heavy partitioning
	res, err := Process(inputsFromSamples(samples), seedCorpus(day), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	anglerClusters := 0
	anglerSamples := 0
	for _, cl := range res.Clusters {
		if cl.Label == ekit.FamilyAngler.String() {
			anglerClusters++
			anglerSamples += len(cl.Samples)
		}
	}
	total := 0
	for _, s := range samples {
		if s.Family == ekit.FamilyAngler {
			total++
		}
	}
	if anglerSamples < total*3/4 {
		t.Errorf("Angler coverage after reduce: %d/%d samples", anglerSamples, total)
	}
}

func TestCorpus(t *testing.T) {
	c := NewCorpus(winnow.DefaultConfig(), 2)
	if f, o := c.BestMatch("anything"); f != "" || o != 0 {
		t.Errorf("empty corpus BestMatch = (%q,%v)", f, o)
	}
	c.Add("RIG", "aaaa bbbb cccc dddd eeee ffff")
	c.Add("Nuclear", "zzzz yyyy xxxx wwww vvvv uuuu")
	fams := c.Families()
	if len(fams) != 2 || fams[0] != "Nuclear" || fams[1] != "RIG" {
		t.Errorf("Families = %v", fams)
	}
	f, o := c.BestMatch("aaaa bbbb cccc dddd eeee ffff")
	if f != "RIG" || o < 0.99 {
		t.Errorf("BestMatch = (%q,%v), want RIG ~1.0", f, o)
	}
	// Eviction: cap is 2 per family.
	c.Add("RIG", "1111")
	c.Add("RIG", "2222")
	c.Add("RIG", "3333")
	if got := c.Size("RIG"); got != 2 {
		t.Errorf("RIG corpus size = %d, want 2 (evicted)", got)
	}
}

func TestCorpusOverlapWith(t *testing.T) {
	c := NewCorpus(winnow.DefaultConfig(), 4)
	text := "function detect() { return navigator.plugins.length; }"
	c.Add("Nuclear", text)
	if got := c.OverlapWith("Nuclear", text); got < 0.99 {
		t.Errorf("self overlap = %v", got)
	}
	if got := c.OverlapWith("RIG", text); got != 0 {
		t.Errorf("unknown family overlap = %v, want 0", got)
	}
}

func TestConfigThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Thresholds = map[string]float64{"Nuclear": 0.8}
	if got := cfg.Threshold("Nuclear"); got != 0.8 {
		t.Errorf("Nuclear threshold = %v", got)
	}
	if got := cfg.Threshold("RIG"); got != cfg.DefaultThreshold {
		t.Errorf("default threshold = %v", got)
	}
}

// recordingSession captures emitted partitions without executing them.
type recordingSession struct {
	emitted []emittedPartition
}

func (s *recordingSession) submitPartition(ep emittedPartition) {
	s.emitted = append(s.emitted, ep)
}
func (s *recordingSession) collect(*uniqueSet) ([]summary, error)    { return nil, nil }
func (s *recordingSession) edges(rows, cols []int) ([][2]int, error) { return nil, nil }
func (s *recordingSession) close()                                   {}

// TestStreamPartitioning pins the streaming emission contract: every
// unique sequence lands in exactly one partition, partitions fill to
// PartitionSize in dedup-discovery order (last one partial), and the
// emitted weights count the members each unique had at emission time.
func TestStreamPartitioning(t *testing.T) {
	var inputs []Input
	// 10 distinct shapes, interleaved so duplicates keep arriving after a
	// shape's partition closed.
	for rep := 0; rep < 3; rep++ {
		for v := 0; v < 10; v++ {
			inputs = append(inputs, Input{
				ID: fmt.Sprintf("s%d-%d", v, rep),
				// Structurally distinct shapes: v+1 repeated statements.
				Content: "var a = 0;" + strings.Repeat("a++;", v+1),
			})
		}
	}
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.PartitionSize = 3
	cfg.PartitionFanout = 1 // single buffer: partitions chunk in discovery order
	cfg.Cache = contentcache.New(1 << 20)
	sess := &recordingSession{}
	out := runClusterStage(inputs, cfg, sess)

	if out.uniqueDocs != 10 {
		t.Fatalf("unique documents = %d, want 10", out.uniqueDocs)
	}
	if len(out.u.seqs) != 10 {
		t.Fatalf("unique sequences = %d, want 10", len(out.u.seqs))
	}
	if want := 4; len(sess.emitted) != want || out.partitions != want {
		t.Fatalf("emitted %d partitions (stats %d), want %d", len(sess.emitted), out.partitions, want)
	}
	seen := make(map[int]bool)
	next := 0
	for pi, ep := range sess.emitted {
		wantLen := cfg.PartitionSize
		if pi == len(sess.emitted)-1 {
			wantLen = 1
		}
		if len(ep.uniques) != wantLen || len(ep.part.Seqs) != wantLen || len(ep.part.Weights) != wantLen {
			t.Fatalf("partition %d has %d uniques, want %d", pi, len(ep.uniques), wantLen)
		}
		for k, ui := range ep.uniques {
			if seen[ui] {
				t.Fatalf("unique %d assigned twice", ui)
			}
			seen[ui] = true
			// Discovery order: uniques are emitted in creation order.
			if ui != next {
				t.Fatalf("partition %d emits unique %d, want %d (discovery order)", pi, ui, next)
			}
			next++
			if got := out.emitWeight[ui]; got != ep.part.Weights[k] {
				t.Fatalf("unique %d emit weight %d != wire weight %d", ui, got, ep.part.Weights[k])
			}
			if !symbolsEqual(ep.part.Seqs[k], out.u.seqs[ui]) {
				t.Fatalf("partition %d ships wrong sequence for unique %d", pi, ui)
			}
		}
	}
	if len(seen) != 10 {
		t.Fatalf("%d uniques emitted, want 10", len(seen))
	}
	// All 10 shapes appear once before any repeats, so the first three
	// partitions close before any duplicate arrives (weight 1 each); final
	// weights count all three copies.
	for ui := 0; ui < 9; ui++ {
		if out.emitWeight[ui] != 1 {
			t.Errorf("unique %d emit weight = %d, want 1 (emitted before duplicates)", ui, out.emitWeight[ui])
		}
		if got := len(out.u.members[ui]); got != 3 {
			t.Errorf("unique %d final members = %d, want 3", ui, got)
		}
	}
}

// TestStreamPartitionScatter pins the round-robin scatter: with fanout F,
// consecutive uniques land in F different partitions, every unique is
// assigned exactly once, and runs of near-identical consecutive shapes
// are split apart.
func TestStreamPartitionScatter(t *testing.T) {
	var inputs []Input
	const uniques = 24
	for v := 0; v < uniques; v++ {
		inputs = append(inputs, Input{
			ID:      fmt.Sprintf("s%d", v),
			Content: "var a = 0;" + strings.Repeat("a++;", v+1),
		})
	}
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.PartitionSize = 3
	cfg.PartitionFanout = 4
	cfg.Cache = contentcache.New(1 << 20)
	sess := &recordingSession{}
	out := runClusterStage(inputs, cfg, sess)
	if len(out.u.seqs) != uniques {
		t.Fatalf("unique sequences = %d, want %d", len(out.u.seqs), uniques)
	}
	partOf := make(map[int]int)
	for pi, ep := range sess.emitted {
		for _, ui := range ep.uniques {
			if _, dup := partOf[ui]; dup {
				t.Fatalf("unique %d assigned twice", ui)
			}
			partOf[ui] = pi
		}
		// Round-robin scatter: a partition's uniques are congruent mod
		// fanout — consecutive discoveries never share a partition.
		for _, ui := range ep.uniques[1:] {
			if ui%cfg.PartitionFanout != ep.uniques[0]%cfg.PartitionFanout {
				t.Fatalf("partition %d mixes scatter residues: %v", pi, ep.uniques)
			}
		}
	}
	if len(partOf) != uniques {
		t.Fatalf("%d uniques assigned, want %d", len(partOf), uniques)
	}
	for ui := 0; ui+1 < uniques; ui++ {
		if partOf[ui] == partOf[ui+1] {
			t.Fatalf("consecutive uniques %d,%d share partition %d", ui, ui+1, partOf[ui])
		}
	}
}

func BenchmarkProcessDay(b *testing.B) {
	cfg := ekit.DefaultStreamConfig()
	cfg.BenignPerDay = 300
	stream, err := ekit.NewStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	day := ekit.Date(8, 5)
	in := inputsFromSamples(stream.Day(day))
	corpus := seedCorpus(day)
	pcfg := testConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Process(in, corpus, pcfg); err != nil {
			b.Fatal(err)
		}
	}
}

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"strings"

	"kizzle"
	"kizzle/internal/ekit"
	"kizzle/internal/phishkit"
)

// doc is one generated document with its ground truth. Truth comes from
// the synthetic generators, never from the compiler under test.
type doc struct {
	ID      string
	Content string
	Kit     bool
}

// known is one AddKnown call: a labeled unpacked payload.
type known struct {
	profile string
	family  string
	payload string
}

// compileInput is one publish cycle's input: the samples per ingest
// profile, the distinct documents among them (for recall and false
// positives), and the AddKnown calls issued before the compile.
type compileInput struct {
	samples map[string][]kizzle.Sample
	oracle  []doc
	known   []known
}

// inputs is everything a workload feeds the stack. The program under
// test sees only these; the seed that made them stays in the benchmark.
type inputs struct {
	training compileInput
	cycles   []compileInput
	// docs are the documents the origin serves; requests index into them.
	docs []doc
	// warmup, open and closed are the request sequences of the
	// connection warm-up, the open-loop phase and the closed-loop phase.
	warmup, open, closed []int
}

// profiles are the ingest profiles in publish order.
var profiles = []string{"js", "webkit"}

// digest fingerprints the generated inputs in order, so one seed can be
// shown to give one input set and another seed another.
func (in *inputs) digest() string {
	h := sha256.New()
	add := func(c compileInput) {
		for _, p := range profiles {
			for _, s := range c.samples[p] {
				put(h, p, s.ID, s.Content)
			}
		}
		for _, k := range c.known {
			put(h, k.profile, k.family, k.payload)
		}
	}
	add(in.training)
	for _, c := range in.cycles {
		add(c)
	}
	for _, d := range in.docs {
		put(h, d.ID, d.Content)
	}
	for _, seq := range [][]int{in.warmup, in.open, in.closed} {
		var b [8]byte
		for _, i := range seq {
			binary.LittleEndian.PutUint64(b[:], uint64(i))
			h.Write(b[:])
		}
		h.Write([]byte{0xff})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// put writes length-prefixed strings, so boundaries cannot alias.
func put(h hash.Hash, ss ...string) {
	var b [8]byte
	for _, s := range ss {
		binary.LittleEndian.PutUint64(b[:], uint64(len(s)))
		h.Write(b[:])
		h.Write([]byte(s))
	}
}

// family label under which a profile's kit publishes: bare for js,
// namespaced for every other profile.
func familyLabel(profile, family string) string {
	if profile == "js" {
		return family
	}
	return profile + "/" + family
}

// knownFor lists every kit's payload of a day as AddKnown calls.
func knownFor(day int, withWebkit bool) []known {
	var out []known
	for _, f := range ekit.Families {
		out = append(out, known{"js", familyLabel("js", f.String()), ekit.Payload(f, day)})
	}
	if withWebkit {
		for _, f := range phishkit.Families {
			out = append(out, known{"webkit", familyLabel("webkit", f.String()), phishkit.Payload(f, day)})
		}
	}
	return out
}

// stableDay reports whether no kit of either corpus changes version on
// day, so a set trained on the day's samples with the previous day's
// payloads labels every kit (flip days are the paper's documented
// false-negative case, which would make recall depend on the seed).
func stableDay(day int) bool {
	for _, f := range ekit.Families {
		if ekit.IsVersionFlipDay(f, day) {
			return false
		}
	}
	for _, f := range phishkit.Families {
		if phishkit.VersionIndex(f, day) != phishkit.VersionIndex(f, day-1) {
			return false
		}
	}
	return true
}

// pickStableDay draws a stable day in [lo, hi).
func pickStableDay(rng *rand.Rand, lo, hi int) int {
	for {
		if d := lo + rng.Intn(hi-lo); stableDay(d) {
			return d
		}
	}
}

func jsDocs(st *ekit.Stream, day int) []doc {
	var out []doc
	for _, s := range st.Day(day) {
		out = append(out, doc{ID: s.ID, Content: s.Content, Kit: s.Family.Malicious()})
	}
	return out
}

func webkitDocs(st *phishkit.Stream, day int) []doc {
	var out []doc
	for _, s := range st.Day(day) {
		out = append(out, doc{ID: s.ID, Content: s.Content, Kit: s.Family.Malicious()})
	}
	return out
}

// junkVariant sprays random statements between a document's statements
// with probability rate per boundary: the attacker mutation of the
// paper's §V, used here to make structurally distinct but related
// documents, so a day's dedup leaves a distinct sequence per sample.
func junkVariant(content string, rng *rand.Rand, rate float64) string {
	ident := func() string {
		b := make([]byte, 3+rng.Intn(5))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	var sb strings.Builder
	for _, s := range strings.SplitAfter(content, ";") {
		sb.WriteString(s)
		if rng.Float64() >= rate {
			continue
		}
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&sb, "var %s=%s(%d);", ident(), ident(), 10+rng.Intn(90))
		case 1:
			sb.WriteString(ident() + "++;")
		case 2:
			fmt.Fprintf(&sb, "if(%s){%s=%d;}", ident(), ident(), 10+rng.Intn(90))
		default:
			fmt.Fprintf(&sb, "while(false){%s();}", ident())
		}
	}
	return sb.String()
}

// samplesOf turns documents into compile samples, each observed mult
// times (identical content under distinct IDs).
func samplesOf(docs []doc, mult int) []kizzle.Sample {
	out := make([]kizzle.Sample, 0, len(docs)*mult)
	for _, d := range docs {
		for k := 0; k < mult; k++ {
			id := d.ID
			if mult > 1 {
				id = fmt.Sprintf("%s#%d", d.ID, k)
			}
			out = append(out, kizzle.Sample{ID: id, Content: d.Content})
		}
	}
	return out
}

// shuffled returns a seeded permutation of docs.
func shuffled(rng *rand.Rand, docs []doc) []doc {
	out := append([]doc(nil), docs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// topUp extends a compile workload's served documents, when its cycles
// did not produce enough, with seeded junk-insertion variants of them:
// new content, so each is still requested once.
func (in *inputs) topUp(rng *rand.Rand, p plan) {
	need := p.warmup + p.openN + p.closedN
	seen := make(map[string]bool, need)
	for _, d := range in.docs {
		seen[d.Content] = true
	}
	base := len(in.docs)
	for i := 0; len(in.docs) < need && i < 10*need; i++ {
		d := in.docs[i%base]
		d.ID = fmt.Sprintf("%s~v%d", d.ID, i)
		if d.Content = junkVariant(d.Content, rng, 0.12); !seen[d.Content] {
			seen[d.Content] = true
			in.docs = append(in.docs, d)
		}
	}
}

// serveOnce fills the request sequences with each document requested at
// most once, in order; it fails when there are too few documents.
func (in *inputs) serveOnce(p plan) error {
	need := p.warmup + p.openN + p.closedN
	if len(in.docs) < need {
		return fmt.Errorf("%d distinct documents for %d requests", len(in.docs), need)
	}
	seq := make([]int, need)
	for i := range seq {
		seq[i] = i
	}
	in.warmup, in.open, in.closed = seq[:p.warmup], seq[p.warmup:p.warmup+p.openN], seq[p.warmup+p.openN:]
	return nil
}

// coldQuota is the fixed composition of a compile-cold cycle: kit
// samples per family (each at or under the family's smallest daily
// volume) plus benign pages. A fixed size keeps the cycles' cost from
// swinging with the generator's ±50% daily volumes, so the run's median
// rests on the content, not on the draw of volumes.
var coldQuota = map[ekit.Family]int{
	ekit.FamilyAngler: 14, ekit.FamilySweetOrange: 5, ekit.FamilyNuclear: 3, ekit.FamilyRIG: 1, ekit.FamilyBenign: 17,
}

// compileColdInputs: every cycle is a cold ekit day — a seeded day's
// samples in the fixed coldQuota mix, each rewritten into a seeded
// junk-insertion variant, so every sample is its own distinct sequence —
// compiled with the previous day's payloads as the known corpus.
func compileColdInputs(seed int64, p plan) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := ekit.DefaultStreamConfig()
	cfg.BenignPerDay = coldQuota[ekit.FamilyBenign]
	st, err := ekit.NewStream(cfg)
	if err != nil {
		return nil, err
	}
	days := make(map[int][]ekit.Sample)
	in := &inputs{}
	day := func(c int) compileInput {
		d := pickStableDay(rng, ekit.Date(6, 10), ekit.AugustEnd+1)
		if days[d] == nil {
			days[d] = st.Day(d)
		}
		byFamily := make(map[ekit.Family][]ekit.Sample)
		for _, s := range days[d] {
			byFamily[s.Family] = append(byFamily[s.Family], s)
		}
		junk := rand.New(rand.NewSource(rng.Int63()))
		var docs []doc
		for _, f := range append([]ekit.Family{ekit.FamilyBenign}, ekit.Families...) {
			pool := byFamily[f]
			for _, i := range junk.Perm(len(pool))[:coldQuota[f]] {
				docs = append(docs, doc{
					ID:      fmt.Sprintf("%s~%d", pool[i].ID, c),
					Content: junkVariant(pool[i].Content, junk, 0.12),
					Kit:     f.Malicious(),
				})
			}
		}
		return compileInput{
			samples: map[string][]kizzle.Sample{"js": samplesOf(docs, 1)},
			oracle:  docs,
			known:   knownFor(d-1, false),
		}
	}
	in.training = day(-1)
	for c := 0; c < p.cycles; c++ {
		in.cycles = append(in.cycles, day(c))
	}
	var all []doc
	for _, c := range in.cycles {
		all = append(all, c.oracle...)
	}
	in.docs = shuffled(rng, all)
	in.topUp(rng, p)
	return in, in.serveOnce(p)
}

// overlapDay builds the next day of a corpus at the previous day's size:
// a keep share of the previous day's distinct documents carried over, the
// rest drawn from the new day's.
func overlapDay(rng *rand.Rand, prev, fresh []doc, keep float64) []doc {
	k := int(keep*float64(len(prev)) + 0.5)
	n := min(len(prev)-k, len(fresh))
	out := append([]doc(nil), shuffled(rng, prev)[:k]...)
	out = append(out, shuffled(rng, fresh)[:n]...)
	return shuffled(rng, out)
}

// recompileWarmInputs: day-over-day cycles for one long-lived js+webkit
// compiler pair. Each cycle carries ~85% of the previous cycle's
// documents, every document observed three times, plus one AddKnown
// payload change (rotating over the eight kit families).
func recompileWarmInputs(seed int64, p plan) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	jcfg := ekit.DefaultStreamConfig()
	jcfg.BenignPerDay = 60
	js, err := ekit.NewStream(jcfg)
	if err != nil {
		return nil, err
	}
	wcfg := phishkit.DefaultStreamConfig()
	wcfg.BenignPerDay = 60
	wk, err := phishkit.NewStream(wcfg)
	if err != nil {
		return nil, err
	}
	// Later days only supply the ~15% fresh documents, so they are drawn
	// from streams a third the size, with the same kit-to-benign mix.
	jcfg = ekit.DefaultStreamConfig()
	jcfg.BenignPerDay = 20
	for f, n := range jcfg.KitPerDay {
		jcfg.KitPerDay[f] = (n + 2) / 3
	}
	jsNext, err := ekit.NewStream(jcfg)
	if err != nil {
		return nil, err
	}
	wcfg = phishkit.DefaultStreamConfig()
	wcfg.BenignPerDay = 20
	for f, n := range wcfg.KitPerDay {
		wcfg.KitPerDay[f] = (n + 2) / 3
	}
	wkNext, err := phishkit.NewStream(wcfg)
	if err != nil {
		return nil, err
	}
	d0 := ekit.Date(6, 10) + rng.Intn(50)
	const mult = 3
	prevJS, prevWK := jsDocs(js, d0), webkitDocs(wk, d0)
	mk := func(j, w []doc, kn []known) compileInput {
		return compileInput{
			samples: map[string][]kizzle.Sample{"js": samplesOf(j, mult), "webkit": samplesOf(w, mult)},
			oracle:  append(append([]doc(nil), j...), w...),
			known:   kn,
		}
	}
	in := &inputs{training: mk(prevJS, prevWK, knownFor(d0-1, true))}
	seen := make(map[string]bool)
	var all []doc
	for c := 0; c < p.cycles; c++ {
		d := d0 + 1 + c
		prevJS = overlapDay(rng, prevJS, jsDocs(jsNext, d), 0.85)
		prevWK = overlapDay(rng, prevWK, webkitDocs(wkNext, d), 0.85)
		change := knownFor(d, true)[c%8]
		in.cycles = append(in.cycles, mk(prevJS, prevWK, []known{change}))
		for _, x := range append(append([]doc(nil), prevJS...), prevWK...) {
			if !seen[x.ID] {
				seen[x.ID] = true
				all = append(all, x)
			}
		}
	}
	in.docs = shuffled(rng, all)
	in.topUp(rng, p)
	return in, in.serveOnce(p)
}

// trainingDay is the serve workloads' armed set input: one stable day of
// both corpora, compiled with the previous day's payloads.
func trainingDay(rng *rand.Rand) (int, compileInput, error) {
	d := pickStableDay(rng, ekit.AugustStart, ekit.AugustEnd+1)
	jcfg := ekit.DefaultStreamConfig()
	jcfg.BenignPerDay = 100
	js, err := ekit.NewStream(jcfg)
	if err != nil {
		return 0, compileInput{}, err
	}
	wcfg := phishkit.DefaultStreamConfig()
	wcfg.BenignPerDay = 100
	wk, err := phishkit.NewStream(wcfg)
	if err != nil {
		return 0, compileInput{}, err
	}
	j, w := jsDocs(js, d), webkitDocs(wk, d)
	return d, compileInput{
		samples: map[string][]kizzle.Sample{"js": samplesOf(j, 1), "webkit": samplesOf(w, 1)},
		oracle:  append(append([]doc(nil), j...), w...),
		known:   knownFor(d-1, true),
	}, nil
}

// idleCycles repeats the training input: the publisher's periodic tick
// with no new samples, which certifies and republishes an unchanged set.
// Their recall is measured on the served documents instead.
func idleCycles(t compileInput, n int) []compileInput {
	out := make([]compileInput, n)
	for i := range out {
		out[i] = compileInput{samples: t.samples}
	}
	return out
}

// serveZipfInputs: requests draw zipf(s=1.5) ranks over a seeded
// ordering of the training day's documents, so a few documents carry
// most of the traffic.
func serveZipfInputs(seed int64, p plan) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	_, t, err := trainingDay(rng)
	if err != nil {
		return nil, err
	}
	in := &inputs{training: t, cycles: idleCycles(t, p.cycles), docs: shuffled(rng, t.oracle)}
	z := rand.NewZipf(rng, 1.5, 1, uint64(len(in.docs)-1))
	draw := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = int(z.Uint64())
		}
		return out
	}
	in.warmup, in.open, in.closed = draw(p.warmup), draw(p.openN), draw(p.closedN)
	return in, nil
}

// serveUniqueInputs: the training day's stack serving documents that are
// each requested once — the same day's traffic at a larger scale,
// de-duplicated by content and put in seeded order.
func serveUniqueInputs(seed int64, p plan) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	d, t, err := trainingDay(rng)
	if err != nil {
		return nil, err
	}
	// A quarter kits, split evenly between the two corpora, with a margin
	// for the kits' day-to-day volume swing and for duplicates.
	need := max(200, (p.warmup+p.openN+p.closedN)*6/5)
	jcfg := ekit.DefaultStreamConfig()
	jcfg.BenignPerDay = need * 3 / 8
	for f, n := range jcfg.KitPerDay {
		jcfg.KitPerDay[f] = n * need / 8 / 63
	}
	js, err := ekit.NewStream(jcfg)
	if err != nil {
		return nil, err
	}
	wcfg := phishkit.DefaultStreamConfig()
	wcfg.BenignPerDay = need * 3 / 8
	for f, n := range wcfg.KitPerDay {
		wcfg.KitPerDay[f] = n * need / 8 / 53
	}
	wk, err := phishkit.NewStream(wcfg)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var all []doc
	for _, x := range append(jsDocs(js, d), webkitDocs(wk, d)...) {
		if !seen[x.Content] {
			seen[x.Content] = true
			all = append(all, x)
		}
	}
	in := &inputs{training: t, cycles: idleCycles(t, p.cycles), docs: shuffled(rng, all)}
	return in, in.serveOnce(p)
}

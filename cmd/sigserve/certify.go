package main

// Publish certification: diverse double-compiling for the signature
// pipeline. With -certify, every candidate signature set the primary
// compiler produces is recompiled from the same input corpus by a second,
// freshly-constructed compiler driven through an intentionally different
// execution path — in-process instead of fleet (or the same fleet on a
// permuted shard assignment), with a seeded permutation of the reduce
// sweeps' schedule — and the publish lands only when the two paths agree
// byte for byte. A compromised or flaky shard worker, a
// schedule-dependent pipeline bug, or a corrupted warm cache shows up as
// a disagreement: the set is quarantined with both artifacts in the
// audit log, the serving version never moves, and the operator gets both
// sides to diff. Only the final signature sets are compared: a byzantine
// worker whose lie leaves the signatures unchanged certifies clean.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"kizzle"
	"kizzle/sigdb"
)

// errQuarantined marks a certification failure: nothing was installed
// and the prior version keeps serving. The recompile loop (and the
// startup path) treats it as a logged condition, not a fatal error — a
// disagreeing publish must never take the serving store down with it.
var errQuarantined = errors.New("publish quarantined: certification paths disagreed")

// pathSpec describes one compile execution path. The zero value is the
// plain in-process path. Output-sensitive knobs (the ingest profiles)
// must be identical across the primary and verification specs — they
// change the compiled set by design, not by defect — while every
// output-invariant knob (mode, schedule seed) is fair game for diversity.
type pathSpec struct {
	shardURLs []string
	seed      int64
	// profiles lists the ingest workloads this path compiles (empty means
	// the default JS workload).
	profiles []string
}

// mode names where clustering runs.
func (p pathSpec) mode() string {
	if len(p.shardURLs) > 0 {
		return "fleet"
	}
	return "in-process"
}

// descriptor renders the spec for attestations and quarantine records.
// Every compile streams, and every fleet routes edge jobs by residency.
func (p pathSpec) descriptor() sigdb.PathDescriptor {
	d := sigdb.PathDescriptor{
		Mode:     p.mode(),
		Shards:   len(p.shardURLs),
		Dispatch: "stream",
		Affinity: len(p.shardURLs) > 0,
		Seed:     p.seed,
	}
	// A JS-only path keeps the pre-profile descriptor form, so existing
	// attestation consumers see unchanged records.
	if len(p.profiles) > 0 && !(len(p.profiles) == 1 && p.profiles[0] == "js") {
		d.Profile = strings.Join(p.profiles, ",")
	}
	return d
}

// options translates the spec into compiler options.
func (p pathSpec) options() []kizzle.Option {
	var opts []kizzle.Option
	if len(p.shardURLs) > 0 {
		opts = append(opts, kizzle.WithShardWorkers(p.shardURLs...))
	}
	if p.seed != 0 {
		opts = append(opts, kizzle.WithScheduleSeed(p.seed))
	}
	return opts
}

// workloadOptions translates the spec into compiler options for one
// ingest workload: the shared path options plus the profile selection
// (the default JS profile is left implicit, keeping cache keys and wire
// requests in their pre-profile form).
func (p pathSpec) workloadOptions(profile string) []kizzle.Option {
	opts := p.options()
	if profile != "" && profile != "js" {
		opts = append(opts, kizzle.WithProfile(profile))
	}
	return opts
}

// certConfig is the publisher's certification setup: the verification
// path and, optionally, the attestation signing key (installed on the
// store, recorded here only for documentation of intent).
type certConfig struct {
	verify pathSpec
}

// verifyPathSpec derives the verification path from the primary: permute
// the schedule while pinning the output-sensitive profiles. mode selects
// where the verifier runs: "inprocess" (the strongest diversity against
// a misbehaving fleet: no worker touches the second compile, and the
// seed reorders the reduce sweeps of an in-process primary) or "fleet"
// (re-dispatches across the same workers on a permuted shard assignment
// and edge-job composition, so no worker sees the same units in the same
// role twice).
func verifyPathSpec(primary pathSpec, mode string, seed int64) (pathSpec, error) {
	v := pathSpec{seed: seed, profiles: primary.profiles}
	switch mode {
	case "inprocess":
	case "fleet":
		if len(primary.shardURLs) == 0 {
			return pathSpec{}, fmt.Errorf("-certverify fleet requires -shards")
		}
		v.shardURLs = primary.shardURLs
	default:
		return pathSpec{}, fmt.Errorf("-certverify %q must be inprocess or fleet", mode)
	}
	return v, nil
}

// corpusDigest fingerprints the exact compile input across every
// workload: each profile marker (elided for the default JS workload, so
// single-JS digests keep their pre-profile values), every known payload
// (in the deterministic seeding order), and every sample (in processing
// order), length-prefixed so boundaries cannot alias.
func corpusDigest(runs []workloadRun) string {
	h := sha256.New()
	var n [8]byte
	put := func(s string) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		io.WriteString(h, s)
	}
	for _, run := range runs {
		if run.w.profile != "js" {
			put("profile:" + run.w.profile)
		}
		for _, name := range run.w.knownNames {
			put(name)
			put(run.w.knownBodies[name])
		}
		for _, s := range run.samples {
			put(s.ID)
			put(s.Content)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// certify runs the verification compiles and gates the publish on
// bit-identical agreement. One verifier per workload is constructed
// fresh each cycle — cold caches, its own clustering path — and seeded
// with the same known corpus in the same deterministic order, so the
// only thing the two compiles share is their input; the concatenated
// verification set is compared against the primary's concatenated set,
// so one digest covers the whole mixed-workload publish. Agreement
// publishes with an attestation; disagreement records a quarantine
// carrying both artifacts and returns errQuarantined without touching
// the serving version.
func (p *publisher) certify(runs []workloadRun, allSigs []kizzle.Signature) (version int64, changed bool, err error) {
	var verifySigs []kizzle.Signature
	for _, run := range runs {
		verifier := kizzle.New(p.cert.verify.workloadOptions(run.w.profile)...)
		for _, name := range run.w.knownNames {
			verifier.AddKnown(run.w.familyLabel(name), run.w.knownBodies[name])
		}
		vres, err := verifier.Process(run.samples)
		if err != nil {
			return 0, false, fmt.Errorf("verification compile (%s, %s): %w",
				run.w.profile, p.cert.verify.descriptor(), err)
		}
		verifySigs = append(verifySigs, vres.Signatures...)
	}
	primaryDigest, err := sigdb.SetDigest(allSigs, nil)
	if err != nil {
		return 0, false, err
	}
	verifyDigest, err := sigdb.SetDigest(verifySigs, nil)
	if err != nil {
		return 0, false, err
	}
	corpus := corpusDigest(runs)
	if primaryDigest == verifyDigest {
		version, changed, _, err = p.store.PublishAttested(allSigs, nil,
			corpus, p.primary.descriptor(), p.cert.verify.descriptor())
		if err == nil {
			p.certified.Add(1)
		}
		return version, changed, err
	}
	primarySet, err := json.Marshal(allSigs)
	if err != nil {
		return 0, false, fmt.Errorf("marshal primary artifact: %w", err)
	}
	verifySet, err := json.Marshal(verifySigs)
	if err != nil {
		return 0, false, fmt.Errorf("marshal verification artifact: %w", err)
	}
	q := sigdb.Quarantine{
		CorpusDigest:  corpus,
		Primary:       p.primary.descriptor(),
		Verify:        p.cert.verify.descriptor(),
		PrimaryDigest: primaryDigest,
		VerifyDigest:  verifyDigest,
		PrimarySet:    primarySet,
		VerifySet:     verifySet,
		Reason: fmt.Sprintf("recompile verification failed: %s produced %.12s.., %s produced %.12s..",
			p.primary.descriptor(), primaryDigest, p.cert.verify.descriptor(), verifyDigest),
	}
	if err := p.store.RecordQuarantine(q); err != nil {
		return 0, false, fmt.Errorf("record quarantine: %w", err)
	}
	p.quarantined.Add(1)
	return 0, false, fmt.Errorf("%w: %s produced %.12s.., %s produced %.12s.. (serving v%d unchanged)",
		errQuarantined, p.primary.descriptor(), primaryDigest,
		p.cert.verify.descriptor(), verifyDigest, p.store.Version())
}

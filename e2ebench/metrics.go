package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"
)

// endToEnd computes the metrics a user of the system sees.
func endToEnd(r *run) (map[string]metric, error) {
	setup, err := r.setup.percentile(50)
	if err != nil {
		return nil, err
	}
	armed50, err := r.armed.percentile(50)
	if err != nil {
		return nil, fmt.Errorf("armed_ms_p50: %w", err)
	}
	armed90, err := r.armed.percentile(90)
	if err != nil {
		return nil, fmt.Errorf("armed_ms_p90: %w", err)
	}
	v50, err := r.verdicts().percentile(50)
	if err != nil {
		return nil, fmt.Errorf("verdict_us_p50: %w", err)
	}
	return map[string]metric{
		"setup_s":        {setup.Seconds(), "s"},
		"armed_ms_p50":   {ms(armed50), "ms"},
		"armed_ms_p90":   {ms(armed90), "ms"},
		"verdict_us_p50": {us(v50), "us"},
		"docs_per_s":     {medianRate(r.closedRates), "docs/s"},
		"recall":         {ratio{r.oracle.kitsBlocked, r.oracle.kits}.value(), "fraction"},
		"benign_pass":    {1 - ratio{r.oracle.benignBlocked, r.oracle.benign}.value(), "fraction"},
		"peak_rss_mb":    {r.peakRSSMB, "MiB"},
	}, nil
}

// medianRate is the median of the closed-loop segments' rates.
func medianRate(rates []float64) float64 {
	s := append([]float64(nil), rates...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return s[len(s)/2]
}

// chainDigest condenses the per-cycle set digests into one value: two
// runs of one seed must print the same.
func chainDigest(digests []string) string {
	h := sha256.Sum256([]byte(strings.Join(digests, "\n")))
	return hex.EncodeToString(h[:])[:16]
}

// durations extracts span durations.
func durations(spans []span) samples {
	out := make(samples, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}

// total sums span durations.
func total(spans []span) time.Duration {
	var t time.Duration
	for _, s := range spans {
		t += s.dur()
	}
	return t
}

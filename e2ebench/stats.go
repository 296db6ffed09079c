package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a tail estimate resting on fewer is noise.
const minTail = 10

// samples is a set of recorded timings. Percentiles are computed exactly
// from the recorded values (never from bucketed histograms, whose bucket
// widths exceed the benchmark's regression bounds).
type samples []time.Duration

// sorted returns an ascending copy.
func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rank is the 1-based nearest-rank index of percentile p (0 < p <= 100)
// among n samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error (99.9% of 10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// beyond counts the samples strictly above the nearest-rank percentile p.
func beyond(n int, p float64) int { return n - rank(n, p) }

// percentile returns the nearest-rank percentile p of s. It fails when
// fewer than minTail samples lie beyond it, so a reported tail always
// has a tail behind it.
func (s samples) percentile(p float64) (time.Duration, error) {
	n := len(s)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	if p < 100 && p > 50 && beyond(n, p) < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond(n, p), minTail)
	}
	return s.sorted()[rank(n, p)-1], nil
}

// segment is the number of consecutive samples one tail estimate rests
// on: the p99 of 1000 samples has exactly minTail beyond it.
const segment = 1000

// segmented is percentile p of each run of n consecutive samples (a
// trailing partial run is dropped), and the median of those. A host stall
// lands in one segment and moves one estimate, where over the pooled
// samples it would move the tail itself. Every segment must hold minTail
// samples beyond p.
func (s samples) segmented(n int, p float64) (time.Duration, error) {
	var per samples
	for i := 0; i+n <= len(s); i += n {
		v, err := s[i : i+n].percentile(p)
		if err != nil {
			return 0, err
		}
		per = append(per, v)
	}
	if len(per) == 0 {
		return 0, fmt.Errorf("p%g over segments of %d: only %d samples", p, n, len(s))
	}
	return per.percentile(50)
}

// ladder is the percentile ladder tailPercentile climbs.
var ladder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// tailPercentile returns the highest percentile on the ladder with at
// least minTail samples beyond it (p50 when none has), with its value
// and the sample count it rests on.
func (s samples) tailPercentile() (p float64, v time.Duration, n int) {
	n = len(s)
	p = ladder[0]
	for _, q := range ladder[1:] {
		if beyond(n, q) >= minTail {
			p = q
		}
	}
	if n == 0 {
		return p, 0, 0
	}
	return p, s.sorted()[rank(n, p)-1], n
}

// ms and us convert durations to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a useful ÷ attempted quotient reported with its base, so a
// fraction is never read without knowing how many attempts it covers.
type ratio struct {
	num, den int64
}

// value is num ÷ den, and 0 when nothing was attempted (the base, 0,
// says so).
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return float64(r.num) / float64(r.den)
}

// dueLatency is an open-loop request's latency: completion minus the
// time the request was due to be sent, so a stall that delays later
// sends is charged to every request it delayed (no coordinated
// omission). A request that completed before its due time (impossible
// unless the clock stepped) counts as zero.
func dueLatency(due, done time.Time) time.Duration {
	if d := done.Sub(due); d > 0 {
		return d
	}
	return 0
}

// interval is a half-open time span [start, end).
type interval struct {
	start, end time.Duration
}

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap each other and stick out of the parent;
// only their union clipped to the parent counts.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := time.Duration(0)
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

package main

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func millis(n int) samples {
	s := make(samples, n)
	for i := range s {
		// Reverse order: percentiles must not depend on recording order.
		s[i] = time.Duration(n-i) * time.Millisecond
	}
	return s
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want time.Duration
		ok   bool
	}{
		{100, 50, 50 * time.Millisecond, true},
		{100, 90, 90 * time.Millisecond, true},
		{99, 90, 0, false}, // rank 90 of 99 leaves 9 beyond
		{1000, 99, 990 * time.Millisecond, true},
		{999, 99, 0, false},
		{1, 50, time.Millisecond, true},
	} {
		got, err := millis(tc.n).percentile(tc.p)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("p%g of %d: got %v, %v; want %v, ok=%v", tc.p, tc.n, got, err, tc.want, tc.ok)
		}
	}
	if _, err := samples(nil).percentile(50); err == nil {
		t.Error("p50 of no samples succeeded")
	}
}

func TestTailPercentileReportsHighestWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
		wantV time.Duration
	}{
		{5, 50, 3 * time.Millisecond},
		{40, 75, 30 * time.Millisecond},
		{100, 90, 90 * time.Millisecond},
		{1000, 99, 990 * time.Millisecond},
		{10000, 99.9, 9990 * time.Millisecond},
	} {
		p, v, n := millis(tc.n).tailPercentile()
		if p != tc.wantP || v != tc.wantV || n != tc.n {
			t.Errorf("%d samples: got p%g=%v over %d, want p%g=%v over %d", tc.n, p, v, n, tc.wantP, tc.wantV, tc.n)
		}
		if beyond(tc.n, p) < minTail && p != 50 {
			t.Errorf("%d samples: p%g has %d beyond", tc.n, p, beyond(tc.n, p))
		}
	}
}

func TestSegmentedTailIgnoresAStallInOneSegment(t *testing.T) {
	s := append(append(millis(1000), millis(1000)...), millis(1000)...)
	for i := 1000; i < 1100; i++ {
		s[i] = time.Second // a stall covering a tenth of the middle segment
	}
	got, err := s.segmented(1000, 99)
	if err != nil || got != 990*time.Millisecond {
		t.Errorf("segmented p99 = %v, %v; want the unstalled segments' 990ms", got, err)
	}
	if pooled, _ := s.percentile(99); pooled != time.Second {
		t.Errorf("pooled p99 = %v, want the stall", pooled)
	}
	if _, err := millis(999).segmented(1000, 99); err == nil {
		t.Error("a partial segment produced a tail")
	}
	if _, err := millis(2000).segmented(500, 99); err == nil {
		t.Error("a p99 over 500-sample segments has 5 beyond and must fail")
	}
}

func TestUpToFallsBackToATailWithTenBeyond(t *testing.T) {
	// 300 samples: p99 has 3 beyond, p95 has 15.
	if got, want := millis(300).upTo(99), 285*time.Millisecond; got != want {
		t.Errorf("upTo(99) of 300 = %v, want p95 %v", got, want)
	}
	if got := samples(nil).upTo(99); got != 0 {
		t.Errorf("upTo of no samples = %v", got)
	}
}

func TestDueLatencyChargesAStallToEveryDelayedRequest(t *testing.T) {
	const stallAt, stall = 10, 60 * time.Millisecond
	docs := make([]doc, 100)
	for i := range docs {
		docs[i] = doc{Content: "doc " + strconv.Itoa(i)}
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i, _ := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/d/"))
		if i == stallAt {
			time.Sleep(stall)
		}
		w.Write([]byte(docs[i].Content))
	}))
	defer srv.Close()
	ld := newLoader(srv.URL, docs, 1)
	defer ld.close()
	seq := make([]int, len(docs))
	for i := range seq {
		seq[i] = i
	}
	// One request due every 2ms over one connection: the stall holds up
	// the ~30 requests due while it lasts.
	out := ld.openLoop(seq, 500, 0)
	var lat, late samples
	delayed := 0
	for _, o := range out {
		if o.err != nil {
			t.Fatalf("request %d: %v", o.doc, o.err)
		}
		lat = append(lat, o.lat)
		late = append(late, o.late)
		if o.doc > stallAt && o.lat > stall/3 {
			delayed++
		}
	}
	if delayed < 15 {
		t.Errorf("%d requests after the stall waited > %v; timing from send time would show none", delayed, stall/3)
	}
	if p90, _ := lat.percentile(90); p90 < stall/4 {
		t.Errorf("p90 %v does not show the stall", p90)
	}
	// The generator itself kept to its schedule.
	if p50, _ := late.percentile(50); p50 > 5*time.Millisecond {
		t.Errorf("generator ran %v late at the median", p50)
	}
	now := time.Now()
	if got := dueLatency(now, now.Add(-time.Millisecond)); got != 0 {
		t.Errorf("completion before due = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{ms(10, 20), ms(50, 60)}, 80},
		{"overlapping children count once", []interval{ms(10, 30), ms(20, 40)}, 70},
		{"nested", []interval{ms(10, 50), ms(20, 30)}, 60},
		{"clipped to the parent", []interval{ms(-10, 10), ms(90, 120)}, 80},
		{"outside the parent", []interval{ms(200, 300)}, 100},
		{"covering the parent", []interval{ms(-5, 105)}, 0},
	} {
		if got := selfTime(ms(0, 100), tc.children); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", tc.name, got, tc.want)
		}
	}
}

func TestRatiosReportTheirBase(t *testing.T) {
	if got := (ratio{3, 4}).value(); got != 0.75 {
		t.Errorf("3/4 = %v", got)
	}
	if got := (ratio{0, 0}).value(); got != 0 {
		t.Errorf("nothing attempted = %v, want 0", got)
	}
	var c counts
	for _, x := range []struct{ kit, blocked bool }{{true, true}, {true, false}, {false, false}, {false, true}, {false, false}} {
		c.add(x.kit, x.blocked)
	}
	if recall := (ratio{c.kitsBlocked, c.kits}); recall.value() != 0.5 || recall.den != 2 {
		t.Errorf("recall %v over %d", recall.value(), recall.den)
	}
	if fp := (ratio{c.benignBlocked, c.benign}); fp.den != 3 || fp.num != 1 {
		t.Errorf("false positives %d over %d", fp.num, fp.den)
	}
}

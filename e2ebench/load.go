package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kizzle/internal/zerocopy"
)

// blockedPrefix starts the body gateway.Proxy answers a blocked document
// with.
var blockedPrefix = []byte("blocked by kizzle: ")

// outcome is one served request: which document, the verdict the
// gateway returned, and its latency.
type outcome struct {
	doc     int
	blocked bool
	err     error
	// lat is measured from the request's due time in the open loop and
	// from its send time in the closed loop.
	lat time.Duration
	// late is how far behind schedule the generator handed the request
	// to a connection (open loop only).
	late time.Duration
}

// docBytes views the documents' contents as byte slices without copying
// them: the origin and the load generator only read them, and a copy per
// consumer would triple the heap the serving phase runs on.
func docBytes(docs []doc) [][]byte {
	out := make([][]byte, len(docs))
	for i, d := range docs {
		out[i] = zerocopy.Bytes(d.Content)
	}
	return out
}

// loader is the load generator: a fixed set of keep-alive connections to
// the front proxy.
type loader struct {
	hc    *http.Client
	base  string
	docs  [][]byte
	conns int
}

func newLoader(base string, docs []doc, conns int) *loader {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loader{hc: &http.Client{Transport: tr, Timeout: 10 * time.Second}, base: base, docs: docBytes(docs), conns: conns}
}

// close drops the loader's idle connections.
func (l *loader) close() { l.hc.CloseIdleConnections() }

// get requests one document and reads the gateway's verdict: 403 with the
// blocked body, or 200 with the origin's bytes unaltered.
func (l *loader) get(req, d int) (bool, error) {
	r, err := http.NewRequest(http.MethodGet, l.base+"/d/"+strconv.Itoa(d), nil)
	if err != nil {
		return false, err
	}
	r.Header.Set(requestHeader, strconv.Itoa(req))
	resp, err := l.hc.Do(r)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, fmt.Errorf("read verdict: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if !bytes.Equal(body, l.docs[d]) {
			return false, fmt.Errorf("document %d: admitted body differs from the origin's", d)
		}
		return false, nil
	case http.StatusForbidden:
		if !bytes.HasPrefix(body, blockedPrefix) {
			return false, fmt.Errorf("document %d: 403 without a block verdict", d)
		}
		return true, nil
	default:
		return false, fmt.Errorf("document %d: status %s", d, resp.Status)
	}
}

// openLoop sends seq[i] at start + i/rate regardless of how earlier
// requests fared, over at most l.conns connections, and times each
// request from its due time. first numbers the requests for tracing.
func (l *loader) openLoop(seq []int, rate float64, first int) []outcome {
	out := make([]outcome, len(seq))
	type job struct {
		i         int
		due, sent time.Time
	}
	jobs := make(chan job, len(seq)) // one slot per send: the schedule never blocks on a busy connection
	var wg sync.WaitGroup
	for w := 0; w < l.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				blocked, err := l.get(first+j.i, seq[j.i])
				out[j.i] = outcome{doc: seq[j.i], blocked: blocked, err: err,
					lat: dueLatency(j.due, time.Now()), late: dueLatency(j.due, j.sent)}
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	for i := range seq {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{i: i, due: due, sent: time.Now()}
	}
	close(jobs)
	wg.Wait()
	return out
}

// closedLoop sends seq over l.conns connections, each sending its next
// request when the previous one completes, and returns the outcomes and
// the wall time the batch took.
func (l *loader) closedLoop(seq []int, first int) ([]outcome, time.Duration) {
	out := make([]outcome, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < l.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				t0 := time.Now()
				blocked, err := l.get(first+i, seq[i])
				out[i] = outcome{doc: seq[i], blocked: blocked, err: err, lat: time.Since(t0)}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

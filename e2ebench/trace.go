package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded layer boundary: what ran, when, on behalf of
// which request or cycle (Trace), and under which enclosing span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Status is the HTTP status for handler spans.
	Status int `json:"status,omitempty"`
	// Bytes and Items are the payload size and document count the span
	// handled, where it has them.
	Bytes int64 `json:"bytes,omitempty"`
	Items int64 `json:"items,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for the run; they are summarized into
// per-layer metrics and written out once the run ends. A nil *tracer is
// the untraced run: every method is a no-op, and no wrapper that calls
// it is installed.
type tracer struct {
	epoch time.Time
	// on gates recording: set-up runs with the wrappers installed but
	// records nothing, so only the measured phases leave spans.
	on    atomic.Bool
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is an in-flight span; end records it.
type open struct {
	t *tracer
	s span
}

// begin starts a span. trace groups the spans of one request or cycle.
func (t *tracer) begin(name string, trace, parent int64) *open {
	if t == nil || !t.on.Load() {
		return nil
	}
	return &open{t: t, s: span{ID: t.next.Add(1), Parent: parent, Trace: trace, Name: name, Start: time.Since(t.epoch)}}
}

// endItems records the span with the bytes and documents it handled.
func (o *open) endItems(bytes, items int64) {
	if o == nil {
		return
	}
	o.s.Items = items
	o.endWith(0, bytes)
}

// id is the span's identifier (0 for the untraced no-op span).
func (o *open) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end records the span.
func (o *open) end() { o.endWith(0, 0) }

// endWith records the span with an HTTP status and a byte count.
func (o *open) endWith(status int, bytes int64) {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.t.epoch)
	o.s.Status, o.s.Bytes = status, bytes
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// named returns the recorded spans with the given name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.all() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write saves the spans as one JSON document under dir.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, file)
	b, err := json.Marshal(t.all())
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// requestHeader carries the load generator's request number through the
// front proxy to the origin, so the spans of one request share a trace;
// parentHeader carries the front span's ID to the origin span.
const (
	requestHeader = "X-Bench-Request"
	parentHeader  = "X-Bench-Parent"
)

// statusRecorder captures the status and body size a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the wrapped writer.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// traceHandler records a span around every request h serves, named by
// name (or, with byPath, name plus the URL path).
func (t *tracer) traceHandler(name string, byPath bool, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := name
		if byPath {
			n += r.URL.Path
		}
		trace, _ := strconv.ParseInt(r.Header.Get(requestHeader), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(parentHeader), 10, 64)
		sp := t.begin(n, trace, parent)
		if sp != nil {
			r.Header.Set(parentHeader, strconv.FormatInt(sp.id(), 10))
		}
		rec := &statusRecorder{ResponseWriter: w}
		h.ServeHTTP(rec, r)
		sp.endWith(rec.status, rec.bytes)
	})
}

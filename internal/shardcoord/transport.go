package shardcoord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// HTTPTransport dispatches partition requests to shard workers over HTTP
// (each URL is one worker's base address, e.g. "http://shard-3:9191").
type HTTPTransport struct {
	urls   []string
	client *http.Client
	// Cumulative request+response body bytes of successful round trips —
	// total and the /edges3 share. The numbers the workers' resident sets
	// are judged by.
	wireTotal atomic.Int64
	wireEdges atomic.Int64
}

// defaultPartitionTimeout bounds one partition request on the default
// client. Without it a worker that accepts the connection but never
// responds would block its shard queue forever — failover only triggers
// on a returned error. Generous, because a large partition legitimately
// takes a while on a loaded worker.
const defaultPartitionTimeout = 5 * time.Minute

// NewHTTPTransport builds a transport over worker base URLs. client may
// be nil for a default client with a 5-minute per-request timeout (pass
// an explicit client to change it; a zero-timeout client reintroduces
// the hung-worker hazard).
func NewHTTPTransport(urls []string, client *http.Client) *HTTPTransport {
	if client == nil {
		client = &http.Client{Timeout: defaultPartitionTimeout}
	}
	trimmed := make([]string, len(urls))
	for i, u := range urls {
		trimmed[i] = strings.TrimRight(u, "/")
	}
	return &HTTPTransport{urls: trimmed, client: client}
}

// Shards reports the number of configured workers.
func (t *HTTPTransport) Shards() int { return len(t.urls) }

// Partition POSTs the request to the shard's /partition endpoint.
func (t *HTTPTransport) Partition(ctx context.Context, shard int, req *PartitionRequest) (*PartitionResponse, error) {
	var resp PartitionResponse
	if err := t.post(ctx, shard, "/partition", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// EdgesV3 POSTs a digest-first sweep to the shard's /edges3 endpoint.
func (t *HTTPTransport) EdgesV3(ctx context.Context, shard int, req *EdgeRequestV3) (*EdgeResponseV3, error) {
	var resp EdgeResponseV3
	if err := t.post(ctx, shard, "/edges3", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// WireBytes reports cumulative request+response body bytes over all
// successful round trips: total, and the /edges3 share.
func (t *HTTPTransport) WireBytes() (total, edges int64) {
	return t.wireTotal.Load(), t.wireEdges.Load()
}

// post runs one JSON request/response round trip against a shard.
func (t *HTTPTransport) post(ctx context.Context, shard int, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		t.urls[shard%len(t.urls)]+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := t.client.Do(hreq)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
		return fmt.Errorf("shard returned %s: %s", hresp.Status, strings.TrimSpace(string(msg)))
	}
	respBody, err := io.ReadAll(hresp.Body)
	if err != nil {
		return fmt.Errorf("read %s response: %w", path, err)
	}
	if err := json.Unmarshal(respBody, resp); err != nil {
		return fmt.Errorf("decode %s response: %w", path, err)
	}
	// Count only completed round trips: the wire metric measures what a
	// run shipped, and a failed attempt retries through the same
	// accounting.
	t.wireTotal.Add(int64(len(body) + len(respBody)))
	if path == "/edges3" {
		t.wireEdges.Add(int64(len(body) + len(respBody)))
	}
	return nil
}

// NewLoopback builds a transport over in-process workers that still runs
// the complete HTTP path — request marshalling, the worker's ServeHTTP
// (body cap included), response unmarshalling — without opening sockets.
// It is the `go test` / benchmark stand-in for a real worker fleet.
func NewLoopback(workers []*Worker) *HTTPTransport {
	handlers := make(map[string]http.Handler, len(workers))
	urls := make([]string, len(workers))
	for i, w := range workers {
		host := fmt.Sprintf("shard-%d.loopback", i)
		handlers[host] = w.Handler()
		urls[i] = "http://" + host
	}
	return NewHTTPTransport(urls, &http.Client{Transport: handlerRoundTripper{handlers: handlers}})
}

// handlerRoundTripper serves http.Client requests directly from in-process
// handlers, keyed by host.
type handlerRoundTripper struct {
	handlers map[string]http.Handler
}

func (rt handlerRoundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	h, ok := rt.handlers[r.URL.Host]
	if !ok {
		return nil, fmt.Errorf("loopback: unknown host %q", r.URL.Host)
	}
	rec := &recordedResponse{header: make(http.Header), code: http.StatusOK}
	h.ServeHTTP(rec, r)
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", rec.code, http.StatusText(rec.code)),
		StatusCode:    rec.code,
		Proto:         r.Proto,
		ProtoMajor:    r.ProtoMajor,
		ProtoMinor:    r.ProtoMinor,
		Header:        rec.header,
		Body:          io.NopCloser(bytes.NewReader(rec.body.Bytes())),
		ContentLength: int64(rec.body.Len()),
		Request:       r,
	}, nil
}

// recordedResponse is a minimal in-memory http.ResponseWriter.
type recordedResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recordedResponse) Header() http.Header         { return r.header }
func (r *recordedResponse) WriteHeader(code int)        { r.code = code }
func (r *recordedResponse) Write(p []byte) (int, error) { return r.body.Write(p) }

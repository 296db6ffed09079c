package gateway

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kizzle"
	"kizzle/internal/servemetrics"
)

// DefaultMaxScanBytes is the fleet-wide scan-size cap: the one constant
// every serving path sizes its buffering against, so the proxy and
// sigserve's /scan cannot drift apart on what "too big to scan" means. A
// document over the cap is never truncated-and-scanned — a truncated
// scan could miss a signature sitting past the cut and report the
// document clean with false confidence — it passes (streams) through
// unscanned and is counted, so operators can see oversized traffic
// instead of trusting a half-scan.
const DefaultMaxScanBytes = 4 << 20

// Decision is the outcome of scanning one document.
type Decision struct {
	// Blocked reports whether the document was rejected.
	Blocked bool
	// Family is the detected kit for blocked documents.
	Family string
}

// Scanner is the signature-set interface the gateway scans through;
// *kizzle.Matcher satisfies it. Documents are byte slices end to end —
// the proxy's pooled body buffers and the admitter's in-flight documents
// — and implementations must not retain them past the call, so callers
// may reuse a buffer the moment a scan returns.
type Scanner interface {
	ScanBytes(doc []byte) []kizzle.Match
}

// armedSet is one deployed signature set and the version that names it.
// The two travel as one value so a decision can never pair a scan by one
// set with the version of another; version 0 means no version is known
// for this scanner yet.
type armedSet struct {
	scanner Scanner
	version int64
}

// Vetter makes admission decisions for documents. It is safe for
// concurrent use, and its signature set can be swapped live (the
// "frequent, automatic updates" of the AV distribution channel).
type Vetter struct {
	mu  sync.RWMutex
	set *armedSet

	scanned atomic.Int64
	unarmed atomic.Int64
	blocked atomic.Int64
	lat     servemetrics.Hist
}

// NewVetter builds a vetter around an initial signature set.
func NewVetter(scanner Scanner) *Vetter {
	return &Vetter{set: &armedSet{scanner: scanner}}
}

// Update swaps in a new signature set atomically. The new set runs
// unversioned until SetVersion names it, so no verdict it computes can
// be attributed to the version of the set it replaced.
func (v *Vetter) Update(scanner Scanner) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.set = &armedSet{scanner: scanner}
}

// SetVersion names the version of the signature set most recently
// installed by Update (or NewVetter). Callers that poll sigdb call it
// right after Update; the version pins the admitter's shared verdicts
// and is reported on the metrics surface.
func (v *Vetter) SetVersion(version int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.set = &armedSet{scanner: v.set.scanner, version: version}
}

// Version returns the version SetVersion gave the running signature set
// (0 if it has none).
func (v *Vetter) Version() int64 { return v.pin().version }

// pin returns the running signature set together with its version.
func (v *Vetter) pin() *armedSet {
	v.mu.RLock()
	set := v.set
	v.mu.RUnlock()
	return set
}

// VetBytes scans one document held in a byte slice, in place: the
// caller keeps ownership of the buffer and may reuse it the moment the
// call returns. Before a signature set is deployed every document passes
// and counts as unarmed, not scanned.
func (v *Vetter) VetBytes(doc []byte) Decision {
	return v.vet(v.pin().scanner, doc)
}

// vet decides doc with the given scanner, maintaining the counters and
// the scan-latency histogram; a nil scanner admits doc unarmed.
func (v *Vetter) vet(scanner Scanner, doc []byte) Decision {
	if scanner == nil {
		v.unarmed.Add(1)
		return Decision{}
	}
	v.scanned.Add(1)
	start := time.Now()
	matches := scanner.ScanBytes(doc)
	v.lat.Observe(time.Since(start))
	if len(matches) == 0 {
		return Decision{}
	}
	v.blocked.Add(1)
	return Decision{Blocked: true, Family: matches[0].Family}
}

// Stats reports how many documents were scanned and blocked.
func (v *Vetter) Stats() (scanned, blocked int64) {
	return v.scanned.Load(), v.blocked.Load()
}

// Metrics returns the vetter's /metrics fields: scan and block counts,
// the documents admitted unscanned before any set was deployed, the
// running signature set's version, and the scan-latency summary.
func (v *Vetter) Metrics() map[string]any {
	return map[string]any{
		"scanned":         v.scanned.Load(),
		"unarmed":         v.unarmed.Load(),
		"blocked":         v.blocked.Load(),
		"matcher_version": v.Version(),
		"scan_latency":    v.lat.Summary(),
	}
}

// Proxy is a scanning reverse proxy: HTML and JavaScript responses from the
// upstream are buffered, vetted, and replaced with 403 when a signature
// fires. Non-script content passes through untouched.
type Proxy struct {
	vetter *Vetter
	proxy  *httputil.ReverseProxy
	// admit, when set by UseAdmitter, routes each body through the
	// admitter instead of a direct per-document vet.
	admit *Admitter
	// MaxScanBytes bounds how much of a response is buffered for
	// scanning (default DefaultMaxScanBytes); larger responses stream
	// through unscanned — never truncated-and-scanned — rather than
	// stalling the proxy, and are counted in oversized.
	MaxScanBytes int64

	oversized atomic.Int64
	encoded   atomic.Int64
}

// NewProxy builds a scanning reverse proxy in front of upstream.
func NewProxy(upstream *url.URL, vetter *Vetter) *Proxy {
	p := &Proxy{vetter: vetter, MaxScanBytes: DefaultMaxScanBytes}
	rp := httputil.NewSingleHostReverseProxy(upstream)
	director := rp.Director
	rp.Director = func(r *http.Request) {
		director(r)
		// Scan what the browser renders: without the client's
		// Accept-Encoding the transport negotiates gzip itself and hands
		// modifyResponse the decoded body.
		r.Header.Del("Accept-Encoding")
	}
	rp.ModifyResponse = p.modifyResponse
	rp.BufferPool = copyBuffers{}
	p.proxy = rp
	return p
}

// UseAdmitter routes the proxy's admission decisions through an
// Admitter: each response is still decided on its own request's
// goroutine, but identical responses in flight at the same moment share
// one scan, and with a shared verdict store a document another replica
// already scanned is not scanned again. Decisions are identical to the
// direct path. Call before serving; the admitter must outlive the proxy.
func (p *Proxy) UseAdmitter(a *Admitter) { p.admit = a }

// Metrics returns the proxy's /metrics fields: the scannable responses
// passed through unscanned because they exceeded MaxScanBytes, and those
// refused with 502 because they still carried a content coding.
func (p *Proxy) Metrics() map[string]any {
	return map[string]any{"oversized": p.oversized.Load(), "encoded": p.encoded.Load()}
}

var _ http.Handler = (*Proxy)(nil)

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.proxy.ServeHTTP(w, r)
}

// scannable reports whether a response content type carries script.
func scannable(contentType string) bool {
	ct := strings.ToLower(contentType)
	return strings.Contains(ct, "text/html") ||
		strings.Contains(ct, "javascript") ||
		strings.Contains(ct, "ecmascript")
}

// bodyPool recycles response-body buffers across proxied requests: a
// vetted-and-passed response costs zero scan-path allocations in steady
// state. 64 KiB starting capacity holds the overwhelming share of web
// responses; larger bodies grow their pooled buffer once and the grown
// buffer is what returns to the pool.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

// copyBuffers backs every proxy's httputil.ReverseProxy.BufferPool with
// one process-wide pool of 32 KiB buffers, the size ReverseProxy
// otherwise allocates afresh to copy out each response.
type copyBuffers struct{}

var copyPool = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

func (copyBuffers) Get() []byte  { return *copyPool.Get().(*[]byte) }
func (copyBuffers) Put(b []byte) { copyPool.Put(&b) }

// readBodyInto reads r to EOF into buf (growing it as needed), stopping
// early once more than max bytes have been read. It returns the filled
// buffer; the caller decides what an over-max read means.
func readBodyInto(buf []byte, r io.Reader, max int64) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if int64(len(buf)) > max {
			return buf, nil
		}
	}
}

// pooledBody is a response body backed by a pooled buffer: Close returns
// the buffer to the pool (and closes the remaining upstream body, when
// the oversized path left one attached). Close is idempotent —
// http.ReverseProxy closes the body it copies from, but defensive double
// closes must not double-free the buffer.
type pooledBody struct {
	io.Reader
	buf  *[]byte
	rest io.Closer
}

func (pb *pooledBody) Close() error {
	if pb.buf != nil {
		bodyPool.Put(pb.buf)
		pb.buf = nil
	}
	if pb.rest != nil {
		rest := pb.rest
		pb.rest = nil
		return rest.Close()
	}
	return nil
}

// contentEncoded reports whether a response body still carries a content
// coding other than identity.
func contentEncoded(h http.Header) bool {
	for _, v := range h.Values("Content-Encoding") {
		for _, c := range strings.Split(v, ",") {
			if c = strings.TrimSpace(c); c != "" && !strings.EqualFold(c, "identity") {
				return true
			}
		}
	}
	return false
}

// replaceResponse swaps resp for a plain-text answer with the given
// status.
func replaceResponse(resp *http.Response, status int, text string) {
	resp.StatusCode = status
	resp.Status = http.StatusText(status)
	resp.Header = http.Header{"Content-Type": {"text/plain; charset=utf-8"}}
	resp.Body = io.NopCloser(strings.NewReader(text))
	resp.ContentLength = int64(len(text))
}

func (p *Proxy) modifyResponse(resp *http.Response) error {
	if !scannable(resp.Header.Get("Content-Type")) {
		return nil
	}
	if resp.ContentLength != 0 && contentEncoded(resp.Header) {
		// The transport decodes the gzip it asked for; any other coding (an
		// unsolicited br, deflate or zstd body) cannot be scanned, so it is
		// never admitted. Bodiless answers (HEAD, 204, 304) have nothing
		// to scan and pass.
		p.encoded.Add(1)
		resp.Body.Close()
		replaceResponse(resp, http.StatusBadGateway, "kizzle: cannot scan a content-encoded response\n")
		return nil
	}
	if resp.ContentLength > p.MaxScanBytes {
		p.oversized.Add(1)
		return nil
	}
	bp := bodyPool.Get().(*[]byte)
	body, err := readBodyInto((*bp)[:0], resp.Body, p.MaxScanBytes)
	*bp = body[:0] // keep any growth pooled, whatever path returns it
	if err != nil {
		bodyPool.Put(bp)
		resp.Body.Close()
		return fmt.Errorf("gateway: read upstream body: %w", err)
	}
	if int64(len(body)) > p.MaxScanBytes {
		// Too large to scan (chunked responses reach here: their length is
		// unknown until read). Pass through what was buffered followed by
		// the rest of the upstream body, unconsumed and untruncated.
		p.oversized.Add(1)
		resp.Body = &pooledBody{
			Reader: io.MultiReader(bytes.NewReader(body), resp.Body),
			buf:    bp,
			rest:   resp.Body,
		}
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
		return nil
	}
	if closeErr := resp.Body.Close(); closeErr != nil {
		bodyPool.Put(bp)
		return fmt.Errorf("gateway: close upstream body: %w", closeErr)
	}
	var d Decision
	if p.admit != nil {
		d = p.admit.VetBytes(body)
	} else {
		d = p.vetter.VetBytes(body)
	}
	if d.Blocked {
		bodyPool.Put(bp)
		replaceResponse(resp, http.StatusForbidden, fmt.Sprintf("blocked by kizzle: %s exploit kit detected\n", d.Family))
		return nil
	}
	resp.Body = &pooledBody{Reader: bytes.NewReader(body), buf: bp}
	resp.ContentLength = int64(len(body))
	return nil
}

package shardcoord

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"kizzle/internal/contentcache"
	"kizzle/internal/pipeline"
)

// The worker's HTTP surface parses coordinator-supplied JSON into symbol
// sequences and index lists — untrusted input on a network port. These
// fuzzers drive raw bodies through the full handler path (decode,
// validation, execution) and require that malformed input is rejected
// with an error status, never a panic or an out-of-bounds index into the
// clustering kernels.

func fuzzClient(tb testing.TB, opts ...WorkerOption) *http.Client {
	tb.Helper()
	opts = append([]WorkerOption{WithWorkerParallelism(1), WithWorkerCache(contentcache.New(1 << 20))}, opts...)
	w := NewWorker(opts...)
	return &http.Client{Transport: handlerRoundTripper{
		handlers: map[string]http.Handler{"w.loopback": w.Handler()},
	}}
}

func fuzzPost(tb testing.TB, client *http.Client, path string, body []byte) {
	tb.Helper()
	resp, err := client.Post("http://w.loopback"+path, "application/json", strings.NewReader(string(body)))
	if err != nil {
		tb.Fatalf("handler round trip failed: %v", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
	default:
		tb.Fatalf("unexpected status %d for %s", resp.StatusCode, path)
	}
	if resp.StatusCode == http.StatusOK {
		// A success must carry a decodable response.
		var v json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			tb.Fatalf("200 response does not decode: %v", err)
		}
	}
}

// FuzzWorkerPartition fuzzes POST /partition wire-sequence validation.
func FuzzWorkerPartition(f *testing.F) {
	f.Add([]byte(`{"eps":0.1,"minPts":2,"partition":{"seqs":[[1,2,3],[1,2,3]],"weights":[1,2]}}`))
	f.Add([]byte(`{"eps":0.1,"minPts":2,"partition":{"seqs":[[1,2]],"weights":[1,2]}}`))
	f.Add([]byte(`{"eps":0.1,"minPts":2,"partition":{"seqs":[[9,9],[9,9],[60000]],"weights":[1,1,1]}}`))
	f.Add([]byte(`{"partition":{"seqs":[[]],"weights":[0]}}`))
	f.Add([]byte(`{not json`))
	client := fuzzClient(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<16 {
			t.Skip("oversized fuzz input")
		}
		fuzzPost(t, client, "/partition", body)
	})
}

// FuzzWorkerEdgesV3 fuzzes POST /edges3 — the digest-first wire's
// decoding and fill validation: base64 key parsing, fill/position
// alignment, duplicate and out-of-range fill positions, and the
// fill-must-hash-to-its-key check. Resident resolution and the Missing
// answer are inside the fuzzed surface too.
func FuzzWorkerEdgesV3(f *testing.F) {
	seqs := seqsOf("abcd", "abce", "zz")
	keys := make([]pipeline.SeqKey, len(seqs))
	for i, s := range seqs {
		keys[i] = pipeline.SeqKeyOf(s)
	}
	valid, _ := json.Marshal(&EdgeRequestV3{
		Eps: 0.5, Keys: keys, FillAt: []int{0, 1, 2}, Fill: seqs, Rows: []int{0, 1, 2},
	})
	f.Add(valid)
	digestOnly, _ := json.Marshal(&EdgeRequestV3{Eps: 0.5, Keys: keys, Rows: []int{0, 1, 2}})
	f.Add(digestOnly) // unresolved keys: the Missing answer, not an error
	truncated, _ := json.Marshal(&EdgeRequestV3{
		Eps: 0.5, Keys: keys, FillAt: []int{0, 1, 2}, Fill: seqs[:1], Rows: []int{0, 1, 2},
	})
	f.Add(truncated) // fewer fills than positions
	duplicate, _ := json.Marshal(&EdgeRequestV3{
		Eps: 0.5, Keys: keys, FillAt: []int{0, 0, 1}, Fill: seqs, Rows: []int{0, 1, 2},
	})
	f.Add(duplicate) // same position filled twice
	mismatched, _ := json.Marshal(&EdgeRequestV3{
		Eps: 0.5, Keys: keys, FillAt: []int{0}, Fill: seqs[2:], Rows: []int{0, 1, 2},
	})
	f.Add(mismatched)                                       // fill does not hash to its declared key
	f.Add([]byte(`{"eps":0.5,"keys":["AAAA"],"rows":[0]}`)) // truncated key (not 20 raw bytes)
	f.Add([]byte(`{"eps":0.5,"keys":["!!!"],"rows":[0]}`))  // invalid base64 key
	f.Add([]byte(`{"eps":0.5,"keys":[],"fillAt":[5],"fill":["QUJD"],"rows":[]}`))
	f.Add([]byte(`{"eps":0.5,"keys":[],"rows":[3],"cols":[-1]}`)) // bad sweep indices
	f.Add([]byte(`{not json`))
	client := fuzzClient(f, WithWorkerResidentBudget(1<<20))
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<16 {
			t.Skip("oversized fuzz input")
		}
		fuzzPost(t, client, "/edges3", body)
	})
}

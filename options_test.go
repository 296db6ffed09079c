package kizzle_test

import (
	"strings"
	"testing"

	"kizzle"
)

// TestOptionValidation covers every Option with a valid and (where the
// option can be misconfigured) an invalid value: invalid values must
// surface a named error from Process instead of being silently clamped,
// and valid values must not. Options with no invalid inputs
// (WithScheduleSeed, WithCacheBytes — where a negative budget is the
// documented cache-disable) appear with valid rows only.
func TestOptionValidation(t *testing.T) {
	samples := []kizzle.Sample{
		{ID: "a", Content: "var a = unescape('%61%62%63');"},
		{ID: "b", Content: "var b = 2; function f() { return b; }"},
	}
	cases := []struct {
		name    string
		opts    []kizzle.Option
		wantErr string // empty = must succeed
	}{
		{"WithProfile valid", []kizzle.Option{kizzle.WithProfile("js")}, ""},
		{"WithProfile webkit", []kizzle.Option{kizzle.WithProfile("webkit")}, ""},
		{"WithProfile unknown", []kizzle.Option{kizzle.WithProfile("cobol")}, `unknown ingest profile "cobol"`},
		{"WithWorkers valid", []kizzle.Option{kizzle.WithWorkers(2)}, ""},
		{"WithWorkers zero keeps default", []kizzle.Option{kizzle.WithWorkers(0)}, ""},
		{"WithWorkers negative", []kizzle.Option{kizzle.WithWorkers(-1)}, "WithWorkers: negative worker count -1"},
		{"WithEps valid", []kizzle.Option{kizzle.WithEps(0.15)}, ""},
		{"WithEps zero", []kizzle.Option{kizzle.WithEps(0)}, "WithEps: threshold 0 outside (0, 1]"},
		{"WithEps above one", []kizzle.Option{kizzle.WithEps(1.5)}, "WithEps: threshold 1.5 outside (0, 1]"},
		{"WithMinPts valid", []kizzle.Option{kizzle.WithMinPts(3)}, ""},
		{"WithMinPts negative", []kizzle.Option{kizzle.WithMinPts(-2)}, "WithMinPts: negative neighborhood size -2"},
		{"WithThreshold valid", []kizzle.Option{kizzle.WithThreshold("Angler", 0.8)}, ""},
		{"WithThreshold suppressing above one", []kizzle.Option{kizzle.WithThreshold("Angler", 1.01)}, ""},
		{"WithThreshold empty family", []kizzle.Option{kizzle.WithThreshold("", 0.8)}, "WithThreshold: empty family name"},
		{"WithThreshold negative", []kizzle.Option{kizzle.WithThreshold("Angler", -0.1)}, `WithThreshold("Angler"): negative threshold -0.1`},
		{"WithDefaultThreshold valid", []kizzle.Option{kizzle.WithDefaultThreshold(0.7)}, ""},
		{"WithDefaultThreshold negative", []kizzle.Option{kizzle.WithDefaultThreshold(-1)}, "WithDefaultThreshold: negative threshold -1"},
		{"WithSignatureTokens valid", []kizzle.Option{kizzle.WithSignatureTokens(5, 200)}, ""},
		{"WithSignatureTokens min below one", []kizzle.Option{kizzle.WithSignatureTokens(0, 10)}, "WithSignatureTokens: invalid bounds [0, 10]"},
		{"WithSignatureTokens max below min", []kizzle.Option{kizzle.WithSignatureTokens(10, 5)}, "WithSignatureTokens: invalid bounds [10, 5]"},
		{"WithSignatureSlack valid", []kizzle.Option{kizzle.WithSignatureSlack(2)}, ""},
		{"WithSignatureSlack negative", []kizzle.Option{kizzle.WithSignatureSlack(-1)}, "WithSignatureSlack: negative slack -1"},
		{"WithPartitionSize valid", []kizzle.Option{kizzle.WithPartitionSize(100)}, ""},
		{"WithPartitionSize negative", []kizzle.Option{kizzle.WithPartitionSize(-5)}, "WithPartitionSize: negative partition size -5"},
		{"WithCacheBytes valid", []kizzle.Option{kizzle.WithCacheBytes(1 << 20)}, ""},
		{"WithCacheBytes negative disables", []kizzle.Option{kizzle.WithCacheBytes(-1)}, ""},
		{"WithShardWorkers empty list stays in-process", []kizzle.Option{kizzle.WithShardWorkers()}, ""},
		{"WithShardWorkers empty URL", []kizzle.Option{kizzle.WithShardWorkers("http://shard-0:9191", "")}, "WithShardWorkers: empty URL at position 1"},
		{"WithScheduleSeed", []kizzle.Option{kizzle.WithScheduleSeed(42)}, ""},
		{"two faults both reported", []kizzle.Option{kizzle.WithWorkers(-1), kizzle.WithEps(0)}, "WithWorkers: negative worker count -1; WithEps: threshold 0 outside (0, 1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := kizzle.New(tc.opts...)
			_, err := c.Process(samples)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid options failed: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid options silently accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the fault %q", err, tc.wantErr)
			}
		})
	}
}

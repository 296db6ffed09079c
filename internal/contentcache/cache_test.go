package contentcache

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// xxh64Vectors pins the digest against the reference XXH64 test vectors
// (seed 0), so the implementation is the real algorithm rather than
// something hash-shaped.
func TestDigestVectors(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"as", 0x1c330fb2d66be179},
		{"asd", 0x631c37ce72a97393},
		{"asdf", 0x415872f599cea71e},
		// 32+ byte input exercises the 4-lane main loop.
		{"Call me Ishmael. Some years ago--never mind how long precisely-",
			0x02a2e85470d6fd96},
	}
	for _, c := range cases {
		if got := Digest(c.in); got != c.want {
			t.Errorf("Digest(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestDigestLengthBoundaries(t *testing.T) {
	// Every tail-handling path: 0..40 bytes.
	seen := make(map[uint64]string)
	for n := 0; n <= 40; n++ {
		s := strings.Repeat("x", n)
		d := Digest(s)
		if prev, dup := seen[d]; dup {
			t.Fatalf("digest collision between %q and %q", prev, s)
		}
		seen[d] = s
	}
}

func TestCacheHitMissVerify(t *testing.T) {
	c := New(1 << 20)
	const kindA, kindB Kind = 1, 2
	k := KeyOf(kindA, "content-1")
	if _, ok := c.Get(k, "content-1"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, "content-1", 42)
	v, ok := c.Get(k, "content-1")
	if !ok || v.(int) != 42 {
		t.Fatalf("get = (%v, %v), want (42, true)", v, ok)
	}
	// Same digest probe with different content must verify-miss.
	if _, ok := c.Get(k, "content-2"); ok {
		t.Fatal("collision probe returned a hit")
	}
	// Kinds namespace the same content.
	if _, ok := c.Get(KeyOf(kindB, "content-1"), "content-1"); ok {
		t.Fatal("kind namespacing broken")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 3 misses / 1 entry", st)
	}
	if got := st.HitRate(); got != 0.25 {
		t.Fatalf("hit rate = %v, want 0.25", got)
	}
}

func TestCacheEviction(t *testing.T) {
	// Budget small enough that each shard holds ~2 entries of 100 bytes.
	c := New(shardCount * 250)
	content := func(i int) string {
		return fmt.Sprintf("%03d", i) + strings.Repeat("p", 97)
	}
	for i := 0; i < 200; i++ {
		s := content(i)
		c.Put(KeyOf(0, s), s, i)
	}
	st := c.Stats()
	if st.Bytes > shardCount*250 {
		t.Fatalf("cache over budget: %d bytes", st.Bytes)
	}
	if st.Entries == 0 || st.Entries > 2*shardCount {
		t.Fatalf("entries = %d, want within (0, %d]", st.Entries, 2*shardCount)
	}
	// Most recent insert must have survived FIFO eviction.
	s := content(199)
	if _, ok := c.Get(KeyOf(0, s), s); !ok {
		t.Fatal("most recent entry evicted")
	}
}

func TestCacheReplace(t *testing.T) {
	c := New(1 << 20)
	k := KeyOf(0, "doc")
	c.Put(k, "doc", "v1")
	c.Put(k, "doc", "v2")
	if v, ok := c.Get(k, "doc"); !ok || v.(string) != "v2" {
		t.Fatalf("replace: got (%v, %v)", v, ok)
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != len("doc") {
		t.Fatalf("replace double-counted: %+v", st)
	}
}

func TestNilCache(t *testing.T) {
	var c *Cache
	c.Put(KeyOf(0, "x"), "x", 1)
	if _, ok := c.Get(KeyOf(0, "x"), "x"); ok {
		t.Fatal("nil cache returned a hit")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
	c.ResetStats()
}

func TestCacheConcurrent(t *testing.T) {
	c := New(1 << 20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := fmt.Sprintf("doc-%d", i%50)
				k := KeyOf(Kind(w%3), s)
				if v, ok := c.Get(k, s); ok {
					if v.(string) != s {
						t.Errorf("corrupted value %v for %s", v, s)
						return
					}
				} else {
					c.Put(k, s, s)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestGetOrComputeSingleFlight races many goroutines onto one missing
// key: the value must be computed once, the miss counted once, and every
// other caller must read the computed value as a hit.
func TestGetOrComputeSingleFlight(t *testing.T) {
	c := New(1 << 20)
	k := KeyOf(1, "doc")
	var computed atomic.Int64
	release := make(chan struct{})
	const callers = 8
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := c.GetOrCompute(k, "doc", func(cached any, hit bool) (any, int, bool) {
				if hit {
					return cached, 0, false
				}
				computed.Add(1)
				<-release // hold the flight so the others pile up behind it
				return "value", 0, true
			})
			if v.(string) != "value" {
				t.Errorf("caller got %v", v)
			}
		}()
	}
	close(release)
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, callers-1)
	}
	// A refusing fill leaves the entry alone; a nil cache just computes.
	c.GetOrCompute(KeyOf(1, "other"), "other", func(any, bool) (any, int, bool) { return "x", 0, false })
	if _, ok := c.Get(KeyOf(1, "other"), "other"); ok {
		t.Fatal("store=false still stored the value")
	}
	var nilCache *Cache
	if v := nilCache.GetOrCompute(k, "doc", func(_ any, hit bool) (any, int, bool) { return hit, 0, true }); v.(bool) {
		t.Fatal("nil cache reported a hit")
	}
}

func BenchmarkDigest(b *testing.B) {
	s := strings.Repeat("var payload = decode(buffer.split(delim)); eval(payload); ", 200)
	b.SetBytes(int64(len(s)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Digest(s)
	}
}

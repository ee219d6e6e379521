// Package service exposes the allocator registry, the batch engine, the
// verifiers and the schedule simulator as an HTTP JSON API — the serving
// layer that turns the reproduction into a long-running allocation backend.
//
// At its heart is a result cache keyed by the canonical hash of (taskset,
// scheme, partition heuristic): identical allocation problems — regardless of
// task ordering or spelled-out defaults — are answered from memory with
// byte-identical bodies, and concurrent identical requests are collapsed into
// a single allocation (singleflight).
package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"

	"hydra/internal/partition"
	"hydra/internal/stats"
	"hydra/internal/tasksetio"
)

// keyBufPool recycles the canonical-bytes scratch of Key: the cold request
// path used to rebuild a JSON document per request just to feed the hash,
// which the serving benchmarks showed costing about as much as the
// allocation itself.
var keyBufPool = sync.Pool{New: func() any {
	keyBufNews.Add(1)
	b := make([]byte, 0, 1024)
	return &b
}}

// Key returns the canonical cache key of an allocation problem: the SHA-256
// of the scheme name, the partition heuristic, the results version, and a
// compact binary encoding of the canonical taskset (sorted tasks, normalized
// defaults — see Problem.Canonical). The results version participates even
// though allocation itself draws no randomness: the key names the full
// contract a cached body was computed under, so entries can never be shared
// across versions if any version-dependent step joins the pipeline. The
// problem must already be in canonical form; the canonical bytes are built
// once in a pooled buffer and hashed directly instead of round-tripping
// through a JSON document.
func Key(p *tasksetio.Problem, scheme string, h partition.Heuristic, version stats.RNGVersion) string {
	keyBufGets.Add(1)
	bufp := keyBufPool.Get().(*[]byte)
	buf := (*bufp)[:0]
	buf = append(buf, scheme...)
	buf = append(buf, 0)
	buf = append(buf, h.String()...)
	buf = append(buf, 0)
	buf = append(buf, byte(version))
	buf = append(buf, 0)
	buf = appendCanonicalBytes(buf, p)
	sum := sha256.Sum256(buf)
	*bufp = buf
	keyBufPool.Put(bufp)
	return hex.EncodeToString(sum[:])
}

// appendCanonicalBytes serializes a canonical problem into an unambiguous
// binary form (length-prefixed strings, IEEE-754 bit patterns): every field
// that distinguishes two problems is covered, so equal bytes iff equal
// canonical problems.
func appendCanonicalBytes(buf []byte, p *tasksetio.Problem) []byte {
	appendStr := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	appendF := func(f float64) {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(f))
	}
	buf = binary.AppendUvarint(buf, uint64(p.M))
	buf = binary.AppendUvarint(buf, uint64(len(p.RT)))
	for _, t := range p.RT {
		appendStr(t.Name)
		appendF(t.C)
		appendF(t.T)
		appendF(t.D)
	}
	if p.RTPartition == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		for _, c := range p.RTPartition {
			buf = binary.AppendUvarint(buf, uint64(c))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Sec)))
	for _, s := range p.Sec {
		appendStr(s.Name)
		appendF(s.C)
		appendF(s.TDes)
		appendF(s.TMax)
		appendF(s.EffectiveWeight())
	}
	return buf
}

// flight is one in-progress computation other requests can wait on.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// centry is one cached value in the LRU list.
type centry struct {
	key string
	val []byte
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits      uint64 `json:"hits"`      // served from memory
	Misses    uint64 `json:"misses"`    // computations actually run
	Coalesced uint64 `json:"coalesced"` // requests that waited on an identical in-flight computation
	Evictions uint64 `json:"evictions"` // entries dropped by the LRU bound
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// Cache is a bounded, concurrency-safe LRU of computed response bodies with
// singleflight deduplication: at most one computation per key runs at a time;
// identical concurrent requests wait for it and share its result. Errors are
// returned to every waiter but never cached.
//
// One mutex guards the LRU, the in-flight map and the counters. It is held
// only for map and list bookkeeping, never across a computation.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	inflight  map[string]*flight
	hits      uint64
	misses    uint64
	coalesced uint64
	evictions uint64
}

// NewCache builds a cache bounded to exactly capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// Outcome classifies how Do produced its value.
type Outcome int

const (
	// OutcomeMiss means this call ran the computation itself.
	OutcomeMiss Outcome = iota
	// OutcomeHit means the value was already cached.
	OutcomeHit
	// OutcomeCoalesced means this call waited on an identical in-flight
	// computation started by another request.
	OutcomeCoalesced
)

// FromMemory reports whether the value was served without running a
// computation in this call.
func (o Outcome) FromMemory() bool { return o != OutcomeMiss }

// Do returns the cached value for key, or runs compute to produce it. The
// returned bytes must be treated as immutable.
func (c *Cache) Do(key string, compute func() ([]byte, error)) (val []byte, outcome Outcome, err error) {
	c.mu.Lock()
	if e, ok := c.items[key]; ok {
		c.ll.MoveToFront(e)
		c.hits++
		val = e.Value.(*centry).val
		c.mu.Unlock()
		return val, OutcomeHit, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		<-f.done
		return f.val, OutcomeCoalesced, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()

	// A panicking compute must not poison the key: record an error for the
	// coalesced waiters, release the flight, then let the panic continue
	// (net/http recovers it per request).
	defer func() {
		if r := recover(); r != nil {
			f.err = fmt.Errorf("service: computation for key %s panicked: %v", key, r)
			c.finish(key, f)
			panic(r)
		}
	}()
	f.val, f.err = compute()
	c.finish(key, f)
	return f.val, OutcomeMiss, f.err
}

// finish publishes a completed flight: deregisters it, caches successful
// values (evicting beyond the capacity), and releases every waiter.
func (c *Cache) finish(key string, f *flight) {
	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.items[key] = c.ll.PushFront(&centry{key: key, val: f.val})
		for c.ll.Len() > c.capacity {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*centry).key)
			c.evictions++
		}
	}
	c.mu.Unlock()
	close(f.done)
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Capacity:  c.capacity,
	}
}

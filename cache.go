package helixpipe

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/obs"
)

// ReportCache memoizes simulation results by experiment content, and is
// safe for concurrent use. The fleet simulator keys each job by its spec
// (Key): the hash of the spec's Resolved (normalized, defaults-filled) form
// plus the job's carve signature, so a flag-layered run and a spec-file run
// describing the same experiment share one entry, and repeated job shapes in
// a stream simulate once. Execute caches nothing: a grid's cells are
// distinct, so each one simulates.
type ReportCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	hits    int
	misses  int
	waits   int   // hits that blocked on an in-flight computation
	bytes   int64 // total stored report size (marshaled JSON bytes)
	// live is the part of bytes still counted in the registry's gauge:
	// release takes it back out when the cache is dropped.
	live int64

	// Shared instruments in the registry the cache publishes into
	// (obs.Default unless injected via NewReportCacheInRegistry).
	hitsC   *obs.Counter
	missesC *obs.Counter
	waitsC  *obs.Counter
	bytesG  *obs.Gauge
}

// cacheEntry is one computation, possibly still in flight: done closes when
// report/err are final, so concurrent requests for one key wait instead of
// duplicating the simulation (and hit/miss counts stay deterministic
// however the callers interleave).
type cacheEntry struct {
	done   chan struct{}
	report *Report
	err    error
}

// NewReportCache returns an empty cache publishing its metrics into the
// default obs registry.
func NewReportCache() *ReportCache {
	return NewReportCacheInRegistry(obs.Default())
}

// NewReportCacheInRegistry returns an empty cache publishing hit/miss/
// singleflight-wait counters and the cached-bytes gauge into reg. Several
// caches in one registry aggregate into the same instruments; tests use a
// private registry for exact counts. The counters are cumulative; the gauge
// counts live caches only: a cache gives its bytes back when the garbage
// collector frees it, and Session.Fleet gives back those of a cache it made
// itself as soon as the run returns.
func NewReportCacheInRegistry(reg *obs.Registry) *ReportCache {
	c := &ReportCache{
		entries: map[string]*cacheEntry{},
		hitsC:   reg.Counter("helix_cache_hits_total"),
		missesC: reg.Counter("helix_cache_misses_total"),
		waitsC:  reg.Counter("helix_cache_singleflight_waits_total"),
		bytesG:  reg.Gauge("helix_cache_bytes"),
	}
	runtime.SetFinalizer(c, (*ReportCache).release)
	return c
}

// release takes the cache's stored bytes back out of the gauge, once: a
// dropped cache no longer counts toward helix_cache_bytes. Its own Bytes
// (StatsDetail) stay as they were.
func (c *ReportCache) release() {
	c.mu.Lock()
	live := c.live
	c.live = 0
	c.mu.Unlock()
	if c.bytesG != nil && live != 0 {
		c.bytesG.Add(-float64(live))
	}
}

// Key computes the content hash of a spec plus any extra context components
// (a carve signature, an engine revision — anything that changes the result
// without living in the spec). The spec is resolved first, so equivalent
// specs key identically; an unresolvable spec is an error.
func (c *ReportCache) Key(spec *ExperimentSpec, extra ...string) (string, error) {
	n, err := spec.Resolved()
	if err != nil {
		return "", err
	}
	blob, err := specContent(n)
	if err != nil {
		return "", err
	}
	return contentKey(blob, extra...), nil
}

// specContent is the content Key hashes for a resolved spec: its JSON.
func specContent(resolved *ExperimentSpec) ([]byte, error) {
	blob, err := json.Marshal(resolved)
	if err != nil {
		return nil, fmt.Errorf("helixpipe: hashing spec: %w", err)
	}
	return blob, nil
}

// contentKey hashes a spec's content and the extra components, each
// preceded by a zero byte.
func contentKey(blob []byte, extra ...string) string {
	h := sha256.New()
	h.Write(blob)
	for _, e := range extra {
		h.Write([]byte{0})
		h.Write([]byte(e))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Do returns the cached report for the key, or computes, stores and returns
// it. The second result reports a cache hit. Concurrent calls for one key
// single-flight: the first computes, the rest wait on it and count as hits —
// each key simulates exactly once, and hit counts equal the number of
// repeated lookups regardless of timing. A compute error is returned
// without storing anything (waiters see it too), so a transient failure
// does not poison the key. Cached reports are shared — treat them as
// immutable.
func (c *ReportCache) Do(key string, compute func() (*Report, error)) (*Report, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		if c.hitsC != nil {
			c.hitsC.Inc()
		}
		select {
		case <-e.done:
			// Finished entry: a plain hit.
		default:
			// Still in flight: this hit is a singleflight wait.
			c.waits++
			if c.waitsC != nil {
				c.waitsC.Inc()
			}
		}
		c.mu.Unlock()
		<-e.done
		return e.report, true, e.err
	}
	c.misses++
	if c.missesC != nil {
		c.missesC.Inc()
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	// Compute outside the lock: entries can be large simulations, and other
	// keys must not serialize behind this one.
	e.report, e.err = compute()
	if e.err != nil {
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
	} else if blob, merr := json.Marshal(e.report); merr == nil {
		// Account the stored entry's size by its marshaled JSON — the same
		// serialization the reports ship in, so "cached bytes" means what an
		// operator expects.
		c.mu.Lock()
		c.bytes += int64(len(blob))
		c.live += int64(len(blob))
		c.mu.Unlock()
		if c.bytesG != nil {
			c.bytesG.Add(float64(len(blob)))
		}
	}
	close(e.done)
	return e.report, false, e.err
}

// Len returns the number of cached entries.
func (c *ReportCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the hit and miss counts so far.
func (c *ReportCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// CacheStats is the full accounting of a ReportCache.
type CacheStats struct {
	// Hits and Misses partition the Do calls so far.
	Hits, Misses int
	// SingleflightWaits counts the subset of hits that blocked on a
	// computation still in flight (a repeated key landing while its first
	// lookup simulates).
	SingleflightWaits int
	// Entries is the number of stored reports.
	Entries int
	// Bytes is the total marshaled-JSON size of the stored reports.
	Bytes int64
}

// StatsDetail returns the full accounting, including singleflight waits
// and total cached bytes.
func (c *ReportCache) StatsDetail() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:              c.hits,
		Misses:            c.misses,
		SingleflightWaits: c.waits,
		Entries:           len(c.entries),
		Bytes:             c.bytes,
	}
}

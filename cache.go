package helixpipe

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/obs"
)

// ReportCache memoizes simulation results by experiment content, and is
// safe for concurrent use. It serves two kinds of key. Execute keys each
// cell by its run identity (runKey), so duplicate cells of a grid simulate
// once. The fleet simulator keys each job by its spec (Key): the hash of
// the spec's Resolved (normalized, defaults-filled) form, so a flag-layered
// run and a spec-file run describing the same experiment share one entry,
// and repeated job shapes in a stream simulate once.
type ReportCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	hits    int
	misses  int
	waits   int   // hits that blocked on an in-flight computation
	bytes   int64 // total stored report size (marshaled JSON bytes)

	// Shared instruments in the registry the cache publishes into
	// (obs.Default unless injected via NewReportCacheInRegistry).
	hitsC   *obs.Counter
	missesC *obs.Counter
	waitsC  *obs.Counter
	bytesG  *obs.Gauge
}

// cacheEntry is one computation, possibly still in flight: done closes when
// report/err are final, so concurrent requests for one key wait instead of
// duplicating the simulation (and hit/miss counts stay deterministic under
// the sweep worker pool).
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
// private registry for exact counts.
func NewReportCacheInRegistry(reg *obs.Registry) *ReportCache {
	return &ReportCache{
		entries: map[string]*cacheEntry{},
		hitsC:   reg.Counter("helix_cache_hits_total"),
		missesC: reg.Counter("helix_cache_misses_total"),
		waitsC:  reg.Counter("helix_cache_singleflight_waits_total"),
		bytesG:  reg.Gauge("helix_cache_bytes"),
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
	blob, err := json.Marshal(n)
	if err != nil {
		return "", fmt.Errorf("helixpipe: hashing spec: %w", err)
	}
	h := sha256.New()
	h.Write(blob)
	for _, e := range extra {
		h.Write([]byte{0})
		h.Write([]byte(e))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Do returns the cached report for the key, or computes, stores and returns
// it. The second result reports a cache hit. Concurrent calls for one key
// single-flight: the first computes, the rest wait on it and count as hits —
// duplicate cells in a fanned-out sweep simulate exactly once, and hit
// counts equal the number of duplicates regardless of pool timing. A
// compute error is returned without storing anything (waiters see it too),
// so a transient failure does not poison the key. Cached reports are shared
// — treat them as immutable.
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
	// computation still in flight (duplicate cells landing while the first
	// copy simulates).
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

// runKeyIdentity is the serialized identity of one cell run: everything a
// Report depends on — the session's resolved configuration plus the run's
// method, engine, seed and placement search. Two cells with equal identities
// produce byte-identical Reports, so Execute shares one simulation between
// them.
type runKeyIdentity struct {
	Model        model.Config          `json:"model"`
	Cluster      costmodel.ClusterSpec `json:"cluster"`
	SeqLen       int                   `json:"seq_len"`
	MicroBatch   int                   `json:"micro_batch"`
	Stages       int                   `json:"stages"`
	MicroBatches int                   `json:"micro_batches"`
	Batch        model.BatchSpec       `json:"batch"`
	MemBudget    int64                 `json:"mem_budget"`
	Helix        *HelixOptions         `json:"helix,omitempty"`
	Trace        bool                  `json:"trace,omitempty"`
	SMPenalty    float64               `json:"sm_penalty,omitempty"`
	Topology     *cluster.Cluster      `json:"topology,omitempty"`
	Placement    *cluster.Placement    `json:"placement,omitempty"`
	Perturb      cluster.Perturb       `json:"perturb"`

	Method            Method `json:"method"`
	Engine            string `json:"engine"`
	Seed              uint64 `json:"seed,omitempty"`
	PlacementStrategy string `json:"placement_strategy,omitempty"`
	PlacementSeed     uint64 `json:"placement_seed,omitempty"`
}

// runKey content-hashes one cell run of the session. Geometry accessors
// resolve defaults first, so a session with an explicit m equal to the 2p
// default keys identically to one without. An identity JSON cannot encode
// (a non-finite number in a hand-built model or topology) returns an error;
// callers fall back to running uncached.
func (s *Session) runKey(method Method, engineName string, seed uint64, strategy string, placementSeed uint64) (string, error) {
	opt := s.SimOptions()
	k := runKeyIdentity{
		Model:        s.model,
		Cluster:      s.cluster,
		SeqLen:       s.SeqLen(),
		MicroBatch:   s.MicroBatchSize(),
		Stages:       s.stages,
		MicroBatches: s.MicroBatches(),
		Batch:        s.batch,
		MemBudget:    s.MemoryBudget(),
		Helix:        s.helix,
		Trace:        opt.Trace,
		SMPenalty:    opt.SMPenalty,
		Topology:     s.topo,
		Placement:    s.placement,
		Perturb:      s.perturb,

		Method:            method,
		Engine:            engineName,
		Seed:              seed,
		PlacementStrategy: strategy,
		PlacementSeed:     placementSeed,
	}
	blob, err := json.Marshal(k)
	if err != nil {
		return "", fmt.Errorf("helixpipe: hashing run identity: %w", err)
	}
	sum := sha256.Sum256(blob)
	// The prefix keeps run keys disjoint from spec-hash keys (Key) in a
	// cache shared with the fleet engine.
	return "run:" + hex.EncodeToString(sum[:]), nil
}

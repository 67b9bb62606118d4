package helixpipe

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/obs"
)

// TestReportCacheKeyResolvedSpecs pins the cache's content addressing: keys
// hash the resolved spec, so two syntactically different specs describing
// the same experiment share an entry, and any semantic difference splits
// them.
func TestReportCacheKeyResolvedSpecs(t *testing.T) {
	cache := NewReportCache()
	base := &ExperimentSpec{Model: "3B", Cluster: "A800", SeqLen: 32768,
		Stages: 4, Methods: []string{"HelixPipe"}}
	// Same experiment, different surface syntax: lowercase method name and
	// explicitly spelled defaults resolve to the same normalized spec.
	resolvedTwin, err := base.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	aliased := &ExperimentSpec{Model: "3B", Cluster: "A800", SeqLen: 32768,
		Stages: 4, Methods: []string{"helixpipe"}}

	k1, err := cache.Key(base)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := cache.Key(resolvedTwin)
	if err != nil {
		t.Fatal(err)
	}
	k3, err := cache.Key(aliased)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 || k1 != k3 {
		t.Errorf("equivalent specs keyed differently: %s / %s / %s", k1, k2, k3)
	}

	changed := *base
	changed.SeqLen = 65536
	k4, err := cache.Key(&changed)
	if err != nil {
		t.Fatal(err)
	}
	if k4 == k1 {
		t.Error("different seq_len keyed identically")
	}

	// Extra components (a carve signature) split otherwise-identical specs.
	k5, err := cache.Key(base, "carve=gpu=A800|1x4(nvlink,200,6e-06)")
	if err != nil {
		t.Fatal(err)
	}
	if k5 == k1 {
		t.Error("extra key component ignored")
	}

	if _, err := cache.Key(&ExperimentSpec{Model: "no-such-model"}); err == nil {
		t.Error("unresolvable spec keyed without error")
	}
}

// TestReportCacheDo pins hit/miss behavior: first Do computes, the second
// returns the stored report without recomputing, and a compute error leaves
// the key empty.
func TestReportCacheDo(t *testing.T) {
	cache := NewReportCache()
	want := &Report{Method: "HelixPipe"}
	computes := 0
	compute := func() (*Report, error) {
		computes++
		return want, nil
	}

	r, hit, err := cache.Do("k", compute)
	if err != nil {
		t.Fatal(err)
	}
	if hit || r != want || computes != 1 {
		t.Errorf("first Do: hit=%v computes=%d", hit, computes)
	}
	r, hit, err = cache.Do("k", compute)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || r != want || computes != 1 {
		t.Errorf("second Do: hit=%v computes=%d (recomputed a cached key)", hit, computes)
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits, %d misses, want 1/1", hits, misses)
	}
	if cache.Len() != 1 {
		t.Errorf("len = %d, want 1", cache.Len())
	}

	// A failing compute is not cached: the next Do retries.
	boom := errors.New("boom")
	if _, _, err := cache.Do("bad", func() (*Report, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Do error = %v, want boom", err)
	}
	if _, hit, err := cache.Do("bad", compute); err != nil || hit {
		t.Errorf("after failed compute: hit=%v err=%v, want fresh miss", hit, err)
	}
	if computes != 2 {
		t.Errorf("computes = %d, want 2", computes)
	}
}

// TestReportCacheSharedAcrossFleetRuns is the integration angle: one cache
// shared across two Session.Fleet runs on the same stream turns every
// simulation of the second run into a hit.
func TestReportCacheSharedAcrossFleetRuns(t *testing.T) {
	spec, err := ParseSpecFile("examples/fleet_capacity/fleet_stream.json")
	if err != nil {
		t.Fatal(err)
	}
	session, runset, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	fs := *runset.Fleet
	fs.Cache = NewReportCache()
	if _, err := session.Fleet(fs); err != nil {
		t.Fatal(err)
	}
	_, missesFirst := fs.Cache.Stats()
	if missesFirst == 0 {
		t.Fatal("first run missed nothing; the cache cannot have simulated")
	}
	report, err := session.Fleet(fs)
	if err != nil {
		t.Fatal(err)
	}
	_, missesSecond := fs.Cache.Stats()
	if missesSecond != missesFirst {
		t.Errorf("second run added %d misses; the shared cache should cover the whole stream",
			missesSecond-missesFirst)
	}
	if report.CacheHits != len(report.JobRecords) {
		t.Errorf("second run: %d hits over %d jobs, want every job cached",
			report.CacheHits, len(report.JobRecords))
	}
}

// TestSweepCacheByteIdenticalReports is the cache-correctness contract:
// serving dupSweep's cells through a ReportCache, as the fleet serves its
// jobs, yields Report JSON byte-identical to the sweep Execute simulates
// cell by cell, and the hit count equals the number of duplicate cells.
func TestSweepCacheByteIdenticalReports(t *testing.T) {
	simulated, err := executeSpec(t, dupSweep())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewReportCacheInRegistry(obs.NewRegistry())
	// serve looks up each of the sweep's cells, as a one-cell spec, in the
	// cache, simulating it on a miss.
	serve := func() []*Report {
		served := make([]*Report, 0, len(simulated))
		for _, r := range simulated {
			cell := &ExperimentSpec{Model: "3B", Cluster: "A800", SeqLen: r.SeqLen,
				Stages: r.Stages, Methods: []string{string(r.Method)}}
			key, err := cache.Key(cell)
			if err != nil {
				t.Fatal(err)
			}
			report, _, err := cache.Do(key, func() (*Report, error) {
				reports, err := executeSpec(t, cell)
				if err != nil {
					return nil, err
				}
				return reports[0], nil
			})
			if err != nil {
				t.Fatal(err)
			}
			served = append(served, report)
		}
		return served
	}

	cached := serve()
	var a, b bytes.Buffer
	if err := WriteReportsJSON(&a, simulated); err != nil {
		t.Fatal(err)
	}
	if err := WriteReportsJSON(&b, cached); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("cached sweep JSON differs from the simulated sweep")
	}
	hits, misses := cache.Stats()
	if wantHits, wantMisses := 4, 8; hits != wantHits || misses != wantMisses {
		t.Errorf("cache stats = %d hits / %d misses, want %d / %d",
			hits, misses, wantHits, wantMisses)
	}

	// A second pass over the same cells is all hits.
	if again := serve(); len(again) != len(cached) {
		t.Fatalf("second pass yielded %d reports, want %d", len(again), len(cached))
	}
	if _, misses := cache.Stats(); misses != 8 {
		t.Errorf("second pass re-simulated: %d misses, want 8", misses)
	}
}

// dupCells is a two-cell sweep spec whose cells are exact duplicates.
func dupCells() *ExperimentSpec {
	return &ExperimentSpec{Model: "3B", Cluster: "A800", SeqLen: 8192, Stages: 2,
		Methods: []string{"1F1B"}, Sweep: &SpecSweep{SeqLens: []int{8192, 8192}}}
}

// TestSpecNoCacheDisablesCaching pins that no spec turns caching on in
// Execute: each of dupCells' duplicate cells simulates into a report of its
// own, and no report cache is touched, so the cache counters of the default
// registry, where a cache without a registry of its own publishes, do not
// move. The no_cache field that once asked for this is gone
// (TestParseSpecStrict).
func TestSpecNoCacheDisablesCaching(t *testing.T) {
	hitsC := obs.Default().Counter("helix_cache_hits_total")
	missesC := obs.Default().Counter("helix_cache_misses_total")
	hits, misses := hitsC.Value(), missesC.Value()
	reports, err := executeSpec(t, dupCells())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0] == reports[1] {
		t.Error("duplicate cells shared one simulation")
	}
	if dh, dm := hitsC.Value()-hits, missesC.Value()-misses; dh+dm != 0 {
		t.Errorf("Execute used a report cache: %d hits, %d misses", dh, dm)
	}
}

package helixpipe

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// collectSink gathers events behind a mutex (sinks must be
// concurrency-safe; streams emit from worker goroutines).
type collectSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *collectSink) Emit(e obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

func (c *collectSink) byKind(k obs.EventKind) []obs.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []obs.Event
	for _, e := range c.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// The telemetry tests run dupSweep (cache_test.go), the duplicate-bearing
// grid: 12 cells, 4 of them exact duplicates.
func TestTelemetryAbsentOnUnobservedSessions(t *testing.T) {
	reports, err := executeSpec(t, dupSweep())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reports {
		if r.Telemetry != nil {
			t.Fatalf("report %d carries telemetry on an unobserved session", i)
		}
	}
}

func TestTelemetryStampedOnObservedSessions(t *testing.T) {
	sink := &collectSink{}
	reports, err := executeSpec(t, dupSweep(), WithEventSink(sink), WithReportCache(NewReportCache()))
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, r := range reports {
		tel := r.Telemetry
		if tel == nil {
			t.Fatalf("report %d has no telemetry on an observed session", i)
		}
		if tel.WallSeconds <= 0 {
			t.Errorf("report %d: wall_seconds = %g, want > 0", i, tel.WallSeconds)
		}
		if tel.CacheHit {
			hits++
		}
	}
	if hits != 4 {
		t.Errorf("%d cache-hit reports, want 4 (the duplicate cells)", hits)
	}

	// The provenance block is the only difference from an unobserved run:
	// stripping it restores byte-identity.
	plain, err := executeSpec(t, dupSweep())
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	StripTelemetry(reports)
	if err := WriteReportsJSON(&a, reports); err != nil {
		t.Fatal(err)
	}
	if err := WriteReportsJSON(&b, plain); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("stripped observed reports differ from unobserved reports")
	}
}

func TestEventStreamShape(t *testing.T) {
	sink := &collectSink{}
	if _, err := executeSpec(t, dupSweep(), WithEventSink(sink)); err != nil {
		t.Fatal(err)
	}
	cells := 12
	started := sink.byKind(obs.CellStarted)
	finished := sink.byKind(obs.CellFinished)
	if len(started) != cells || len(finished) != cells {
		t.Fatalf("got %d started / %d finished events, want %d each", len(started), len(finished), cells)
	}
	seen := map[int]bool{}
	for _, e := range finished {
		if e.Total != cells {
			t.Errorf("event total = %d, want %d", e.Total, cells)
		}
		if e.Label == "" {
			t.Error("finished event has no label")
		}
		if e.Duration <= 0 {
			t.Errorf("cell %d: duration %v, want > 0", e.Index, e.Duration)
		}
		if e.Worker < 0 {
			t.Errorf("cell %d: worker id %d", e.Index, e.Worker)
		}
		seen[e.Index] = true
	}
	if len(seen) != cells {
		t.Errorf("finished events cover %d distinct cells, want %d", len(seen), cells)
	}
	hits := 0
	for _, e := range finished {
		if e.CacheHit {
			hits++
		}
	}
	if hits != 4 {
		t.Errorf("%d cache-hit events, want 4", hits)
	}
}

// TestWritePromAfterSweep is the acceptance check: after a 216-cell sweep
// through a cache bound to a fresh registry, the Prometheus snapshot reports
// exactly the duplicate-cell count as hits.
func TestWritePromAfterSweep(t *testing.T) {
	// 2 methods x 54 seqlen entries x 2 stages = 216 cells; only 3 distinct
	// seqlens, so 2 x 3 x 2 = 12 unique cells and 204 duplicates.
	seqLens := make([]int, 0, 54)
	for i := 0; i < 18; i++ {
		seqLens = append(seqLens, 8, 16, 32)
	}
	spec := tinySweep([]string{"1F1B", "HelixPipe"}, SpecSweep{SeqLens: seqLens, Stages: []int{2, 4}})

	reg := obs.NewRegistry()
	cache := NewReportCacheInRegistry(reg)
	reports, err := executeSpec(t, spec, WithReportCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 216 {
		t.Fatalf("swept %d cells, want 216", len(reports))
	}
	hits, misses := cache.Stats()
	if hits != 204 || misses != 12 {
		t.Fatalf("cache stats = %d hits / %d misses, want 204 / 12", hits, misses)
	}

	var b strings.Builder
	if err := obs.WriteProm(&b, reg); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE helix_cache_hits_total counter\n",
		"helix_cache_hits_total 204\n",
		"helix_cache_misses_total 12\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus snapshot missing %q:\n%s", want, out)
		}
	}
	// The cached-bytes gauge tracks the stored reports.
	cs := cache.StatsDetail()
	if cs.Entries != 12 {
		t.Errorf("cache entries = %d, want 12", cs.Entries)
	}
	if cs.Bytes <= 0 {
		t.Errorf("cached bytes = %d, want > 0", cs.Bytes)
	}
	if !strings.Contains(out, "# TYPE helix_cache_bytes gauge\n") {
		t.Errorf("prometheus snapshot missing the cache bytes gauge:\n%s", out)
	}
}

// TestCacheSingleflightWaitCounted pins the waiter accounting: a second
// caller arriving while the first still computes records one singleflight
// wait (and one hit).
func TestCacheSingleflightWaitCounted(t *testing.T) {
	cache := NewReportCacheInRegistry(obs.NewRegistry())
	release := make(chan struct{})
	done := make(chan struct{}, 2)
	go func() {
		cache.Do("k", func() (*Report, error) {
			<-release
			return &Report{Method: "1F1B"}, nil
		})
		done <- struct{}{}
	}()
	// Wait for the first caller to claim the entry, then pile on a second.
	for cache.Len() == 0 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		cache.Do("k", func() (*Report, error) { return &Report{Method: "1F1B"}, nil })
		done <- struct{}{}
	}()
	for {
		if cs := cache.StatsDetail(); cs.SingleflightWaits == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
	<-done
	cs := cache.StatsDetail()
	if cs.Hits != 1 || cs.Misses != 1 || cs.SingleflightWaits != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 singleflight wait", cs)
	}
}

func TestReportCSVTelemetryColumns(t *testing.T) {
	header := ReportCSVHeader()
	if header[len(header)-2] != "wall_seconds" || header[len(header)-1] != "cache_hit" {
		t.Fatalf("CSV header missing telemetry columns: %v", header)
	}
	s, err := NewSession(Model3B(), A800Cluster(), WithSeqLen(8192), WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Simulate(Method1F1B)
	if err != nil {
		t.Fatal(err)
	}
	row := r.CSVRow()
	if len(row) != len(header) {
		t.Fatalf("row has %d fields, header %d", len(row), len(header))
	}
	// Unobserved reports leave the telemetry cells empty.
	if row[len(row)-2] != "" || row[len(row)-1] != "" {
		t.Errorf("unobserved report filled telemetry cells: %v", row[len(row)-2:])
	}
	r.Telemetry = &ReportTelemetry{WallSeconds: 0.25, CacheHit: true}
	row = r.CSVRow()
	if row[len(row)-2] != "0.25" || row[len(row)-1] != "true" {
		t.Errorf("telemetry cells = %v, want [0.25 true]", row[len(row)-2:])
	}
}

package helixpipe

import (
	"bytes"
	"fmt"
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

// The telemetry tests run dupSweep (session_test.go), the duplicate-bearing
// grid: 12 cells, 4 of them exact duplicates, each simulated.
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
	reports, err := executeSpec(t, dupSweep(), WithEventSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reports {
		tel := r.Telemetry
		if tel == nil {
			t.Fatalf("report %d has no telemetry on an observed session", i)
		}
		if tel.WallSeconds <= 0 {
			t.Errorf("report %d: wall_seconds = %g, want > 0", i, tel.WallSeconds)
		}
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
}

// TestWritePromAfterFleet is the acceptance check of the cache's
// instruments: after the committed fleet stream runs through a cache bound
// to a fresh registry, the Prometheus snapshot reports exactly the fleet
// report's hit and miss counts, and the cached-bytes gauge the stored
// reports.
func TestWritePromAfterFleet(t *testing.T) {
	session, fs := exampleFleet(t, "")
	reg := obs.NewRegistry()
	cache := NewReportCacheInRegistry(reg)
	fs.Cache = cache
	report, err := session.Fleet(fs)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := cache.Stats()
	if hits != report.CacheHits || misses != report.CacheMisses {
		t.Errorf("cache stats = %d hits / %d misses, report %d / %d",
			hits, misses, report.CacheHits, report.CacheMisses)
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("the stream made %d hits and %d misses; it must repeat and miss", hits, misses)
	}

	var b strings.Builder
	if err := obs.WriteProm(&b, reg); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	cs := cache.StatsDetail()
	for _, want := range []string{
		"# TYPE helix_cache_hits_total counter\n",
		fmt.Sprintf("helix_cache_hits_total %d\n", report.CacheHits),
		fmt.Sprintf("helix_cache_misses_total %d\n", report.CacheMisses),
		"# TYPE helix_cache_bytes gauge\n",
		fmt.Sprintf("helix_cache_bytes %d\n", cs.Bytes),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus snapshot missing %q:\n%s", want, out)
		}
	}
	// Every miss stored one report.
	if cs.Entries != misses {
		t.Errorf("cache entries = %d, want %d (one per miss)", cs.Entries, misses)
	}
	if cs.Bytes <= 0 {
		t.Errorf("cached bytes = %d, want > 0", cs.Bytes)
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
	if header[len(header)-1] != "wall_seconds" {
		t.Fatalf("CSV header missing the telemetry column: %v", header)
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
	// Unobserved reports leave the telemetry cell empty.
	if row[len(row)-1] != "" {
		t.Errorf("unobserved report filled the telemetry cell: %q", row[len(row)-1])
	}
	r.Telemetry = &ReportTelemetry{WallSeconds: 0.25}
	row = r.CSVRow()
	if row[len(row)-1] != "0.25" {
		t.Errorf("telemetry cell = %q, want 0.25", row[len(row)-1])
	}
}

package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-resolving the same name shares the instrument.
	if got := r.Counter("requests_total").Value(); got != 5 {
		t.Fatalf("re-resolved counter = %d, want 5", got)
	}

	g := r.Gauge("depth")
	g.Set(3.5)
	g.Add(-1)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
}

func TestLabeledCountersAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("pruned_total", "reason", "memory")
	b := r.Counter("pruned_total", "reason", "geometry")
	a.Inc()
	a.Inc()
	b.Inc()
	if a.Value() != 2 || b.Value() != 1 {
		t.Fatalf("labeled counters crossed: memory=%d geometry=%d", a.Value(), b.Value())
	}
	// Label order must not matter for identity.
	x := r.Counter("multi", "b", "2", "a", "1")
	y := r.Counter("multi", "a", "1", "b", "2")
	x.Inc()
	if y.Value() != 1 {
		t.Fatal("label order changed the instrument identity")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got < 55.649 || got > 55.651 {
		t.Fatalf("sum = %g, want ~55.65", got)
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d metrics, want 1", len(snap))
	}
	// le semantics: 0.1 lands in the 0.1 bucket, 50 overflows to +Inf
	// (visible only via count minus the explicit buckets).
	want := []int64{2, 1, 1}
	for i, b := range snap[0].Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket le=%g count = %d, want %d", b.LE, b.Count, want[i])
		}
	}
}

// TestObserveAllMatchesObserve pins the batch observe: bucket counts and the
// count equal one Observe per sample; into an empty histogram the sum adds in
// the same order, so it is equal too. The bounds outnumber ObserveAll's
// on-stack bins once, so both paths run.
func TestObserveAllMatchesObserve(t *testing.T) {
	samples := []float64{0.05, 0.1, 0.1, 0.5, 5, 50, -1, 3, 0.7, 7}
	for _, nb := range []int{3, 20} {
		bounds := make([]float64, nb)
		for i := range bounds {
			bounds[i] = math.Pow(10, float64(i-1)) / 10
		}
		r := NewRegistry()
		one, all := r.Histogram("one", bounds), r.Histogram("all", bounds)
		for _, v := range samples {
			one.Observe(v)
		}
		all.ObserveAll(samples)
		all.ObserveAll(nil)
		snap := r.Snapshot()
		got, want := snap[0], snap[1] // sorted by name: "all", "one"
		if got.Count != want.Count || !reflect.DeepEqual(got.Buckets, want.Buckets) {
			t.Errorf("%d bounds: ObserveAll count %d buckets %v, Observe count %d buckets %v",
				nb, got.Count, got.Buckets, want.Count, want.Buckets)
		}
		if got.Sum != want.Sum {
			t.Errorf("%d bounds: ObserveAll sum %g, Observe sum %g", nb, got.Sum, want.Sum)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x")
}

func TestOddLabelsPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list did not panic")
		}
	}()
	r.Counter("x", "key_without_value")
}

func TestSnapshotSortedAndExpvarString(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Inc()
	r.Gauge("alpha").Set(1)
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Name != "alpha" || snap[1].Name != "zeta" {
		t.Fatalf("snapshot not sorted by name: %+v", snap)
	}
	// String() is the expvar.Var contract: it must be valid JSON.
	var decoded []MetricSnapshot
	if err := json.Unmarshal([]byte(r.String()), &decoded); err != nil {
		t.Fatalf("String() is not JSON: %v", err)
	}
	if len(decoded) != 2 {
		t.Fatalf("String() carried %d metrics, want 2", len(decoded))
	}
}

func TestConcurrentCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", c.Value())
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("helix_cache_hits_total").Add(42)
	r.Gauge("helix_fleet_utilization").Set(0.625)
	r.Counter("helix_tune_pruned_total", "reason", "memory").Add(3)
	h := r.Histogram("helix_cell_seconds", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(1)
	h.Observe(9)

	var b strings.Builder
	if err := WriteProm(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE helix_cache_hits_total counter\n",
		"helix_cache_hits_total 42\n",
		"# TYPE helix_fleet_utilization gauge\n",
		"helix_fleet_utilization 0.625\n",
		"helix_tune_pruned_total{reason=\"memory\"} 3\n",
		"# TYPE helix_cell_seconds histogram\n",
		"helix_cell_seconds_bucket{le=\"0.5\"} 1\n",
		"helix_cell_seconds_bucket{le=\"2\"} 2\n",
		"helix_cell_seconds_bucket{le=\"+Inf\"} 3\n",
		"helix_cell_seconds_sum 10.25\n",
		"helix_cell_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// One TYPE header per family even with several labeled children.
	if n := strings.Count(out, "# TYPE helix_tune_pruned_total"); n != 1 {
		t.Errorf("family helix_tune_pruned_total has %d TYPE headers, want 1", n)
	}
}

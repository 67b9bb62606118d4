package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind discriminates the instrument types of a Registry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("metricKind(%d)", int(k))
	}
}

// metric is one registered instrument. The same struct backs all three
// kinds; the wrappers expose only the operations that make sense for each.
type metric struct {
	name   string
	labels [][2]string // sorted by key
	kind   metricKind

	count atomic.Int64  // counter value; histogram observation count
	bits  atomic.Uint64 // gauge value; histogram sum (float64 bits)

	bounds  []float64 // histogram upper bounds, ascending
	buckets []atomic.Int64
}

func (m *metric) addFloat(v float64) {
	for {
		old := m.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if m.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ m *metric }

// Inc adds one.
func (c *Counter) Inc() { c.m.count.Add(1) }

// Add adds n (n must be non-negative; not enforced, counters are trusted).
func (c *Counter) Add(n int64) { c.m.count.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.m.count.Load() }

// Gauge is a float metric that can move in both directions.
type Gauge struct{ m *metric }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.m.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by v (negative to decrease). Several publishers can
// Add into one shared gauge (e.g. per-cache cached bytes).
func (g *Gauge) Add(v float64) { g.m.addFloat(v) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.m.bits.Load()) }

// Histogram counts observations into fixed upper-bound buckets and tracks
// their sum, Prometheus-style (cumulative on exposition, not in storage).
type Histogram struct{ m *metric }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.m.bounds, v)
	if i < len(h.m.buckets) {
		h.m.buckets[i].Add(1)
	}
	h.m.count.Add(1)
	h.m.addFloat(v)
}

// ObserveAll records every sample of vs. Bucket counts and the count end as
// len(vs) Observe calls would leave them, but each touched bucket, the count
// and the sum are updated once: the samples are binned locally first. The
// sum is added as one partial sum, so its rounding may differ from adding
// sample by sample (as it already does with the order concurrent observers
// interleave in).
func (h *Histogram) ObserveAll(vs []float64) {
	if len(vs) == 0 {
		return
	}
	var local [16]int64
	counts := local[:0]
	if n := len(h.m.buckets); n <= len(local) {
		counts = local[:n]
	} else {
		counts = make([]int64, n)
	}
	sum := 0.0
	for _, v := range vs {
		if i := sort.SearchFloat64s(h.m.bounds, v); i < len(counts) {
			counts[i]++
		}
		sum += v
	}
	for i, n := range counts {
		if n > 0 {
			h.m.buckets[i].Add(n)
		}
	}
	h.m.count.Add(int64(len(vs)))
	h.m.addFloat(sum)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.m.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.m.bits.Load()) }

// Registry holds named instruments. Lookups are get-or-create, so
// independent publishers resolving the same (name, labels) share one
// instrument; callers on hot paths resolve once and keep the pointer.
// The zero Registry is not usable; use NewRegistry or Default.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// std is the process-wide default registry. Package-level instrumentation
// (sim runner pool, report caches, tune search, fleet gauges) publishes
// here unless a caller injects its own registry.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// NewRegistry returns an empty registry, independent of Default. Tests use
// private registries to assert exact values without cross-test noise.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// labelPairs normalizes alternating key/value label arguments.
func labelPairs(name string, kv []string) [][2]string {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q: odd label list %q", name, kv))
	}
	pairs := make([][2]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, [2]string{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	return pairs
}

func metricKey(name string, pairs [][2]string) string {
	if len(pairs) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, p := range pairs {
		b.WriteByte(0)
		b.WriteString(p[0])
		b.WriteByte('=')
		b.WriteString(p[1])
	}
	return b.String()
}

func (r *Registry) lookup(name string, kind metricKind, kv []string) *metric {
	pairs := labelPairs(name, kv)
	key := metricKey(name, pairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, labels: pairs, kind: kind}
	r.metrics[key] = m
	return m
}

// Counter returns the counter with the given name and alternating
// key/value labels, creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return &Counter{r.lookup(name, kindCounter, labels)}
}

// Gauge returns the gauge with the given name and labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return &Gauge{r.lookup(name, kindGauge, labels)}
}

// Histogram returns the histogram with the given name, upper bucket bounds
// (ascending; an implicit +Inf bucket is added on exposition) and labels,
// creating it on first use. Bounds are fixed at creation; later calls for
// the same instrument ignore the argument.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	m := r.lookup(name, kindHistogram, labels)
	r.mu.Lock()
	if m.bounds == nil {
		m.bounds = append([]float64(nil), bounds...)
		m.buckets = make([]atomic.Int64, len(m.bounds))
	}
	r.mu.Unlock()
	return &Histogram{m}
}

// Bucket is one histogram bucket in a snapshot: the count of observations
// at or below the upper bound (non-cumulative).
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// MetricSnapshot is the point-in-time state of one instrument.
type MetricSnapshot struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Type    string            `json:"type"`
	Value   float64           `json:"value"`
	Count   int64             `json:"count,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Buckets []Bucket          `json:"buckets,omitempty"`
}

// Snapshot returns the state of every instrument, sorted by name then
// label set, so output is deterministic for a quiesced registry.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ms := make([]*metric, 0, len(keys))
	for _, k := range keys {
		ms = append(ms, r.metrics[k])
	}
	r.mu.Unlock()

	out := make([]MetricSnapshot, 0, len(ms))
	for _, m := range ms {
		s := MetricSnapshot{Name: m.name, Type: m.kind.String()}
		if len(m.labels) > 0 {
			s.Labels = make(map[string]string, len(m.labels))
			for _, p := range m.labels {
				s.Labels[p[0]] = p[1]
			}
		}
		switch m.kind {
		case kindCounter:
			s.Value = float64(m.count.Load())
		case kindGauge:
			s.Value = math.Float64frombits(m.bits.Load())
		case kindHistogram:
			s.Count = m.count.Load()
			s.Sum = math.Float64frombits(m.bits.Load())
			s.Buckets = make([]Bucket, 0, len(m.bounds))
			for i, b := range m.bounds {
				s.Buckets = append(s.Buckets, Bucket{LE: b, Count: m.buckets[i].Load()})
			}
		}
		out = append(out, s)
	}
	return out
}

// String renders the snapshot as JSON. The method makes *Registry satisfy
// the expvar.Var interface, so a registry can be published on the expvar
// endpoint with expvar.Publish("helix", obs.Default()) without this
// package importing expvar.
func (r *Registry) String() string {
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		return "[]"
	}
	return string(b)
}

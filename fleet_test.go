package helixpipe

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// exampleFleet resolves the committed capacity-study spec, optionally
// overriding the policy.
func exampleFleet(t *testing.T, policy string) (*Session, FleetSpec) {
	t.Helper()
	spec, err := ParseSpecFile("examples/fleet_capacity/fleet_stream.json")
	if err != nil {
		t.Fatal(err)
	}
	if policy != "" {
		spec.Fleet.Policy = policy
	}
	session, runset, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if runset.Kind != RunKindFleet || runset.Fleet == nil {
		t.Fatalf("example spec resolved to kind %q, want fleet", runset.Kind)
	}
	return session, *runset.Fleet
}

// TestFleetExampleStream is the acceptance run: the committed example spec
// streams ≥50 jobs onto a preset topology and the report carries the
// capacity-planning metrics — queue wait, JCT, utilization, fragmentation —
// with the spec→Report cache absorbing repeated job shapes.
func TestFleetExampleStream(t *testing.T) {
	session, fs := exampleFleet(t, "")
	if len(fs.Jobs) < 50 {
		t.Fatalf("example stream has %d jobs, want >= 50", len(fs.Jobs))
	}
	report, err := session.Fleet(fs)
	if err != nil {
		t.Fatal(err)
	}
	if report.Jobs != len(fs.Jobs) || len(report.JobRecords) != report.Jobs {
		t.Errorf("report covers %d jobs (%d records), want %d",
			report.Jobs, len(report.JobRecords), len(fs.Jobs))
	}
	if report.MakespanSec <= 0 {
		t.Error("no makespan")
	}
	if report.Wait.MeanSec <= 0 {
		t.Error("no queue wait despite an oversubscribed arrival rate")
	}
	if report.JCT.MeanSec <= report.Wait.MeanSec {
		t.Error("mean JCT not above mean wait")
	}
	if report.Utilization <= 0 || report.Utilization > 1 {
		t.Errorf("utilization %g out of (0,1]", report.Utilization)
	}
	if report.Fragmentation < 0 || report.Fragmentation > 1 {
		t.Errorf("fragmentation %g out of [0,1]", report.Fragmentation)
	}
	if report.CacheHits == 0 {
		t.Error("no cache hits on a repeated-job-shape stream")
	}
	if report.CacheMisses == 0 || report.CacheMisses >= report.Jobs/2 {
		t.Errorf("%d cache misses over %d jobs; the cache is not absorbing repeats",
			report.CacheMisses, report.Jobs)
	}
	if len(report.LinkTraffic) == 0 {
		t.Error("no per-link-class traffic")
	}
}

// TestFleetBestFitBeatsFIFO pins the policy comparison the subsystem exists
// to answer: on the example stream, best-fit's node packing finishes the
// stream sooner than FIFO's first-fit carve.
func TestFleetBestFitBeatsFIFO(t *testing.T) {
	cache := NewReportCache() // shared: both policies price identical job shapes
	run := func(policy string) *FleetReport {
		session, fs := exampleFleet(t, policy)
		fs.Cache = cache
		report, err := session.Fleet(fs)
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	fifo := run(FleetPolicyFIFO)
	best := run(FleetPolicyBestFit)
	if best.MakespanSec >= fifo.MakespanSec {
		t.Errorf("best-fit makespan %.1fs is not below fifo %.1fs",
			best.MakespanSec, fifo.MakespanSec)
	}
	if best.Wait.MeanSec >= fifo.Wait.MeanSec {
		t.Errorf("best-fit mean wait %.1fs is not below fifo %.1fs",
			best.Wait.MeanSec, fifo.Wait.MeanSec)
	}
}

// TestFleetDeterministicJSON pins end-to-end determinism: resolving and
// running the same spec twice, from scratch, yields byte-identical fleet
// report JSON.
func TestFleetDeterministicJSON(t *testing.T) {
	render := func() []byte {
		session, fs := exampleFleet(t, "")
		report, err := session.Fleet(fs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteFleetReportJSON(&buf, report); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Error("identical specs produced different fleet report JSON")
	}
}

// TestFleetSpecRoundTrip pins -emit-spec idempotency for the fleet section:
// a resolved spec re-resolves to the identical job stream.
func TestFleetSpecRoundTrip(t *testing.T) {
	spec, err := ParseSpecFile("examples/fleet_capacity/fleet_stream.json")
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := spec.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	_, rs1, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	_, rs2, err := resolved.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs1.Fleet.Jobs) != len(rs2.Fleet.Jobs) {
		t.Fatalf("round trip changed the stream: %d vs %d jobs",
			len(rs1.Fleet.Jobs), len(rs2.Fleet.Jobs))
	}
	for i := range rs1.Fleet.Jobs {
		j1, j2 := rs1.Fleet.Jobs[i], rs2.Fleet.Jobs[i]
		if j1.ID != j2.ID || j1.Template != j2.Template ||
			j1.ArrivalSec != j2.ArrivalSec || j1.Priority != j2.Priority ||
			j1.Iterations != j2.Iterations {
			t.Fatalf("job %d drifted through the round trip: %+v vs %+v", i, j1, j2)
		}
	}
}

// TestFleetExecuteRejected pins the entry-point split: Execute refuses fleet
// specs and points at Session.Fleet.
func TestFleetExecuteRejected(t *testing.T) {
	spec, err := ParseSpecFile("examples/fleet_capacity/fleet_stream.json")
	if err != nil {
		t.Fatal(err)
	}
	session, _, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range session.Execute(spec) {
		if err == nil || !strings.Contains(err.Error(), "Session.Fleet") {
			t.Fatalf("Execute on a fleet spec: err = %v, want a Session.Fleet redirect", err)
		}
		break
	}
}

// TestFleetRequiresTopology pins the flat-cluster error.
func TestFleetRequiresTopology(t *testing.T) {
	spec := &ExperimentSpec{Model: "3B", Cluster: "A800", SeqLen: 8192, Stages: 4,
		Methods: []string{"HelixPipe"},
		Fleet:   &SpecFleet{Templates: []SpecFleetTemplate{{Name: "a"}}},
	}
	if _, _, err := spec.Resolve(); err == nil ||
		!strings.Contains(err.Error(), "topology") {
		t.Errorf("flat-cluster fleet spec resolved: err = %v", err)
	}
}

// TestFleetTraceReplay drives the trace path end to end: a replayed trace
// produces jobs at the traced arrivals with the traced overrides.
func TestFleetTraceReplay(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	if err := os.WriteFile(trace, []byte(`[
		{"arrival_sec": 0, "template": "short-8k"},
		{"arrival_sec": 30, "template": "long-16k", "priority": 9},
		{"arrival_sec": 30, "template": "short-8k", "iterations": 7}
	]`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpecFile("examples/fleet_capacity/fleet_stream.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Fleet.Trace = trace
	spec.Fleet.Jobs = 0
	spec.Fleet.Arrival = ""
	spec.Fleet.RatePerHour = 0
	session, runset, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	fs := runset.Fleet
	if len(fs.Jobs) != 3 {
		t.Fatalf("trace produced %d jobs, want 3", len(fs.Jobs))
	}
	if fs.Jobs[1].Priority != 9 || fs.Jobs[2].Iterations != 7 {
		t.Errorf("trace overrides lost: %+v", fs.Jobs)
	}
	report, err := session.Fleet(*fs)
	if err != nil {
		t.Fatal(err)
	}
	if report.Jobs != 3 {
		t.Errorf("trace run covered %d jobs, want 3", report.Jobs)
	}
}

// TestFleetHostileSizes pins the two fleet sizes that used to break a run:
// two billion jobs, which ran out of memory materializing the stream, and
// near-MaxInt64 iterations, whose link-traffic totals wrapped negative.
// Both fail with an error now, whether the iterations come from the fleet
// section or from a replayed trace.
func TestFleetHostileSizes(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(trace, []byte(`[
		{"arrival_sec": 0, "template": "short-8k", "iterations": 9223372036854775807}
	]`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(f *SpecFleet)
		want string
	}{
		{"two billion jobs", func(f *SpecFleet) { f.Jobs = 2_000_000_000 },
			"fleet jobs must be between 1 and 65536, got 2000000000"},
		{"MaxInt64 iterations", func(f *SpecFleet) { f.Jobs, f.Iterations = 3, math.MaxInt64 },
			"9223372036854775807 iterations overflow the nvlink link traffic"},
		{"MaxInt64 trace iterations", func(f *SpecFleet) { f.Trace, f.Jobs, f.Arrival, f.RatePerHour = trace, 0, "", 0 },
			"9223372036854775807 iterations overflow the nvlink link traffic"},
	} {
		spec, err := ParseSpecFile("examples/fleet_capacity/fleet_stream.json")
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(spec.Fleet)
		session, rs, err := spec.Resolve()
		if err == nil {
			_, err = session.Fleet(*rs.Fleet)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestFleetProbeAndPerfetto pins the observability surface: the spec-level
// probe sees every engine event with sane cumulative counters, and the
// fleet report exports as a valid Perfetto trace with one process per job.
func TestFleetProbeAndPerfetto(t *testing.T) {
	session, fs := exampleFleet(t, "")
	probes := 0
	fs.Probe = func(p FleetProbeEvent) {
		probes++
		if p.Queued < 0 || p.Running < 0 || p.Preemptions < 0 {
			t.Fatalf("negative probe counters at t=%gs: %+v", p.TimeSec, p)
		}
	}
	report, err := session.Fleet(fs)
	if err != nil {
		t.Fatal(err)
	}
	if probes == 0 {
		t.Fatal("spec probe never fired")
	}

	var buf bytes.Buffer
	if err := WriteFleetPerfetto(&buf, report); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("fleet trace is not valid JSON: %v", err)
	}
	pids := map[float64]bool{}
	runs := 0
	for _, e := range doc.TraceEvents {
		if e["ph"] == "M" && e["name"] == "process_name" {
			pids[e["pid"].(float64)] = true
		}
		if e["ph"] == "X" && e["name"] == "run" {
			runs++
			if e["ts"].(float64) < 0 || e["dur"].(float64) < 0 {
				t.Fatalf("run slice with negative time: %v", e)
			}
		}
	}
	if len(pids) != report.Jobs {
		t.Errorf("trace names %d processes, want one per job (%d)", len(pids), report.Jobs)
	}
	if runs != report.Jobs {
		t.Errorf("trace has %d run slices, want %d", runs, report.Jobs)
	}
}

// TestFleetSharedCacheKeys runs one stream twice on a shared cache. The
// second run is all hits, and the cache holds exactly the keys
// ReportCache.Key gives for each job's spec and carve signature — the keys
// the fleet simulator computes once per (spec, signature) pair must equal
// them, or a cache shared with Key's callers would miss.
func TestFleetSharedCacheKeys(t *testing.T) {
	session, fs := exampleFleet(t, "")
	cache := NewReportCacheInRegistry(obs.NewRegistry())
	fs.Cache = cache
	first, err := session.Fleet(fs)
	if err != nil {
		t.Fatal(err)
	}
	if first.Preemptions != 0 {
		t.Fatal("the example stream preempted; its records no longer name every carve")
	}
	entries := cache.Len()
	second, err := session.Fleet(fs)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheMisses != 0 || second.CacheHits != len(fs.Jobs) || cache.Len() != entries {
		t.Errorf("second run: %d hits, %d misses, %d entries; want %d hits, 0 misses, %d entries",
			second.CacheHits, second.CacheMisses, cache.Len(), len(fs.Jobs), entries)
	}

	topo, _ := session.Topology()
	want := map[string]bool{}
	for i, rec := range first.JobRecords {
		devs := slices.Sorted(slices.Values(rec.Devices)) // the carve, in ascending order
		sub, _ := fleet.Carve(topo, devs)
		key, err := cache.Key(fs.Jobs[i].Spec, "carve="+fleet.Signature(sub))
		if err != nil {
			t.Fatal(err)
		}
		want[key] = true
	}
	cache.mu.Lock()
	got := map[string]bool{}
	for key := range cache.entries {
		got[key] = true
	}
	cache.mu.Unlock()
	if !maps.Equal(got, want) {
		t.Errorf("the cache holds %d keys, ReportCache.Key gives %d; they differ", len(got), len(want))
	}
}

// TestFleetUnresolvableJobSpec pins the error of a job whose spec does not
// resolve: the run fails at that job, with ReportCache.Key's error, whether
// the spec fails to normalize or to build a session.
func TestFleetUnresolvableJobSpec(t *testing.T) {
	session, fs := exampleFleet(t, "")
	good := fs.Jobs[0].Spec
	badPlacement, badGeometry := *good, *good
	badPlacement.Placement = "nowhere"
	badGeometry.Stages = 5
	for _, bad := range []*ExperimentSpec{&badPlacement, &badGeometry} {
		_, keyErr := NewReportCache().Key(bad)
		if keyErr == nil {
			t.Fatalf("spec %+v resolves", bad)
		}
		jobs := []FleetJob{
			{ID: "ok", Iterations: 1, Spec: good},
			{ID: "bad", ArrivalSec: 1, Iterations: 1, Spec: bad},
		}
		_, err := session.Fleet(FleetSpec{Jobs: jobs})
		if want := "fleet: job bad: " + keyErr.Error(); err == nil || err.Error() != want {
			t.Errorf("err = %v, want %q", err, want)
		}
	}
}

// TestFleetCarvePricesNodeGPU pins that a carve prices on its nodes' own
// GPUs: on the mixed-generation preset, a job carved onto an H20 node
// simulates exactly as on a one-node H20 topology with the same link, and
// not as on an A800 node.
func TestFleetCarvePricesNodeGPU(t *testing.T) {
	spec := &ExperimentSpec{Model: "3B", Cluster: "DGX-A800x2-H20x2", SeqLen: 16384, Stages: 4,
		Methods: []string{"HelixPipe"}, Placement: "greedy"}
	base, rs, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	mixed, _ := base.Topology()
	iteration := func(sub ClusterTopology) float64 {
		t.Helper()
		r, err := simulateOnCarve(base, rs, MethodHelix, sub)
		if err != nil {
			t.Fatal(err)
		}
		return r.Sim.IterationSeconds
	}
	h20Node := mixed.Nodes[2]
	oneNode := ClusterTopology{Name: "H20x1", GPU: "H20",
		Nodes: []ClusterNode{{Name: "node0", Devices: 4, Intra: h20Node.Intra}}}
	h20Carve, _ := fleet.Carve(mixed, []int{16, 17, 18, 19})
	a800Carve, _ := fleet.Carve(mixed, []int{0, 1, 2, 3})
	got, want := iteration(h20Carve), iteration(oneNode)
	if got != want {
		t.Errorf("H20-node carve simulates %.4fs per iteration, a one-node H20 topology %.4fs", got, want)
	}
	if a800 := iteration(a800Carve); a800 == got {
		t.Errorf("A800- and H20-node carves both simulate %.4fs per iteration", got)
	}
}

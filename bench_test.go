package helixpipe

// This file holds the benchmark harness required by the reproduction: one
// testing.B benchmark per paper table and figure (regenerating its rows),
// plus micro-benchmarks of the core machinery. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks report domain metrics via b.ReportMetric where meaningful
// (headline speedup, simulated tokens/s).

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/tensor"
)

func benchTable(b *testing.B, fn func() (*bench.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty experiment")
		}
	}
}

// BenchmarkTable1 regenerates paper Table 1 (layer FLOPs/memory accounting).
func BenchmarkTable1(b *testing.B) {
	benchTable(b, func() (*bench.Table, error) { return bench.Table1(), nil })
}

// BenchmarkTable2 regenerates paper Table 2 (analytic vs simulated bubbles).
func BenchmarkTable2(b *testing.B) {
	benchTable(b, func() (*bench.Table, error) { return bench.Table2(), nil })
}

// BenchmarkTable3 regenerates paper Table 3 (model configurations).
func BenchmarkTable3(b *testing.B) {
	benchTable(b, func() (*bench.Table, error) { return bench.Table3(), nil })
}

// BenchmarkFigure3 regenerates paper Figure 3 (layer phase breakdown).
func BenchmarkFigure3(b *testing.B) {
	benchTable(b, func() (*bench.Table, error) { return bench.Figure3(), nil })
}

// BenchmarkFigure4 regenerates paper Figure 4 (1F1B activation memory).
func BenchmarkFigure4(b *testing.B) {
	benchTable(b, func() (*bench.Table, error) { return bench.Figure4(), nil })
}

// BenchmarkFigure8 regenerates the six panels of paper Figure 8 (normalized
// throughput across models, clusters, pipeline sizes, sequence lengths) and
// reports the headline 7B/128k/p8/H20 gain over the best baseline.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := bench.Figure8All()
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) != 6 {
			b.Fatalf("want 6 panels, got %d", len(tables))
		}
	}
	s := bench.NewScenario(model.Model7B(), costmodel.H20Cluster(), 131072, 8)
	row, err := s.ThroughputRow()
	if err != nil {
		b.Fatal(err)
	}
	bestBaseline := 0.0
	for _, m := range []sched.Method{sched.Method1F1B, sched.MethodZB1P, sched.MethodAdaPipe} {
		if row[m] > bestBaseline {
			bestBaseline = row[m]
		}
	}
	b.ReportMetric((row[sched.MethodHelix]/bestBaseline-1)*100, "headline-gain-%")
}

// BenchmarkFigure9 regenerates paper Figure 9 (compute vs comm overlap).
func BenchmarkFigure9(b *testing.B) {
	benchTable(b, func() (*bench.Table, error) { return bench.Figure9(), nil })
}

// BenchmarkFigure10 regenerates paper Figure 10 (per-stage peak memory).
func BenchmarkFigure10(b *testing.B) {
	benchTable(b, bench.Figure10)
}

// BenchmarkFigure11 regenerates paper Figure 11 (recomputation ablation).
func BenchmarkFigure11(b *testing.B) {
	benchTable(b, bench.Figure11)
}

// BenchmarkChunkedMLP regenerates the section 4.4.2 fragmentation study.
func BenchmarkChunkedMLP(b *testing.B) {
	benchTable(b, bench.ChunkedMLPTable)
}

// BenchmarkMicroBatchSaturation runs the section 3.1 saturation extension.
func BenchmarkMicroBatchSaturation(b *testing.B) {
	benchTable(b, bench.MicroBatchSaturation)
}

// BenchmarkInterleavedComparison runs the section 6.2 ablation.
func BenchmarkInterleavedComparison(b *testing.B) {
	benchTable(b, bench.InterleavedComparison)
}

// BenchmarkZB1PSensitivity runs the backward-W share sensitivity extension.
func BenchmarkZB1PSensitivity(b *testing.B) {
	benchTable(b, bench.ZB1PSensitivity)
}

// headlineSession builds the paper's headline configuration (7B, 128k, p=8)
// for the micro-benchmarks.
func headlineSession(tb testing.TB) *Session {
	tb.Helper()
	s, err := NewSession(Model7B(), H20Cluster(), WithSeqLen(131072), WithStages(8))
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkBuildHelixPlan measures HelixPipe plan construction at the
// headline scale (p=8, m=16, 32 layers). The alloc-gate CI step pins its
// allocs/op to the budget in testdata/alloc_budget.json.
func BenchmarkBuildHelixPlan(b *testing.B) {
	s := headlineSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Plan(MethodHelix); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildHelixPlanLargeM measures HelixPipe plan construction where
// the micro-batch count dominates: 7B on H20 at 4k tokens, p=4, m=1024. A
// scheduler that rescans its ready tasks per pick grows with m² here; the
// rank-ordered ready set keeps the build within a few times ZB1P's.
func BenchmarkBuildHelixPlanLargeM(b *testing.B) {
	s, err := NewSession(Model7B(), H20Cluster(), WithSeqLen(4096), WithStages(4), WithMicroBatches(1024))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Plan(MethodHelix); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHelixBuildAllocBudget enforces the helix build budget in-process, the
// contract the CI alloc-gate re-checks from BenchmarkBuildHelixPlan's
// -benchmem output.
func TestHelixBuildAllocBudget(t *testing.T) {
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget struct {
		HelixBuildAllocsPerOp float64 `json:"helix_build_allocs_per_op"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatal(err)
	}
	s := headlineSession(t)
	got := testing.AllocsPerRun(5, func() {
		if _, err := s.Plan(MethodHelix); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget.HelixBuildAllocsPerOp {
		t.Errorf("helix plan build allocates %.0f allocs/op, budget %.0f (testdata/alloc_budget.json)",
			got, budget.HelixBuildAllocsPerOp)
	}
}

// layerwiseMethods are the layer-wise baselines BenchmarkBuildLayerwisePlans
// builds per op.
var layerwiseMethods = []Method{MethodGPipe, Method1F1B, MethodInterleaved, MethodZB1P, MethodZB2P, MethodAdaPipe}

// layerwiseSession is 7B on H20 at 64k with p=8 and the default m=16 and
// memory budget, for the layer-wise build micro-benchmark.
func layerwiseSession(tb testing.TB) *Session {
	tb.Helper()
	s, err := NewSession(Model7B(), H20Cluster(), WithSeqLen(65536), WithStages(8))
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// buildLayerwisePlans builds every layer-wise baseline once.
func buildLayerwisePlans(tb testing.TB, s *Session) {
	for _, m := range layerwiseMethods {
		if _, err := s.Plan(m); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkBuildLayerwisePlans measures building the six layer-wise
// baselines (GPipe, 1F1B, interleaved 1F1B, ZB1P, ZB2P, AdaPipe) at 7B/H20,
// 64k, p=8, m=16. The alloc-gate CI step pins its allocs/op to the budget
// in testdata/alloc_budget.json.
func BenchmarkBuildLayerwisePlans(b *testing.B) {
	s := layerwiseSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildLayerwisePlans(b, s)
	}
}

// TestLayerwiseBuildAllocBudget enforces the layer-wise build budget
// in-process, the contract the CI alloc-gate re-checks from
// BenchmarkBuildLayerwisePlans's -benchmem output. The list scheduler's
// scratch comes from a sync.Pool, which the race detector drops at random,
// so the budget is checked only without it.
func TestLayerwiseBuildAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget struct {
		LayerwiseBuildAllocsPerOp float64 `json:"layerwise_build_allocs_per_op"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatal(err)
	}
	if budget.LayerwiseBuildAllocsPerOp <= 0 {
		t.Fatal("testdata/alloc_budget.json pins no layerwise_build_allocs_per_op")
	}
	s := layerwiseSession(t)
	got := testing.AllocsPerRun(5, func() { buildLayerwisePlans(t, s) })
	if got > budget.LayerwiseBuildAllocsPerOp {
		t.Errorf("layer-wise plan builds allocate %.0f allocs/op, budget %.0f (testdata/alloc_budget.json)",
			got, budget.LayerwiseBuildAllocsPerOp)
	}
}

// placementSession is the headline configuration's books (7B, H20, 128k,
// p=8) on the DGX-A800x4 topology, for the placement micro-benchmark.
func placementSession(tb testing.TB) *Session {
	tb.Helper()
	topo, ok := TopologyByName("DGX-A800x4")
	if !ok {
		tb.Fatal("no DGX-A800x4 topology preset")
	}
	s, err := NewSession(Model7B(), H20Cluster(), WithSeqLen(131072), WithStages(8), WithCluster(topo))
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkPlacementFor measures one greedy HelixPipe placement search at
// the headline scale: the closed-form traffic matrix plus the search, no
// plan build. The alloc-gate CI step pins its allocs/op to the budget in
// testdata/alloc_budget.json.
func BenchmarkPlacementFor(b *testing.B) {
	s := placementSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PlacementFor(MethodHelix, PlacementGreedy, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlacementForAllocBudget enforces the placement-search budget
// in-process, the contract the CI alloc-gate re-checks from
// BenchmarkPlacementFor's -benchmem output. A plan build inside the search
// costs thousands of allocations and fails it.
func TestPlacementForAllocBudget(t *testing.T) {
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget struct {
		PlacementForAllocsPerOp float64 `json:"placement_for_allocs_per_op"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatal(err)
	}
	if budget.PlacementForAllocsPerOp <= 0 {
		t.Fatal("testdata/alloc_budget.json pins no placement_for_allocs_per_op")
	}
	s := placementSession(t)
	got := testing.AllocsPerRun(5, func() {
		if _, err := s.PlacementFor(MethodHelix, PlacementGreedy, 1); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget.PlacementForAllocsPerOp {
		t.Errorf("PlacementFor allocates %.0f allocs/op, budget %.0f (testdata/alloc_budget.json)",
			got, budget.PlacementForAllocsPerOp)
	}
}

// headlinePlans builds the headline HelixPipe and ZB1P plans (7B, H20, 128k,
// p=8, m=16) for the validator micro-benchmark.
func headlinePlans(tb testing.TB) []*Plan {
	tb.Helper()
	s := headlineSession(tb)
	var plans []*Plan
	for _, m := range []Method{MethodHelix, MethodZB1P} {
		p, err := s.Plan(m)
		if err != nil {
			tb.Fatal(err)
		}
		plans = append(plans, p)
	}
	return plans
}

// validateFresh validates each plan's programs once. Validate memoizes its
// verdict on the Plan value, so every call validates a fresh Plan over the
// same programs.
func validateFresh(tb testing.TB, plans []*Plan) {
	for _, p := range plans {
		fresh := Plan{Method: p.Method, Stages: p.Stages, MicroBatches: p.MicroBatches, Layers: p.Layers,
			Ops: p.Ops, Costs: p.Costs, Batch: p.Batch, Placement: p.Placement}
		if err := sched.Validate(&fresh); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkValidatePlans measures the plan validator (the one walk over
// every op and the replay of the message ops) on the headline HelixPipe and
// ZB1P programs. The alloc-gate CI step pins its allocs/op to the budget in
// testdata/alloc_budget.json.
func BenchmarkValidatePlans(b *testing.B) {
	plans := headlinePlans(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		validateFresh(b, plans)
	}
}

// TestValidateAllocBudget enforces the validator budget in-process, the
// contract the CI alloc-gate re-checks from BenchmarkValidatePlans's
// -benchmem output. Matching messages through a hash map costs several
// allocations per plan more and fails it.
func TestValidateAllocBudget(t *testing.T) {
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget struct {
		ValidateAllocsPerOp float64 `json:"validate_allocs_per_op"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatal(err)
	}
	if budget.ValidateAllocsPerOp <= 0 {
		t.Fatal("testdata/alloc_budget.json pins no validate_allocs_per_op")
	}
	plans := headlinePlans(t)
	got := testing.AllocsPerRun(5, func() { validateFresh(t, plans) })
	if got > budget.ValidateAllocsPerOp {
		t.Errorf("validating the headline plans allocates %.0f allocs/op, budget %.0f (testdata/alloc_budget.json)",
			got, budget.ValidateAllocsPerOp)
	}
}

// TestValidatePlacedAllocs pins the allocations of placed-plan validation:
// checking that no two stages share a device builds no table, so validating
// the headline plans and a 16-stage ZB1P plan placed on distinct devices
// allocates no more than validating the same plans unplaced. A map of the
// devices seen outgrows the stack at 16 stages, costs an allocation per
// placed plan and fails it. Skipped under -race, which drops the
// validator's pooled scratch at random.
func TestValidatePlacedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	s, err := NewSession(Model7B(), H20Cluster(), WithSeqLen(131072), WithStages(16))
	if err != nil {
		t.Fatal(err)
	}
	deep, err := s.Plan(MethodZB1P)
	if err != nil {
		t.Fatal(err)
	}
	plans := append(headlinePlans(t), deep)
	placed := make([]*Plan, len(plans))
	for i, p := range plans {
		devices := make([]int, p.Stages)
		for s := range devices {
			devices[s] = 3*s + 1
		}
		placed[i] = &Plan{Method: p.Method, Stages: p.Stages, MicroBatches: p.MicroBatches, Layers: p.Layers,
			Ops: p.Ops, Costs: p.Costs, Batch: p.Batch, Placement: devices}
	}
	unplaced := testing.AllocsPerRun(5, func() { validateFresh(t, plans) })
	if got := testing.AllocsPerRun(5, func() { validateFresh(t, placed) }); got > unplaced {
		t.Errorf("validating the placed plans allocates %.0f allocs/op, unplaced %.0f", got, unplaced)
	}
}

// BenchmarkSimulateHelix measures one simulated headline iteration and
// reports simulated tokens/s.
func BenchmarkSimulateHelix(b *testing.B) {
	s := headlineSession(b)
	plan, err := s.Plan(MethodHelix)
	if err != nil {
		b.Fatal(err)
	}
	engine := NewSimEngine(SimOptions{})
	var tput float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := engine.Run(plan)
		if err != nil {
			b.Fatal(err)
		}
		tput = report.SimResult().Throughput(s.TokensPerIteration())
	}
	b.ReportMetric(tput, "simulated-tokens/s")
}

// largeSweep resolves the sweep BenchmarkLargeSweep runs — every registered
// method across four sequence lengths and three pipeline sizes, 144 cells —
// and returns a function that runs it once through Session.Execute and
// reports its cell count.
func largeSweep(tb testing.TB) func() int {
	tb.Helper()
	spec := &ExperimentSpec{Model: "3B", Cluster: "A800", Sweep: &SpecSweep{
		SeqLens: []int{8192, 16384, 32768, 65536},
		Stages:  []int{2, 4, 8},
	}}
	s, _, err := spec.Resolve()
	if err != nil {
		tb.Fatal(err)
	}
	return func() int {
		reports, err := collectReports(s.Execute(spec))
		if err != nil {
			tb.Fatal(err)
		}
		if len(reports) == 0 {
			tb.Fatal("empty sweep")
		}
		return len(reports)
	}
}

// BenchmarkLargeSweep measures the large sweep through Session.Execute and
// reports cells simulated per second. This is the wall-clock number the
// engine rewrite and cost-book memoization target; CI gates the same path
// through the benchmark module's sweep-flat workload, recorded on the parent
// commit and the change (benchmark/record.sh). The alloc-gate CI step runs
// it with -cpu 1, where every call reuses the program slabs the call before
// left on the free list, and pins its B/op to the budget in
// testdata/alloc_budget.json.
func BenchmarkLargeSweep(b *testing.B) {
	sweep := largeSweep(b)
	cells := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells = sweep()
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds()*float64(b.N), "cells/s")
}

// TestLargeSweepBytesBudget enforces the large sweep's bytes budget
// in-process, the contract the CI alloc-gate re-checks from
// BenchmarkLargeSweep's -benchmem output at -cpu 1: after a warm-up run and
// a collection, as the benchmark's probe run and its runtime.GC leave the
// process, three runs one worker wide may allocate no more bytes per run
// than testdata/alloc_budget.json pins. Each run builds into the slabs the
// run before left on the free list, so a cell whose plan is built in fresh
// memory instead of a recycled slab, a list scheduler that allocates its
// arrays per build, or a validator that allocates its tables per plan, fails
// it. Under the race detector sync.Pool drops the list scheduler's arrays,
// the simulator's runners and the validator's tables at random, so the
// budget is checked only without it.
func TestLargeSweepBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under the race detector")
	}
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget struct {
		LargeSweepBytesPerOp float64 `json:"large_sweep_bytes_per_op"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatal(err)
	}
	if budget.LargeSweepBytesPerOp <= 0 {
		t.Fatal("testdata/alloc_budget.json pins no large_sweep_bytes_per_op")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sweep := largeSweep(t)
	sweep()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 3
	for i := 0; i < runs; i++ {
		sweep()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("the large sweep allocates %.0f B/op, budget %.0f", got, budget.LargeSweepBytesPerOp)
	if got > budget.LargeSweepBytesPerOp {
		t.Errorf("the large sweep allocates %.0f B/op, budget %.0f (testdata/alloc_budget.json)",
			got, budget.LargeSweepBytesPerOp)
	}
}

// fleetStudy resolves the committed capacity study
// (examples/fleet_capacity/fleet_stream.json), its stream resized to jobs
// and its policy replaced when either is set, and returns a function that
// runs it once through Session.Fleet with a fresh report cache.
func fleetStudy(tb testing.TB, jobs int, policy string) func() *FleetReport {
	tb.Helper()
	spec, err := ParseSpecFile("examples/fleet_capacity/fleet_stream.json")
	if err != nil {
		tb.Fatal(err)
	}
	if jobs > 0 {
		spec.Fleet.Jobs = jobs
	}
	if policy != "" {
		spec.Fleet.Policy = policy
	}
	session, rs, err := spec.Resolve()
	if err != nil {
		tb.Fatal(err)
	}
	return func() *FleetReport {
		report, err := session.Fleet(*rs.Fleet)
		if err != nil {
			tb.Fatal(err)
		}
		return report
	}
}

// largeFleetJobs and largeFleetPolicy size BenchmarkFleetLargeStream: a
// queue thousands of jobs deep, where backfill scans past a blocked head.
const (
	largeFleetJobs   = 16384
	largeFleetPolicy = FleetPolicyBackfill
)

// BenchmarkFleetStream measures the committed 60-job capacity study through
// Session.Fleet, a fresh cache per op. The alloc-gate CI step pins its
// allocs/op to the budget in testdata/alloc_budget.json: resolving a job
// spec costs hundreds of allocations, so a run that resolves per job start
// instead of once per spec trips it.
func BenchmarkFleetStream(b *testing.B) {
	study := fleetStudy(b, 0, "")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		study()
	}
}

// BenchmarkFleetLargeStream measures the same study at 16,384 jobs under
// backfill. The alloc-gate CI step pins its allocs/op: a queue copied per
// event, or a spec resolved per start, returns as thousands of allocations.
func BenchmarkFleetLargeStream(b *testing.B) {
	study := fleetStudy(b, largeFleetJobs, largeFleetPolicy)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		study()
	}
}

// fleetAllocBudget checks one fleet study's allocs per run against its pin
// in testdata/alloc_budget.json, after a warm-up run. The cache misses
// simulate through pooled runners and validator tables, which the race
// detector drops at random, so the budget is checked only without it.
func fleetAllocBudget(t *testing.T, key string, runs int, study func() *FleetReport) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under the race detector")
	}
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var budgets map[string]float64
	if err := json.Unmarshal(raw, &budgets); err != nil {
		t.Fatal(err)
	}
	budget, ok := budgets[key]
	if !ok {
		t.Fatalf("testdata/alloc_budget.json pins no %s", key)
	}
	got := testing.AllocsPerRun(runs, func() { study() })
	t.Logf("%s: %.0f allocs/op, budget %.0f", key, got, budget)
	if got > budget {
		t.Errorf("%.0f allocs/op, budget %.0f (testdata/alloc_budget.json: %s)", got, budget, key)
	}
}

// TestFleetStreamAllocBudget enforces the fleet study's budget in-process,
// the contract the CI alloc-gate re-checks from BenchmarkFleetStream's
// -benchmem output.
func TestFleetStreamAllocBudget(t *testing.T) {
	fleetAllocBudget(t, "fleet_stream_allocs_per_op", 5, fleetStudy(t, 0, ""))
}

// TestFleetLargeStreamAllocBudget enforces the large fleet study's budget
// in-process, the contract the CI alloc-gate re-checks from
// BenchmarkFleetLargeStream's -benchmem output.
func TestFleetLargeStreamAllocBudget(t *testing.T) {
	fleetAllocBudget(t, "fleet_large_stream_allocs_per_op", 1, fleetStudy(t, largeFleetJobs, largeFleetPolicy))
}

// gqaDecodeReport runs the committed GQA decode study
// (examples/interactive_decode/gqa_1m.json) and returns its report.
func gqaDecodeReport(tb testing.TB) *DecodeReport {
	tb.Helper()
	spec, err := ParseSpecFile("examples/interactive_decode/gqa_1m.json")
	if err != nil {
		tb.Fatal(err)
	}
	session, rs, err := spec.Resolve()
	if err != nil {
		tb.Fatal(err)
	}
	report, err := session.Decode(*rs.Decode)
	if err != nil {
		tb.Fatal(err)
	}
	return report
}

// BenchmarkWriteDecodeReport measures encoding the gqa_1m decode report as
// indented JSON, the report writer a decode request ends in. The alloc-gate
// CI step pins its allocs/op to the budget in testdata/alloc_budget.json.
func BenchmarkWriteDecodeReport(b *testing.B) {
	report := gqaDecodeReport(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteDecodeReportJSON(io.Discard, report); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeReportWriteAllocBudget enforces the decode report encoder's
// budget in-process, the contract the CI alloc-gate re-checks from
// BenchmarkWriteDecodeReport's -benchmem output. An encoder that allocates
// its output buffer per write fails it. Under the race
// detector sync.Pool drops the pooled buffers at random, so the budget is
// checked only without it.
func TestDecodeReportWriteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under the race detector")
	}
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget struct {
		// A pointer, since the pinned budget is zero.
		DecodeReportWriteAllocsPerOp *float64 `json:"decode_report_write_allocs_per_op"`
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatal(err)
	}
	if budget.DecodeReportWriteAllocsPerOp == nil {
		t.Fatal("testdata/alloc_budget.json pins no decode_report_write_allocs_per_op")
	}
	report := gqaDecodeReport(t)
	got := testing.AllocsPerRun(5, func() {
		if err := WriteDecodeReportJSON(io.Discard, report); err != nil {
			t.Fatal(err)
		}
	})
	if want := *budget.DecodeReportWriteAllocsPerOp; got > want {
		t.Errorf("writing the gqa_1m decode report allocates %.0f allocs/op, budget %.0f (testdata/alloc_budget.json)",
			got, want)
	}
}

// BenchmarkZB1PListScheduling measures the cost-driven ZB1P constructor.
func BenchmarkZB1PListScheduling(b *testing.B) {
	s := headlineSession(b)
	costs := s.Costs()
	cfg := ScheduleConfig{Stages: 8, MicroBatches: 16, Layers: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ZB1P(cfg, costs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNumericIteration measures one numeric pipeline iteration of the
// tiny model under HelixPipe (goroutines + channels + real tensors).
func BenchmarkNumericIteration(b *testing.B) {
	cfg := TinyModel()
	m := NewNumericModel(cfg, 1)
	plan, err := core.Build(ScheduleConfig{Stages: 2, MicroBatches: 4, Layers: cfg.Layers},
		UnitCosts(0), core.Options{Fold: 2, Recompute: true})
	if err != nil {
		b.Fatal(err)
	}
	batches := make([]MicroBatch, 4)
	for i := range batches {
		batches[i] = SyntheticBatch(cfg, 1, 16, uint64(i)+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunNumeric(plan, m, batches); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatMul measures the parallel GEMM kernel on a transformer-ish
// shape (tokens x hidden x 4*hidden).
func BenchmarkMatMul(b *testing.B) {
	a := tensor.New(256, 128)
	w := tensor.New(128, 512)
	for i := range a.Data {
		a.Data[i] = float32(i%7) * 0.1
	}
	for i := range w.Data {
		w.Data[i] = float32(i%5) * 0.01
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(a, w)
	}
}

// BenchmarkCausalAttention measures the causal flash-attention-style kernel.
func BenchmarkCausalAttention(b *testing.B) {
	q := tensor.New(2, 64, 64)
	k := tensor.New(2, 64, 64)
	v := tensor.New(2, 64, 64)
	for i := range q.Data {
		q.Data[i] = float32(i%11) * 0.02
		k.Data[i] = float32(i%13) * 0.02
		v.Data[i] = float32(i%17) * 0.02
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.CausalAttentionForward(q, k, v, 4)
	}
}

// BenchmarkReferenceStep measures the single-device reference iteration.
func BenchmarkReferenceStep(b *testing.B) {
	cfg := model.TinyTest()
	m := nn.NewModel(cfg, 3)
	batches := []nn.MicroBatch{nn.SyntheticBatch(cfg, 1, 16, 9)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.ReferenceStep(m, batches)
	}
}

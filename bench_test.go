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
	"os"
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

// BenchmarkLargeSweep measures a full sweep spec through Session.Execute —
// every registered method across four sequence lengths and three pipeline
// sizes (144 cells) — and reports cells simulated per second. This is the
// wall-clock number the engine rewrite and cost-book memoization target; CI
// gates the same path through the benchmark module's sweep-flat workload,
// recorded on the parent commit and the change (benchmark/record.sh).
func BenchmarkLargeSweep(b *testing.B) {
	spec := &ExperimentSpec{Model: "3B", Cluster: "A800", Sweep: &SpecSweep{
		SeqLens: []int{8192, 16384, 32768, 65536},
		Stages:  []int{2, 4, 8},
	}}
	s, _, err := spec.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	cells := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := collectReports(s.Execute(spec))
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) == 0 {
			b.Fatal("empty sweep")
		}
		cells = len(reports)
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds()*float64(b.N), "cells/s")
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
		UnitCosts(0), HelixOptions{Fold: 2, Recompute: true})
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

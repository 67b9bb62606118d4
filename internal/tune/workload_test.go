package tune

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/sched"
)

func bimodalWorkload(t *testing.T) WorkloadSpec {
	t.Helper()
	batch, err := model.SyntheticBatchSpec(model.DistBimodal, 24, 8, 64, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	return WorkloadSpec{Name: "bimodal", Batch: batch}
}

func TestWorkloadSpecValidate(t *testing.T) {
	wl := bimodalWorkload(t)
	good := Spec{Workloads: []WorkloadSpec{wl}, Stages: []int{2}}
	if err := good.Validate(); err != nil {
		t.Errorf("workload-only spec rejected: %v", err)
	}
	dup := Spec{Workloads: []WorkloadSpec{wl, wl}, Stages: []int{2}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate workload names accepted")
	}
	anon := Spec{Workloads: []WorkloadSpec{{Batch: wl.Batch}}, Stages: []int{2}}
	if err := anon.Validate(); err == nil {
		t.Error("unnamed workload accepted")
	}
	empty := Spec{Stages: []int{2}}
	if err := empty.Validate(); err == nil {
		t.Error("spec with neither seqlens nor workloads accepted")
	}
}

func TestWorkloadGridAndRun(t *testing.T) {
	wl := bimodalWorkload(t)
	spec := Spec{
		Methods:   []sched.Method{sched.Method1F1B, sched.MethodGPipe},
		SeqLens:   []int{32},
		Workloads: []WorkloadSpec{wl},
		Stages:    []int{2},
	}
	res, err := Run(model.TinyTest(), costmodel.H20Cluster(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// 2 methods x (1 seqlen + 1 workload) x 1 stages.
	if res.GridSize != 4 {
		t.Errorf("grid size = %d, want 4", res.GridSize)
	}
	if res.Evaluated == 0 {
		t.Fatalf("nothing evaluated: pruned %v errors %v", res.Pruned, res.Errors)
	}
	// One best per scenario: the fixed seqlen first, the workload second.
	if len(res.Best) != 2 {
		t.Fatalf("best = %+v, want 2 scenarios", res.Best)
	}
	if res.Best[0].Workload != "" || res.Best[0].SeqLen != 32 {
		t.Errorf("first best should be the fixed-length scenario: %+v", res.Best[0])
	}
	if res.Best[1].Workload != "bimodal" {
		t.Errorf("second best should be the workload scenario: %+v", res.Best[1])
	}
	if res.Best[1].MicroBatches != wl.Batch.MicroBatches() {
		t.Errorf("workload best m = %d, want %d", res.Best[1].MicroBatches, wl.Batch.MicroBatches())
	}
	// The workload's cost book is shared across its methods: one evaluation
	// per shape key plus one per workload.
	if res.CostModelEvals != 2 {
		t.Errorf("cost model evals = %d, want 2 (one per scenario)", res.CostModelEvals)
	}
	// Rendering includes the workload name.
	if table := res.BestTable(); !strings.Contains(table, "bimodal") {
		t.Errorf("best table misses the workload name:\n%s", table)
	}
	for _, p := range res.Points {
		if p.Workload == "bimodal" {
			if row := p.CSVRow(); row[1] != "bimodal" {
				t.Errorf("CSV workload column = %q", row[1])
			}
		}
	}
}

// TestOrdersAxis checks the micro-batch ordering axis: orders cross with
// workload candidates (and only those), rank jointly with methods, and the
// order-dependent cost books are memoized per (workload, order).
func TestOrdersAxis(t *testing.T) {
	wl := bimodalWorkload(t)
	spec := Spec{
		Methods:   []sched.Method{sched.Method1F1B, sched.MethodGPipe},
		SeqLens:   []int{32},
		Workloads: []WorkloadSpec{wl},
		Stages:    []int{2},
		Orders:    []string{"packed", "longest", "shortest"},
	}
	res, err := Run(model.TinyTest(), costmodel.H20Cluster(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// 2 methods x 1 seqlen + 2 methods x 1 workload x 3 orders.
	if res.GridSize != 8 {
		t.Errorf("grid size = %d, want 8", res.GridSize)
	}
	orders := map[string]bool{}
	for _, p := range res.Points {
		if p.Workload == "" {
			if p.Order != "" {
				t.Errorf("fixed-length point %s carries order %q", p.Candidate, p.Order)
			}
			continue
		}
		orders[p.Order] = true
		if row := p.CSVRow(); row[2] != p.Order {
			t.Errorf("CSV order column = %q, want %q", row[2], p.Order)
		}
	}
	for _, want := range spec.Orders {
		if !orders[want] {
			t.Errorf("no evaluated point for order %q (pruned %v, errors %v)",
				want, res.Pruned, res.Errors)
		}
	}
	// One cost book per shape key: the fixed shape plus one per order.
	if res.CostModelEvals != 4 {
		t.Errorf("cost model evals = %d, want 4", res.CostModelEvals)
	}
	// The workload's single best pick spans every order — order, method and
	// placement rank jointly instead of per-order winners.
	var workloadBest int
	for _, b := range res.Best {
		if b.Workload != "" {
			workloadBest++
		}
	}
	if workloadBest != 1 {
		t.Errorf("workload best picks = %d, want 1 across all orders", workloadBest)
	}

	bad := Spec{SeqLens: []int{32}, Stages: []int{2}, Orders: []string{"longest"}}
	if err := bad.Validate(); err == nil {
		t.Error("orders without workloads accepted")
	}
	unknown := Spec{Workloads: []WorkloadSpec{wl}, Stages: []int{2}, Orders: []string{"random"}}
	if err := unknown.Validate(); err == nil {
		t.Error("unknown order accepted")
	}
}

// TestSearchStreams checks the streaming Search surface directly: points
// arrive through the iterator in grid order, the accounting matches the
// collector, and prune outcomes surface as PruneErrors.
func TestSearchStreams(t *testing.T) {
	spec := Spec{
		Methods: []sched.Method{sched.Method1F1B, sched.MethodAdaPipe},
		SeqLens: []int{32, 64},
		Stages:  []int{2},
	}
	search, err := NewSearch(model.TinyTest(), costmodel.H20Cluster(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Point
	for p, err := range search.Points() {
		if err != nil {
			var pe *PruneError
			if !errors.As(err, &pe) {
				t.Fatalf("stream error is not a PruneError: %v", err)
			}
			continue
		}
		streamed = append(streamed, p)
	}
	res := search.Result()
	if len(streamed) != res.Evaluated {
		t.Errorf("streamed %d points, result says %d", len(streamed), res.Evaluated)
	}
	collected, err := Run(model.TinyTest(), costmodel.H20Cluster(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if collected.Evaluated != res.Evaluated || collected.GridSize != res.GridSize {
		t.Errorf("collector disagrees with stream: %+v vs %+v", collected, res)
	}
}

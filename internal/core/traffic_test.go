package core

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/sched"
)

// trafficBooks returns the five cost-book kinds the traffic differential
// test prices one (stages, micro batches) cell on: unit, unit
// variable-length, real flat 7B, real placed round robin on a mixed
// A800/H20 topology under a straggler and a degraded NVLink class (so
// stage books differ in GPU, link and compute factor), and a real
// variable-length batch.
func trafficBooks(t *testing.T, p, m int) []diffBook {
	t.Helper()
	scales := make([]float64, m)
	shapes := make([]model.Shape, m)
	for i := range scales {
		scales[i] = float64(1 + (i*5)%3)
		shapes[i] = model.Shape{B: 1 + i%2, S: 2048 * (1 + (i*7)%5)}
	}
	batch := model.BatchSpec{Shapes: shapes}
	w := costmodel.NewWorkload(model.Model7B(), costmodel.H20Cluster(), model.Shape{B: 1, S: 32768})
	c := cluster.DGXA800x2H20x2()
	place, err := cluster.RoundRobin(c, p)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := cluster.ParsePerturb("slow=8x2.5,link=nvlinkx0.5")
	if err != nil {
		t.Fatal(err)
	}
	view, err := cluster.Resolve(c, place, pt)
	if err != nil {
		t.Fatal(err)
	}
	return []diffBook{
		{"unit", sched.UnitCosts(0), model.BatchSpec{}},
		{"unit-varlen", sched.UnitBatchCosts(0, scales), model.BatchSpec{}},
		{"flat-7B", sched.NewCosts(w, model.BatchSpec{}, nil), model.BatchSpec{}},
		{"placed-7B", sched.NewCosts(w, model.BatchSpec{}, view), model.BatchSpec{}},
		{"varlen-7B", sched.NewCosts(w, batch, nil), batch},
	}
}

// Outcomes of one traffic differential case.
const (
	trafficMatched     = iota // the build succeeded and traffic equals its matrix
	trafficFailedAlike        // both failed with one text
	trafficBudgetOnly         // only the build failed, on AdaPipe's budget
	trafficOutcomes
)

// TestTrafficMatchesPlan proves every registration's closed-form traffic
// against the plan it describes: wherever the build succeeds,
// sched.Traffic equals Build(...).TrafficMatrix(), and wherever both fail
// they fail with the same text. Traffic may accept what only a build
// detects (AdaPipe's memory budget); nothing else may differ.
func TestTrafficMatchesPlan(t *testing.T) {
	params := []struct {
		name string
		p    sched.BuildParams
	}{
		{"zero", sched.BuildParams{}},
		{"recompute=off", sched.BuildParams{HelixRecompute: new(bool)}},
		{"budget=1KiB", sched.BuildParams{MemoryBudget: 1 << 10}},
	}
	var outcomes [trafficOutcomes]atomic.Int64
	// The group returns once its parallel per-stage-count subtests finish.
	t.Run("grid", func(t *testing.T) {
		for _, p := range []int{1, 2, 3, 4, 8} {
			t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
				t.Parallel()
				for _, m := range []int{1, 2, 4, 8, 16, 32} {
					for _, book := range trafficBooks(t, p, m) {
						for _, layers := range []int{4, 8, 12, 16, 24, 32} {
							cfg := sched.Config{Stages: p, MicroBatches: m, Layers: layers, Batch: book.batch}
							for _, reg := range sched.Registrations() {
								for _, bp := range params {
									cell := fmt.Sprintf("%s m=%d L=%d %s %s", reg.Name, m, layers, bp.name, book.name)
									outcomes[compareTraffic(t, cell, reg.Name, cfg, book.costs, bp.p)].Add(1)
								}
							}
						}
					}
				}
			})
		}
	})
	matched, alike, budget := outcomes[trafficMatched].Load(), outcomes[trafficFailedAlike].Load(),
		outcomes[trafficBudgetOnly].Load()
	t.Logf("%d built and matched, %d failed alike, %d failed only at build (AdaPipe budget)",
		matched, alike, budget)
	if matched == 0 || alike == 0 || budget == 0 {
		t.Error("the grid must exercise matching, shared-failure and budget-failure cases")
	}
}

// compareTraffic builds one case and reads its traffic, reports any
// disagreement, and returns the outcome.
func compareTraffic(t *testing.T, cell string, method sched.Method, cfg sched.Config,
	costs sched.Costs, bp sched.BuildParams) int {
	plan, berr := sched.Build(method, cfg, costs, bp)
	traffic, terr := sched.Traffic(method, cfg, costs, bp)
	switch {
	case berr == nil && terr != nil:
		t.Errorf("%s: traffic rejects a buildable config: %v", cell, terr)
	case berr == nil:
		if want := plan.TrafficMatrix(); !reflect.DeepEqual(traffic, want) {
			t.Errorf("%s: traffic\n%v\nwant the plan's\n%v", cell, traffic, want)
		}
	case terr != nil:
		if terr.Error() != berr.Error() {
			t.Errorf("%s: traffic error %q, build error %q", cell, terr, berr)
		}
		return trafficFailedAlike
	default:
		if method != sched.MethodAdaPipe || bp.MemoryBudget == 0 {
			t.Errorf("%s: only the build failed: %v", cell, berr)
		}
		return trafficBudgetOnly
	}
	return trafficMatched
}

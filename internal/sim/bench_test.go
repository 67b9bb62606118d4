package sim

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/sched"
)

// benchEngineInputs builds the steady-state benchmark workload: the helix
// schedule of the paper's 3B/A800 configuration at 64k, with the cluster's
// SMPenalty so the pre-pass oracle and the overlap search are both on the
// measured path.
func benchEngineInputs(tb testing.TB) (*sched.Plan, Options) {
	tb.Helper()
	mc := model.Model3B()
	cl := costmodel.A800Cluster()
	const p, m = 8, 16
	w := costmodel.NewWorkload(mc, cl, model.Shape{B: 1, S: 65536})
	costs := sched.NewCosts(w, model.BatchSpec{}, nil)
	cfg := sched.Config{Stages: p, MicroBatches: m, Layers: mc.Layers}
	plan, err := core.Build(cfg, costs, core.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return plan, Options{SMPenalty: cl.CommSMPenalty}
}

// benchPlacedInputs places the same schedule on DGX-A800x4 with the greedy
// strategy and rebuilds it on the placement-resolved books, so the topology
// path (per-link pricing, link-class stats) is on the measured path too.
func benchPlacedInputs(tb testing.TB) (*sched.Plan, Options) {
	tb.Helper()
	flat, opt := benchEngineInputs(tb)
	c := cluster.DGXA800x4()
	place, err := cluster.Generate("greedy", c, flat.Stages, flat.TrafficMatrix(), cluster.SearchOptions{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	topo, err := cluster.Resolve(c, place, cluster.Perturb{SlowDevice: -1})
	if err != nil {
		tb.Fatal(err)
	}
	mc := model.Model3B()
	w := costmodel.NewWorkload(mc, costmodel.A800Cluster(), model.Shape{B: 1, S: 65536})
	cfg := sched.Config{Stages: flat.Stages, MicroBatches: flat.MicroBatches, Layers: mc.Layers}
	plan, err := core.Build(cfg, sched.NewCosts(w, model.BatchSpec{}, topo), core.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	plan.Placement = place.Devices
	opt.Topology = topo
	return plan, opt
}

// benchSteadyState re-simulates one plan on a reused Runner.
func benchSteadyState(b *testing.B, plan *sched.Plan, opt Options) {
	r, err := NewRunner(plan, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSteadyState measures re-simulating one plan on a reused
// Runner — the fleet-pricing / repeated-cell hot path. The alloc-gate CI
// step pins its allocs/op to the budget in testdata/alloc_budget.json
// (zero).
func BenchmarkEngineSteadyState(b *testing.B) {
	plan, opt := benchEngineInputs(b)
	benchSteadyState(b, plan, opt)
}

// BenchmarkEngineSteadyStatePlaced is BenchmarkEngineSteadyState on
// DGX-A800x4: the alloc-gate CI step pins the placed path at the budget in
// testdata/alloc_budget.json (zero) as well.
func BenchmarkEngineSteadyStatePlaced(b *testing.B) {
	plan, opt := benchPlacedInputs(b)
	benchSteadyState(b, plan, opt)
}

// BenchmarkEngineOneShot measures the cold path — a pooled Runner per Run
// call, as one sweep cell pays it. The alloc-gate CI step pins its allocs/op
// to the budget in testdata/alloc_budget.json: once the pool is warm, a cold
// start costs only the deep-copied Result, not a rebuilt engine. The pool and
// the plan's validation memo are warmed off the clock, so allocs/op reads the
// same steady value at any -benchtime.
func BenchmarkEngineOneShot(b *testing.B) {
	plan, opt := benchEngineInputs(b)
	if _, err := Run(plan, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(plan, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunnerReuseMatchesOneShot proves reset correctness: a reused Runner
// must reproduce the one-shot result exactly, run after run.
func TestRunnerReuseMatchesOneShot(t *testing.T) {
	plan, opt := benchEngineInputs(t)
	want, err := Run(plan, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(plan, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("run %d diverged from one-shot result:\n got %s\nwant %s", i, gotJSON, wantJSON)
		}
	}
}

// allocBudget is the pinned allocation budget of the steady-state engine
// benchmark (testdata/alloc_budget.json at the repo root); CI's alloc-gate
// fails when the measured allocs/op exceed it.
type allocBudget struct {
	EngineSteadyStateAllocsPerOp       float64 `json:"engine_steady_state_allocs_per_op"`
	EngineSteadyStatePlacedAllocsPerOp float64 `json:"engine_steady_state_placed_allocs_per_op"`
	EngineColdRunAllocsPerOp           float64 `json:"engine_cold_run_allocs_per_op"`
}

// readAllocBudget loads the pinned budget file shared with the CI gate.
func readAllocBudget(t *testing.T) allocBudget {
	t.Helper()
	raw, err := os.ReadFile("../../testdata/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget allocBudget
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatal(err)
	}
	return budget
}

// TestEngineSteadyStateAllocBudget enforces the budgets in-process: the
// steady-state run, flat and placed, must not allocate more per iteration
// than the pinned file allows (zero). The same contract backs the CI
// alloc-gate step, which re-checks it from the -benchmem output.
func TestEngineSteadyStateAllocBudget(t *testing.T) {
	budget := readAllocBudget(t)
	for _, c := range []struct {
		name   string
		inputs func(testing.TB) (*sched.Plan, Options)
		budget float64
	}{
		{"flat", benchEngineInputs, budget.EngineSteadyStateAllocsPerOp},
		{"placed", benchPlacedInputs, budget.EngineSteadyStatePlacedAllocsPerOp},
	} {
		plan, opt := c.inputs(t)
		r, err := NewRunner(plan, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Warm up: the first run grows the class-stats entries; the budget
		// pins the steady state.
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.budget {
			t.Errorf("%s steady-state engine run allocates %.1f allocs/op, budget %.1f (testdata/alloc_budget.json)",
				c.name, got, c.budget)
		}
	}
}

// TestEngineColdRunAllocBudget pins the pooled cold-start path: once the
// Runner pool is warm, sim.Run must cost no more allocations per call than
// the budget file allows (the deep-copied Result plus pool bookkeeping — no
// rebuilt engine). The CI alloc-gate re-checks the same contract from
// BenchmarkEngineOneShot's -benchmem output.
func TestEngineColdRunAllocBudget(t *testing.T) {
	budget := readAllocBudget(t)
	plan, opt := benchEngineInputs(t)
	// Warm up the plan's validation memo, then stock the pool with Runners
	// already bound once to the plan. Under the race detector sync.Pool drops
	// a quarter of all Puts at random; the stock keeps every measured Run on
	// a warm Runner, as the budget assumes.
	if _, err := Run(plan, opt); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		r := newRunner(plan, opt)
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		putRunner(r)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := Run(plan, opt); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget.EngineColdRunAllocsPerOp {
		t.Errorf("cold-start sim.Run allocates %.1f allocs/op, budget %.1f (testdata/alloc_budget.json)",
			got, budget.EngineColdRunAllocsPerOp)
	}
}

// TestColdRunResultDetached proves the pooled Run's result is a deep copy: a
// later Run on the same pool must not mutate an earlier result.
func TestColdRunResultDetached(t *testing.T) {
	plan, opt := benchEngineInputs(t)
	first, err := Run(plan, opt)
	if err != nil {
		t.Fatal(err)
	}
	firstJSON, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := Run(plan, opt); err != nil {
			t.Fatal(err)
		}
	}
	again, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(firstJSON) {
		t.Fatalf("earlier Run result mutated by later pooled runs:\n was %s\n now %s", firstJSON, again)
	}
}

// TestPooledRunnerReleasesPlan pins that an idle pooled Runner keeps only its
// buffers: returning it to the pool drops the plan, the topology, the
// message match and the pre-pass oracle of its last run, so the plan of a
// finished Run is garbage at the next collection.
func TestPooledRunnerReleasesPlan(t *testing.T) {
	plan, opt := benchEngineInputs(t)
	c := cluster.DGXA800x4()
	devices := make([]int, plan.Stages)
	for s := range devices {
		devices[s] = s
	}
	topo, err := cluster.Resolve(c, cluster.Placement{Devices: devices}, cluster.Perturb{SlowDevice: -1})
	if err != nil {
		t.Fatal(err)
	}
	opt.Topology = topo
	r := newRunner(plan, opt)
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	putRunner(r)
	for name, e := range map[string]*engine{"engine": r.eng, "pre-pass": r.pre} {
		if e.plan != nil || e.opt.Topology != nil || e.recvSlots != nil || e.oracle != nil {
			t.Errorf("pooled Runner's %s still references its last plan, topology, message match or oracle", name)
		}
	}

	collected := make(chan struct{})
	func() {
		plan, opt := benchEngineInputs(t)
		runtime.SetFinalizer(plan, func(*sched.Plan) { close(collected) })
		if _, err := Run(plan, opt); err != nil {
			t.Fatal(err)
		}
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(10 * time.Second):
		t.Fatal("the plan of a finished Run is still reachable: a pooled Runner pins it")
	}
}

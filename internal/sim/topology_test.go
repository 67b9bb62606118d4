package sim

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/sched"
)

// testClusters builds the paired test topologies of the acceptance
// criterion: a single NVLink node, and the same device count split across
// two nodes joined by a much slower IB fabric.
func oneNodeNVLink(devices int) cluster.Cluster {
	return cluster.Cluster{
		Name: "1xNVLink",
		Nodes: []cluster.Node{{
			Devices: devices,
			Intra:   cluster.Link{Class: cluster.ClassNVLink, GBps: 200, LatencySec: 6e-6},
		}},
	}
}

func twoNodeIB(devices int) cluster.Cluster {
	intra := cluster.Link{Class: cluster.ClassNVLink, GBps: 200, LatencySec: 6e-6}
	return cluster.Cluster{
		Name: "2xIB",
		Nodes: []cluster.Node{
			{Devices: devices / 2, Intra: intra},
			{Devices: devices - devices/2, Intra: intra},
		},
		Inter: cluster.Link{Class: cluster.ClassIB, GBps: 46, LatencySec: 14e-6},
	}
}

// placedUnitCosts gives the didactic unit book one placed book per stage,
// each the unit book itself: a topology run needs placement-resolved books,
// and unit plans price compute identically on every device.
func placedUnitCosts(commTime float64, stages int) sched.Costs {
	c := sched.UnitCosts(commTime)
	c.PerStage = make([]sched.StageBook, stages)
	for s := range c.PerStage {
		c.PerStage[s] = sched.StageBook{MBCosts: c.MBCosts}
	}
	return c
}

// runOn simulates the plan on one cluster under the given placement
// strategy.
func runOn(t *testing.T, plan *sched.Plan, c cluster.Cluster, strategy string, trace bool) *Result {
	t.Helper()
	place, err := cluster.Generate(strategy, c, plan.Stages, plan.TrafficMatrix(),
		cluster.SearchOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cluster.Resolve(c, place, cluster.Perturb{SlowDevice: -1})
	if err != nil {
		t.Fatal(err)
	}
	planCopy := *plan
	planCopy.Placement = place.Devices
	res, err := Run(&planCopy, Options{Trace: trace, Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// computeOrder extracts each stage's compute-op sequence from the traced
// spans, in execution order.
func computeOrder(res *Result, stages int) [][]sched.Op {
	out := make([][]sched.Op, stages)
	for _, sp := range res.Spans {
		if sp.Op.Kind.IsCompute() {
			out[sp.Stage] = append(out[sp.Stage], sp.Op)
		}
	}
	return out
}

// TestTopologyCommTiming is the acceptance table: the same plan on a 1-node
// NVLink cluster versus a 2-node IB cluster must execute identical compute
// ops in identical per-stage order, while the iteration strictly slows down
// because inter-node transfers stretch by the link ratio.
func TestTopologyCommTiming(t *testing.T) {
	cases := []struct {
		name    string
		build   func(sched.Config, sched.Costs) (*sched.Plan, error)
		stages  int
		microBs int
	}{
		{"1F1B-p4", sched.OneFOneB, 4, 8},
		{"GPipe-p4", sched.GPipe, 4, 8},
		{"ZB1P-p8", sched.ZB1P, 8, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sched.Config{Stages: tc.stages, MicroBatches: tc.microBs, Layers: 2 * tc.stages}
			// Large messages so comm time dominates latency and the
			// bandwidth ratio is visible end to end.
			costs := placedUnitCosts(0.01, tc.stages)
			plan, err := tc.build(cfg, costs)
			if err != nil {
				t.Fatal(err)
			}
			fast := runOn(t, plan, oneNodeNVLink(tc.stages), cluster.StrategyContiguous, true)
			slow := runOn(t, plan, twoNodeIB(tc.stages), cluster.StrategyContiguous, true)

			// Identical compute ops in identical per-stage order.
			fo, so := computeOrder(fast, tc.stages), computeOrder(slow, tc.stages)
			for s := 0; s < tc.stages; s++ {
				if len(fo[s]) != len(so[s]) {
					t.Fatalf("stage %d: %d compute ops on NVLink, %d on IB", s, len(fo[s]), len(so[s]))
				}
				for i := range fo[s] {
					if fo[s][i] != so[s][i] {
						t.Fatalf("stage %d op %d differs: %v vs %v", s, i, fo[s][i], so[s][i])
					}
				}
			}

			// The 2-node IB iteration strictly exceeds the 1-node NVLink one.
			if slow.IterationSeconds <= fast.IterationSeconds {
				t.Errorf("2-node IB iteration %g not above 1-node NVLink %g",
					slow.IterationSeconds, fast.IterationSeconds)
			}

			// Every transfer crossing the node boundary stretches by the
			// bandwidth ratio: compare per-class wire time per byte.
			for _, lt := range slow.LinkClasses {
				if lt.Class != string(cluster.ClassIB) || lt.Bytes == 0 {
					continue
				}
				perByte := lt.Seconds / float64(lt.Bytes)
				want := 1 / 46e9
				if math.Abs(perByte-want)/want > 1e-9 {
					t.Errorf("IB wire time %g s/B, want %g", perByte, want)
				}
			}
			var nvSlow, nvFast *LinkClassStats
			for i := range slow.LinkClasses {
				if slow.LinkClasses[i].Class == string(cluster.ClassNVLink) {
					nvSlow = &slow.LinkClasses[i]
				}
			}
			for i := range fast.LinkClasses {
				if fast.LinkClasses[i].Class == string(cluster.ClassNVLink) {
					nvFast = &fast.LinkClasses[i]
				}
			}
			if nvFast == nil || nvSlow == nil {
				t.Fatal("missing nvlink traffic stats")
			}
			// All traffic crosses NVLink on one node; on two nodes the IB
			// share moves off it but the per-byte rate stays NVLink's.
			if nvFast.Bytes <= nvSlow.Bytes {
				t.Errorf("nvlink bytes %d on 1 node not above %d on 2 nodes", nvFast.Bytes, nvSlow.Bytes)
			}
		})
	}
}

// TestGreedyPlacementBeatsRoundRobinSimulated is the acceptance criterion's
// multi-node scenario: simulated iteration time under the greedy placement
// must beat round robin, which forces every pipeline boundary across the IB
// fabric.
func TestGreedyPlacementBeatsRoundRobinSimulated(t *testing.T) {
	cfg := sched.Config{Stages: 8, MicroBatches: 16, Layers: 16}
	costs := placedUnitCosts(0.05, 8) // comm-heavy so placement matters
	plan, err := sched.OneFOneB(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	c := twoNodeIB(8)
	greedy := runOn(t, plan, c, cluster.StrategyGreedy, false)
	rr := runOn(t, plan, c, cluster.StrategyRoundRobin, false)
	if greedy.IterationSeconds >= rr.IterationSeconds {
		t.Errorf("greedy iteration %g not below roundrobin %g",
			greedy.IterationSeconds, rr.IterationSeconds)
	}
}

// TestTopologyStageMismatchRejected pins the eager validation: a topology
// resolved for a different pipeline size must not silently mis-time a plan.
func TestTopologyStageMismatchRejected(t *testing.T) {
	cfg := sched.Config{Stages: 4, MicroBatches: 8, Layers: 8}
	plan, err := sched.OneFOneB(cfg, sched.UnitCosts(0.01))
	if err != nil {
		t.Fatal(err)
	}
	c := oneNodeNVLink(8)
	place, err := cluster.Contiguous(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cluster.Resolve(c, place, cluster.Perturb{SlowDevice: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(plan, Options{Topology: topo}); err == nil {
		t.Error("8-stage topology accepted for a 4-stage plan")
	}
}

// TestTopologyRejectsFlatBooks pins that placed books are the one place a
// topology prices compute: a topology run on a plan built on flat books
// fails in both Run and NewRunner instead of pricing every stage as the flat
// cluster's device.
func TestTopologyRejectsFlatBooks(t *testing.T) {
	cfg := sched.Config{Stages: 4, MicroBatches: 8, Layers: 8}
	plan, err := sched.OneFOneB(cfg, sched.UnitCosts(0.01))
	if err != nil {
		t.Fatal(err)
	}
	c := twoNodeIB(4)
	place, err := cluster.Contiguous(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cluster.Resolve(c, place, cluster.Perturb{SlowDevice: -1})
	if err != nil {
		t.Fatal(err)
	}
	plan.Placement = place.Devices
	opt := Options{Topology: topo}
	if _, err := Run(plan, opt); err == nil {
		t.Error("Run accepted a topology plan on flat books")
	}
	if _, err := NewRunner(plan, opt); err == nil {
		t.Error("NewRunner accepted a topology plan on flat books")
	}
	// The same plan without a topology runs.
	if _, err := Run(plan, Options{}); err != nil {
		t.Errorf("flat run of the flat plan: %v", err)
	}
}

// TestPerturbationsSlowTheIteration pins the fault layer: a straggler
// device, a degraded fabric, and jitter each strictly slow the same
// schedule. Each perturbation prices a real workload on books placed under
// it, as a Session does.
func TestPerturbationsSlowTheIteration(t *testing.T) {
	mc := model.Model3B()
	w := costmodel.NewWorkload(mc, costmodel.A800Cluster(), model.Shape{B: 1, S: 16384})
	cfg := sched.Config{Stages: 4, MicroBatches: 8, Layers: mc.Layers}
	c := twoNodeIB(4)
	place, err := cluster.Contiguous(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	run := func(pt cluster.Perturb) float64 {
		topo, err := cluster.Resolve(c, place, pt)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sched.OneFOneB(cfg, sched.NewCosts(w, model.BatchSpec{}, topo))
		if err != nil {
			t.Fatal(err)
		}
		plan.Placement = place.Devices
		res, err := Run(plan, Options{Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		return res.IterationSeconds
	}
	base := run(cluster.Perturb{SlowDevice: -1})
	for name, pt := range map[string]cluster.Perturb{
		"straggler":   {SlowDevice: 1, SlowFactor: 2},
		"degraded-ib": {SlowDevice: -1, DegradeClass: cluster.ClassIB, DegradeFactor: 0.25},
		"jitter":      {SlowDevice: -1, Jitter: 0.2, Seed: 3},
	} {
		if got := run(pt); got <= base {
			t.Errorf("%s iteration %g not above unperturbed %g", name, got, base)
		}
	}
}

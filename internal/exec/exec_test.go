package exec

import (
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// tinySetup builds the tiny model, batches, and the cost book shared by the
// parity tests: p=2 stages, m=4 micro batches, L=4 layers.
func tinySetup(t *testing.T) (*nn.Model, []nn.MicroBatch, sched.Config, sched.Costs) {
	t.Helper()
	cfg := model.TinyTest()
	m := nn.NewModel(cfg, 2024)
	const p, mbs, b, s = 2, 4, 1, 8
	batches := make([]nn.MicroBatch, mbs)
	for i := range batches {
		batches[i] = nn.SyntheticBatch(cfg, b, s, uint64(i)+1)
	}
	return m, batches, sched.Config{Stages: p, MicroBatches: mbs, Layers: cfg.Layers}, sched.UnitCosts(0)
}

// assertGradsEqual demands bit-identical gradients and loss between an
// executed plan and the reference.
func assertGradsEqual(t *testing.T, name string, refLoss float64, ref *nn.Grads, res *Result) {
	t.Helper()
	if res.Loss != refLoss {
		t.Errorf("%s: loss %.9f != reference %.9f", name, res.Loss, refLoss)
	}
	refNamed := ref.Named()
	for pname, g := range res.Grads.Named() {
		if d := tensor.MaxAbsDiff(g, refNamed[pname]); d != 0 {
			t.Errorf("%s: gradient %s differs from reference by %g", name, pname, d)
		}
	}
}

// TestGradientParityAcrossSchedules is the centerpiece semantics experiment
// (paper section 4.1): every pipeline schedule — 1F1B, GPipe, ZB1P, AdaPipe
// with recomputation, interleaved, HelixPipe naive and two-fold FILO, with
// and without recomputation-without-attention — must produce gradients
// bit-identical to the single-device reference.
func TestGradientParityAcrossSchedules(t *testing.T) {
	m, batches, cfg, costs := tinySetup(t)
	refLoss, refGrads := nn.ReferenceStep(m, batches)

	builders := map[string]func() (*sched.Plan, error){
		"1F1B":  func() (*sched.Plan, error) { return sched.OneFOneB(cfg, costs) },
		"GPipe": func() (*sched.Plan, error) { return sched.GPipe(cfg, costs) },
		"ZB1P":  func() (*sched.Plan, error) { return sched.ZB1P(cfg, costs) },
		"ZB2P":  func() (*sched.Plan, error) { return sched.ZB2P(cfg, costs) },
		"AdaPipe-recompute": func() (*sched.Plan, error) {
			full := costs.SegStash[0] + costs.SegStash[1] + costs.SegStash[2]
			return sched.AdaPipe(cfg, costs, int64(cfg.Layers/cfg.Stages)*full) // forces recompute on stage 0
		},
		"Interleaved": func() (*sched.Plan, error) { return sched.Interleaved(cfg, costs) },
		"Helix-naive": func() (*sched.Plan, error) {
			return core.Build(cfg, costs, core.Options{Fold: 1, Recompute: true})
		},
		"Helix-twofold": func() (*sched.Plan, error) {
			return core.Build(cfg, costs, core.Options{Fold: 2, Recompute: true})
		},
		"Helix-norecompute": func() (*sched.Plan, error) {
			return core.Build(cfg, costs, core.Options{Fold: 2, Recompute: false})
		},
	}
	for name, build := range builders {
		plan, err := build()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		res, err := Run(plan, m, batches)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		assertGradsEqual(t, name, refLoss, refGrads, res)
	}
}

// TestParityLargerPipeline repeats the parity check at p=4 with 8 micro
// batches and 8 layers for the main contenders.
func TestParityLargerPipeline(t *testing.T) {
	cfgM := model.TinyTest()
	cfgM.Layers = 8
	m := nn.NewModel(cfgM, 77)
	const p, mbs = 4, 8
	batches := make([]nn.MicroBatch, mbs)
	for i := range batches {
		batches[i] = nn.SyntheticBatch(cfgM, 1, 6, uint64(i)+10)
	}
	cfg := sched.Config{Stages: p, MicroBatches: mbs, Layers: cfgM.Layers}
	costs := sched.UnitCosts(0)
	refLoss, refGrads := nn.ReferenceStep(m, batches)

	plans := map[string]*sched.Plan{}
	var err error
	if plans["1F1B"], err = sched.OneFOneB(cfg, costs); err != nil {
		t.Fatal(err)
	}
	if plans["Helix"], err = core.Build(cfg, costs, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if plans["ZB1P"], err = sched.ZB1P(cfg, costs); err != nil {
		t.Fatal(err)
	}
	for name, plan := range plans {
		res, err := Run(plan, m, batches)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertGradsEqual(t, name, refLoss, refGrads, res)
	}
}

// TestTrainingTrajectoryParity trains the same initial model for several
// Adam steps under the HelixPipe executor and under the single-device
// reference; the loss trajectories must match exactly, demonstrating the
// paper's "same computation semantics and convergence" claim end to end.
func TestTrainingTrajectoryParity(t *testing.T) {
	cfg := model.TinyTest()
	const p, mbs, steps = 2, 4, 6
	scfg := sched.Config{Stages: p, MicroBatches: mbs, Layers: cfg.Layers}
	costs := sched.UnitCosts(0)
	plan, err := core.Build(scfg, costs, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	mHelix := nn.NewModel(cfg, 5)
	mRef := nn.NewModel(cfg, 5)
	optHelix := nn.NewAdam(1e-3)
	optRef := nn.NewAdam(1e-3)
	for step := 0; step < steps; step++ {
		batches := make([]nn.MicroBatch, mbs)
		for i := range batches {
			batches[i] = nn.SyntheticBatch(cfg, 1, 8, uint64(step*mbs+i)+1)
		}
		res, err := Run(plan, mHelix, batches)
		if err != nil {
			t.Fatal(err)
		}
		refLoss, refGrads := nn.ReferenceStep(mRef, batches)
		if res.Loss != refLoss {
			t.Fatalf("step %d: helix loss %.9f != reference %.9f", step, res.Loss, refLoss)
		}
		optHelix.Step(mHelix, res.Grads)
		optRef.Step(mRef, refGrads)
	}
	// Final parameters must be identical too.
	refParams := mRef.NamedParams()
	for name, par := range mHelix.NamedParams() {
		if d := tensor.MaxAbsDiff(par, refParams[name]); d != 0 {
			t.Errorf("parameter %s diverged by %g after %d steps", name, d, steps)
		}
	}
}

// TestRunErrors exercises the argument validation.
func TestRunErrors(t *testing.T) {
	m, batches, cfg, costs := tinySetup(t)
	plan, err := sched.OneFOneB(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(plan, m, batches[:1]); err == nil {
		t.Error("mismatched batch count must error")
	}
	otherCfg := model.TinyTest()
	otherCfg.Layers = 8
	other := nn.NewModel(otherCfg, 1)
	if _, err := Run(plan, other, batches); err == nil {
		t.Error("mismatched layer count must error")
	}
	bad := &sched.Plan{Method: "broken", Stages: 1, MicroBatches: 1, Layers: 4, Ops: make([][]sched.Op, 2)}
	if _, err := Run(bad, m, batches); err == nil {
		t.Error("invalid plan must error")
	}
}

package exec

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/sched"
)

// varlenSetup builds the tiny model and a mixed-length iteration: p=2 stages,
// m=4 micro batches whose sequence lengths differ per micro batch.
func varlenSetup(t *testing.T) (*nn.Model, []nn.MicroBatch, sched.Config, sched.Costs) {
	t.Helper()
	cfg := model.TinyTest()
	m := nn.NewModel(cfg, 31)
	shapes := []model.Shape{{B: 1, S: 4}, {B: 2, S: 12}, {B: 1, S: 8}, {B: 1, S: 16}}
	batch := model.BatchSpec{Shapes: shapes}
	batches := make([]nn.MicroBatch, len(shapes))
	scales := make([]float64, len(shapes))
	for i, sh := range shapes {
		batches[i] = nn.SyntheticBatch(cfg, sh.B, sh.S, uint64(i)+1)
		scales[i] = float64(sh.Tokens()) / float64(shapes[0].Tokens())
	}
	scfg := sched.Config{Stages: 2, MicroBatches: len(shapes), Layers: cfg.Layers, Batch: batch}
	return m, batches, scfg, sched.UnitBatchCosts(0, scales)
}

// TestVariableLengthGradientParity is the acceptance experiment for
// variable-length workloads: on a mixed-length batch set, every schedule —
// most importantly helix and 1F1B — must produce loss and gradients
// bit-identical to the sequential single-device reference.
func TestVariableLengthGradientParity(t *testing.T) {
	m, batches, cfg, costs := varlenSetup(t)
	refLoss, refGrads := nn.ReferenceStep(m, batches)

	builders := map[string]func() (*sched.Plan, error){
		"1F1B":  func() (*sched.Plan, error) { return sched.OneFOneB(cfg, costs) },
		"GPipe": func() (*sched.Plan, error) { return sched.GPipe(cfg, costs) },
		"ZB1P":  func() (*sched.Plan, error) { return sched.ZB1P(cfg, costs) },
		"ZB2P":  func() (*sched.Plan, error) { return sched.ZB2P(cfg, costs) },
		"AdaPipe-recompute": func() (*sched.Plan, error) {
			worst := costs.MB(1)
			full := worst.SegStash[0] + worst.SegStash[1] + worst.SegStash[2]
			return sched.AdaPipe(cfg, costs, int64(cfg.Layers/cfg.Stages)*full)
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
		if err := sched.Validate(plan); err != nil {
			t.Errorf("%s: invalid variable-length plan: %v", name, err)
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

// TestVariableLengthShapeMismatch checks the executor rejects batches whose
// tensors do not match the plan's declared per-micro-batch shapes.
func TestVariableLengthShapeMismatch(t *testing.T) {
	m, batches, cfg, costs := varlenSetup(t)
	plan, err := sched.OneFOneB(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	// Swap two differently-shaped batches: counts still match, shapes do not.
	swapped := append([]nn.MicroBatch(nil), batches...)
	swapped[0], swapped[3] = swapped[3], swapped[0]
	_, err = Run(plan, m, swapped)
	if err == nil || !strings.Contains(err.Error(), "expects") {
		t.Errorf("shape mismatch not rejected: %v", err)
	}
}

package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/sched"
)

// diffBook is one cost book of the differential grid with the batch spec
// its config must carry.
type diffBook struct {
	name  string
	costs sched.Costs
	batch model.BatchSpec
}

// diffBooks returns the cost books the differential grid builds against for
// one (stages, micro batches) cell: flat, variable-length, placed on a mixed
// A800/H20 topology with a straggler, and placed variable-length.
func diffBooks(t *testing.T, p, m int) []diffBook {
	t.Helper()
	w := costmodel.NewWorkload(model.Model3B(), costmodel.A800Cluster(), model.Shape{B: 1, S: 16384})
	shapes := make([]model.Shape, m)
	for i := range shapes {
		shapes[i] = model.Shape{B: 1, S: 4096 * (1 + (i*7)%5)}
	}
	batch := model.BatchSpec{Shapes: shapes}
	c := cluster.DGXA800x2H20x2()
	devices := make([]int, p)
	for s := range devices {
		devices[s] = s * (c.Devices() / p)
	}
	topo, err := cluster.Resolve(c, cluster.Placement{Devices: devices},
		cluster.Perturb{SlowDevice: devices[1], SlowFactor: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	return []diffBook{
		{"flat", sched.NewCosts(w, model.BatchSpec{}, nil), model.BatchSpec{}},
		{"varlen", sched.NewCosts(w, batch, nil), batch},
		{"placed", sched.NewCosts(w, model.BatchSpec{}, topo), model.BatchSpec{}},
		{"placed-varlen", sched.NewCosts(w, batch, topo), batch},
	}
}

// firstOpDiff returns where two stage programs first differ, comparing every
// field bit for bit, or -1 when they are identical.
func firstOpDiff(a, b []sched.Op) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] || math.Float64bits(a[i].Dur) != math.Float64bits(b[i].Dur) {
			return i
		}
	}
	if len(a) != len(b) {
		return len(a)
	}
	return -1
}

// tieBooks returns the didactic cost books for m micro batches, on which
// picks are decided by ties: UnitCosts at several message times gives many
// starts that tie exactly, and UnitBatchCosts with scales 1/3, 1 and 1.5
// gives starts that differ only by rounding, within the scheduler's 1e-15
// tolerance or just outside it.
func tieBooks(m int) []diffBook {
	scales := make([]float64, m)
	for i := range scales {
		scales[i] = []float64{1.0 / 3, 1, 1.5}[i%3]
	}
	return []diffBook{
		{"unit comm=0", sched.UnitCosts(0), model.BatchSpec{}},
		{"unit comm=0.5", sched.UnitCosts(0.5), model.BatchSpec{}},
		{"unit comm=1", sched.UnitCosts(1), model.BatchSpec{}},
		{"unit comm=3", sched.UnitCosts(3), model.BatchSpec{}},
		{"unit-batch comm=0.5", sched.UnitBatchCosts(0.5, scales), model.BatchSpec{}},
	}
}

// checkReference builds one cell with Build and with the full-rescan
// reference scheduler (helix_ref_test.go) and fails unless every stage
// program is op-for-op identical, floats bit for bit, and allocated at
// exactly its length.
func checkReference(t *testing.T, cfg sched.Config, book diffBook, opt Options) {
	t.Helper()
	cell := fmt.Sprintf("p=%d L=%d m=%d fold=%d recompute=%v %s",
		cfg.Stages, cfg.Layers, cfg.MicroBatches, opt.Fold, opt.Recompute, book.name)
	plan, err := Build(cfg, book.costs, opt)
	if err != nil {
		t.Fatalf("%s: %v", cell, err)
	}
	want, err := refBuild(cfg, book.costs, opt)
	if err != nil {
		t.Fatalf("%s: reference: %v", cell, err)
	}
	for s := range want {
		if i := firstOpDiff(plan.Ops[s], want[s]); i >= 0 {
			t.Fatalf("%s: stage %d differs from the reference at op %d", cell, s, i)
		}
		if len(plan.Ops[s]) != cap(plan.Ops[s]) {
			t.Errorf("%s: stage %d program has len %d, cap %d", cell, s, len(plan.Ops[s]), cap(plan.Ops[s]))
		}
	}
}

// TestHelixMatchesReferenceScheduler proves the rank-ordered ready-set
// scheduler against the full-rescan scheduler kept in helix_ref_test.go
// over three grids, both folds and recomputation on and off throughout:
//   - p in {2,4,8}, L=16, one and two FILO loops, on flat, variable-length
//     and placed cost books;
//   - p=3, L in {3,12}, up to eight loops, on the same books;
//   - p in {2,3,4,8}, L in {p,4p}, on the didactic books of tieBooks, where
//     exact and near ties decide which ready task runs next.
func TestHelixMatchesReferenceScheduler(t *testing.T) {
	for _, recompute := range []bool{true, false} {
		for _, fold := range []int{1, 2} {
			opt := Options{Fold: fold, Recompute: recompute}
			for _, p := range []int{2, 4, 8} {
				for _, m := range []int{fold * p, 2 * fold * p} {
					for _, book := range diffBooks(t, p, m) {
						checkReference(t, sched.Config{Stages: p, MicroBatches: m, Layers: 16, Batch: book.batch}, book, opt)
					}
				}
			}
			for _, layers := range []int{3, 12} {
				for _, loops := range []int{1, 3, 8} {
					m := loops * fold * 3
					for _, book := range diffBooks(t, 3, m) {
						checkReference(t, sched.Config{Stages: 3, MicroBatches: m, Layers: layers, Batch: book.batch}, book, opt)
					}
				}
			}
			for _, p := range []int{2, 3, 4, 8} {
				for _, layers := range []int{p, 4 * p} {
					// The reference rescans every task per pick, so its time
					// grows with the square of the task count: 4p layers run
					// one loop only.
					loopCounts := []int{1, 2}
					if layers > p {
						loopCounts = loopCounts[:1]
					}
					for _, loops := range loopCounts {
						m := loops * fold * p
						for _, book := range tieBooks(m) {
							checkReference(t, sched.Config{Stages: p, MicroBatches: m, Layers: layers}, book, opt)
						}
					}
				}
			}
		}
	}
}

// diffBuild is one way of building a plan: a registered method, its build
// parameters, and the fold its micro-batch count must be a multiple of.
type diffBuild struct {
	method sched.Method
	params sched.BuildParams
	fold   int
}

// diffBuilds lists every registered method at its defaults, plus the one
// helix fold/recompute combination no registered variant covers.
func diffBuilds() []diffBuild {
	var builds []diffBuild
	for _, m := range sched.Methods() {
		fold := 1
		if m == sched.MethodHelix || m == sched.MethodHelixNoRecompute {
			fold = 2
		}
		builds = append(builds, diffBuild{method: m, fold: fold})
	}
	off := false
	return append(builds, diffBuild{sched.MethodHelixNaive, sched.BuildParams{HelixRecompute: &off}, 1})
}

// withOps returns a fresh, never validated copy of the plan whose stage s
// runs ops.
func withOps(p *sched.Plan, s int, ops []sched.Op) *sched.Plan {
	progs := append([][]sched.Op(nil), p.Ops...)
	progs[s] = ops
	return &sched.Plan{Method: p.Method, Stages: p.Stages, MicroBatches: p.MicroBatches, Layers: p.Layers,
		Ops: progs, Costs: p.Costs, Batch: p.Batch, Placement: p.Placement}
}

// mutants returns copies of the plan with one op dropped, duplicated or
// swapped with its successor, at a deterministic spread of stages and
// positions.
func mutants(p *sched.Plan) map[string]*sched.Plan {
	out := map[string]*sched.Plan{}
	for j := 0; j < 6; j++ {
		s := (j*5 + 1) % p.Stages
		ops := p.Ops[s]
		i := (j*len(ops)/6 + j) % len(ops)
		dropped := append(append([]sched.Op(nil), ops[:i]...), ops[i+1:]...)
		out[fmt.Sprintf("drop s%d op%d", s, i)] = withOps(p, s, dropped)
		duplicated := append(append([]sched.Op(nil), ops[:i+1]...), ops[i:]...)
		out[fmt.Sprintf("dup s%d op%d", s, i)] = withOps(p, s, duplicated)
		if i+1 < len(ops) {
			swapped := append([]sched.Op(nil), ops...)
			swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
			out[fmt.Sprintf("swap s%d op%d", s, i)] = withOps(p, s, swapped)
		}
	}
	return out
}

// sameVerdict reports whether the two validators agree: both accept, or both
// reject with the same message. The "never received" error names whichever
// unmatched message a map iteration meets first, so only its kind is
// compared.
func sameVerdict(got, want error) bool {
	switch {
	case got == nil || want == nil:
		return got == want
	case got.Error() == want.Error():
		return true
	}
	const unmatched = "never received"
	return strings.Contains(got.Error(), unmatched) && strings.Contains(want.Error(), unmatched)
}

// TestValidateMatchesReference proves sched.Validate's dense tables against
// the map-based validator they replaced (validate_ref_test.go) over a dense
// geometry grid: every registered method, p in {2,4,8}, m in {fold*p,
// 2*fold*p}, flat, variable-length and placed cost books, and helix fold 1
// and 2 with recomputation on and off. Each valid plan and each one-op
// mutation of it must get the same verdict and message from both.
func TestValidateMatchesReference(t *testing.T) {
	const layers = 16
	rejected := 0
	for _, b := range diffBuilds() {
		for _, p := range []int{2, 4, 8} {
			for _, m := range []int{b.fold * p, 2 * b.fold * p} {
				for _, book := range diffBooks(t, p, m) {
					cell := fmt.Sprintf("%s %+v p=%d m=%d %s", b.method, b.params, p, m, book.name)
					cfg := sched.Config{Stages: p, MicroBatches: m, Layers: layers, Batch: book.batch}
					plan, err := sched.Build(b.method, cfg, book.costs, b.params)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					if got, want := sched.Validate(plan), refValidate(plan); got != nil || want != nil {
						t.Fatalf("%s: valid plan: Validate = %v, reference = %v", cell, got, want)
					}
					for name, bad := range mutants(plan) {
						got, want := sched.Validate(bad), refValidate(bad)
						if !sameVerdict(got, want) {
							t.Errorf("%s, %s: Validate = %v, reference = %v", cell, name, got, want)
						}
						if want != nil {
							rejected++
						}
					}
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no mutation was rejected: the grid exercises nothing")
	}
}

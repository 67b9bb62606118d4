package sched

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/model"
)

// refBook is one cost book of the reference comparison, with the batch spec
// its configuration carries.
type refBook struct {
	name  string
	costs Costs
	batch model.BatchSpec
}

// refBooks returns the books TestLayerwiseMatchesReference prices one
// (stages, micro batches) cell on:
//   - real flat books, 7B/H20/8k with communication and 7B/A800/128k with
//     free communication as the Table 2 bubble experiments price it; both
//     give start times that tie or nearly tie, so they see a step duration
//     that rounds differently from the reference;
//   - the didactic unit book, whose small ratios make exact ties common;
//   - a real book placed round robin on a mixed A800/H20 topology under a
//     straggler, a degraded NVLink class and seeded jitter, so every stage
//     has its own book;
//   - a real variable-length batch.
func refBooks(t *testing.T, p, m int) []refBook {
	t.Helper()
	w := costmodel.NewWorkload(model.Model7B(), costmodel.H20Cluster(), model.Shape{B: 1, S: 8192})
	long := costmodel.NewWorkload(model.Model7B(), costmodel.A800Cluster(), model.Shape{B: 1, S: 131072})
	c := cluster.DGXA800x2H20x2()
	place, err := cluster.RoundRobin(c, p)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := cluster.ParsePerturb("slow=8x2.5,link=nvlinkx0.5,jitter=0.05,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cluster.Resolve(c, place, pt)
	if err != nil {
		t.Fatal(err)
	}
	shapes := make([]model.Shape, m)
	for i := range shapes {
		shapes[i] = model.Shape{B: 1 + i%2, S: 2048 * (1 + (i*7)%5)}
	}
	batch := model.BatchSpec{Shapes: shapes}
	return []refBook{
		{"flat", NewCosts(w, model.BatchSpec{}, nil), model.BatchSpec{}},
		{"flat-nocomm", NewCosts(long, model.BatchSpec{}, nil).ZeroCommCosts(), model.BatchSpec{}},
		{"unit", UnitCosts(0.5), model.BatchSpec{}},
		{"placed", NewCosts(w, model.BatchSpec{}, topo), model.BatchSpec{}},
		{"varlen", NewCosts(w, batch, nil), batch},
	}
}

// refMicroBatches thins m = 1 … 3p+1 to the counts where the schedules
// change shape: one micro batch, fewer than, equal to and just past the
// stage count, twice it, and the top of the range.
func refMicroBatches(p int) []int {
	var out []int
	for _, m := range []int{1, 2, p - 1, p, p + 1, 2 * p, 3*p + 1} {
		if m >= 1 && (len(out) == 0 || m > out[len(out)-1]) {
			out = append(out, m)
		}
	}
	return out
}

// TestLayerwiseMatchesReference requires every layer-wise builder to emit
// the plan of its reference in layerwise_ref_test.go bit for bit, durations
// included, or to fail with the same error text. The grid covers p in
// {1,2,3,4,8} and m in 1 … 3p+1 (thinned by refMicroBatches), with L taking
// 2p, 4p and 8p in turn across the micro-batch counts, each on five cost
// books of four kinds (refBooks); AdaPipe runs under four budgets: none, one that forces
// recomputation, one too small to partition, and 40 GiB.
func TestLayerwiseMatchesReference(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			t.Parallel()
			builds := 0
			for i, m := range refMicroBatches(p) {
				layers := (2 << (i % 3)) * p
				for _, book := range refBooks(t, p, m) {
					cfg := Config{Stages: p, MicroBatches: m, Layers: layers, Batch: book.batch}
					costs := book.costs
					type pair struct {
						name     string
						got, ref func() (*Plan, error)
					}
					pairs := []pair{
						{"GPipe", func() (*Plan, error) { return GPipe(cfg, costs) }, func() (*Plan, error) { return refGPipe(cfg, costs) }},
						{"1F1B", func() (*Plan, error) { return OneFOneB(cfg, costs) }, func() (*Plan, error) { return refOneFOneB(cfg, costs) }},
						{"ZB1P", func() (*Plan, error) { return ZB1P(cfg, costs) }, func() (*Plan, error) { return refZB1P(cfg, costs) }},
						{"ZB2P", func() (*Plan, error) { return ZB2P(cfg, costs) }, func() (*Plan, error) { return refZB2P(cfg, costs) }},
						{"Interleaved", func() (*Plan, error) { return Interleaved(cfg, costs) }, func() (*Plan, error) { return refInterleaved(cfg, costs, 2) }},
					}
					full := costs.SegStash[model.SegPre] + costs.SegStash[model.SegAttn] + costs.SegStash[model.SegPost]
					for _, budget := range []int64{0, int64(layers) * full / 2, 1, 40 << 30} {
						pairs = append(pairs, pair{fmt.Sprintf("AdaPipe/budget=%d", budget),
							func() (*Plan, error) { return AdaPipe(cfg, costs, budget) },
							func() (*Plan, error) { return refAdaPipe(cfg, costs, budget) }})
					}
					for _, pr := range pairs {
						builds++
						if msg := diffPlans(pr.got, pr.ref); msg != "" {
							t.Errorf("%s m=%d L=%d %s: %s", pr.name, m, layers, book.name, msg)
						}
					}
				}
			}
			t.Logf("%d builds matched their reference", builds)
		})
	}
}

// diffPlans builds a plan with both builders and describes the first
// difference: in error text, in plan metadata, or in an op, comparing
// durations by their bits.
func diffPlans(got, ref func() (*Plan, error)) string {
	a, aerr := got()
	b, berr := ref()
	switch {
	case aerr != nil || berr != nil:
		if fmt.Sprint(aerr) != fmt.Sprint(berr) {
			return fmt.Sprintf("error %v, reference %v", aerr, berr)
		}
		return ""
	case a.Method != b.Method || a.Stages != b.Stages || a.MicroBatches != b.MicroBatches ||
		a.Layers != b.Layers || len(a.Batch.Shapes) != len(b.Batch.Shapes) || len(a.Ops) != len(b.Ops):
		return fmt.Sprintf("plan %s p=%d m=%d L=%d, reference %s p=%d m=%d L=%d",
			a.Method, a.Stages, a.MicroBatches, a.Layers, b.Method, b.Stages, b.MicroBatches, b.Layers)
	}
	for s := range a.Ops {
		for i := 0; i < len(a.Ops[s]) || i < len(b.Ops[s]); i++ {
			if i >= len(a.Ops[s]) || i >= len(b.Ops[s]) {
				return fmt.Sprintf("stage %d has %d ops, reference %d", s, len(a.Ops[s]), len(b.Ops[s]))
			}
			x, y := a.Ops[s][i], b.Ops[s][i]
			if x != y || math.Float64bits(x.Dur) != math.Float64bits(y.Dur) {
				return fmt.Sprintf("stage %d op %d is %v (dur %v), reference %v (dur %v)", s, i, x, x.Dur, y, y.Dur)
			}
		}
	}
	return ""
}

package tune

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestPointsFitAndMemoryPrunesAreReal runs randomized searches — 1.3B, 3B
// and 7B on flat A800 and H20 and on a mixed topology, p in {2,4,8}, fixed
// and variable-length workloads, budgets from 24 to 80 GB — and checks the
// memory verdicts against rebuilt plans:
//   - every point fits the budget, and its peak is its simulation's largest
//     stash peak plus model states;
//   - every memory-budget prune the stream yields names a point whose every
//     plan, rebuilt and simulated, exceeds the budget;
//   - the evaluated and pruned counts add up to the grid.
//
// Two fixed rows pin searches that used to lose a feasible point to an
// over-estimate: each must report a best pick for its workload.
func TestPointsFitAndMemoryPrunesAreReal(t *testing.T) {
	type row struct {
		name string
		m    model.Config
		cl   costmodel.ClusterSpec
		spec Spec
		want string // workload that must get a best pick
	}
	workload := func(name string, dist model.LengthDist, docs, minSeq, maxSeq int, seed uint64) WorkloadSpec {
		batch, err := model.SyntheticBatchSpec(dist, docs, minSeq, maxSeq, int64(maxSeq), seed)
		if err != nil {
			t.Fatal(err)
		}
		return WorkloadSpec{Name: name, Batch: batch}
	}
	rows := []row{
		{"7B H20 bimodal 1F1B budget 40", model.Model7B(), costmodel.H20Cluster(), Spec{
			Methods:           []sched.Method{sched.Method1F1B},
			SeqLens:           []int{65536},
			Workloads:         []WorkloadSpec{workload("bimodal", model.DistBimodal, 24, 4096, 65536, 42)},
			Stages:            []int{4},
			Orders:            []string{"packed"},
			MemoryBudgetBytes: 40 << 30,
		}, "bimodal"},
		{"7B A800 longtail budget 40", model.Model7B(), costmodel.A800Cluster(), Spec{
			SeqLens:           []int{131072},
			Workloads:         []WorkloadSpec{workload("longtail", model.DistLongTail, 64, 8192, 131072, 42)},
			Stages:            []int{2, 4, 8},
			MicroBatches:      []int{0, 64},
			Orders:            []string{"packed", "longest"},
			MemoryBudgetBytes: 40 << 30,
		}, "longtail"},
	}

	topo, ok := cluster.PresetByName("DGX-A800x2-H20x2")
	if !ok {
		t.Fatal("no DGX-A800x2-H20x2 preset")
	}
	topoCluster, ok := costmodel.ClusterByName(topo.GPU)
	if !ok {
		t.Fatalf("topology GPU %q is not a flat cluster preset", topo.GPU)
	}
	models := []model.Config{model.Model1B3(), model.Model3B(), model.Model7B()}
	dists := []model.LengthDist{model.DistUniform, model.DistBimodal, model.DistLongTail}
	r := rand.New(rand.NewPCG(21, 6))
	for i := 0; i < 12; i++ {
		m := models[r.IntN(len(models))]
		spec := Spec{
			Stages:            []int{[]int{2, 4, 8}[r.IntN(3)]},
			MemoryBudgetBytes: int64(24+r.IntN(57)) << 30,
		}
		var cl costmodel.ClusterSpec
		where := ""
		switch r.IntN(3) {
		case 0:
			cl, where = costmodel.A800Cluster(), "A800"
		case 1:
			cl, where = costmodel.H20Cluster(), "H20"
		default:
			cl, where = topoCluster, topo.Name
			spec.Cluster = &topo
		}
		maxSeq := []int{16384, 32768, 65536}[r.IntN(3)]
		scenario := fmt.Sprintf("seq=%d", maxSeq)
		if r.IntN(2) == 0 {
			spec.SeqLens = []int{maxSeq}
		} else {
			dist := dists[r.IntN(len(dists))]
			spec.Workloads = []WorkloadSpec{workload("wl", dist, 8+r.IntN(17), 2048, maxSeq, r.Uint64())}
			spec.Orders = []string{string(model.Orders()[r.IntN(len(model.Orders()))])}
			scenario = fmt.Sprintf("%s/%s", dist, spec.Orders[0])
		}
		rows = append(rows, row{name: fmt.Sprintf("%s %s %s p=%d budget %d GB", m.Name, where, scenario,
			spec.Stages[0], spec.MemoryBudgetBytes>>30), m: m, cl: cl, spec: spec})
	}

	var evaluated, memoryPrunes int
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			res, prunes := checkMemoryVerdicts(t, row.m, row.cl, row.spec)
			evaluated += res.Evaluated
			memoryPrunes += prunes
			if row.want == "" {
				return
			}
			for _, p := range res.Best {
				if p.Workload == row.want {
					return
				}
			}
			t.Errorf("no best pick for workload %q (pruned %v, errors %v)", row.want, res.Pruned, res.Errors)
		})
	}
	t.Logf("%d points evaluated, %d memory prunes checked", evaluated, memoryPrunes)
	if evaluated == 0 || memoryPrunes == 0 {
		t.Errorf("%d points evaluated and %d pruned for memory after a build: the grid exercises too little",
			evaluated, memoryPrunes)
	}
}

// checkMemoryVerdicts drains one search, checks every point and every
// streamed memory prune against rebuilt and simulated plans, and returns
// the result with the number of memory prunes checked.
func checkMemoryVerdicts(t *testing.T, m model.Config, cl costmodel.ClusterSpec, spec Spec) (*Result, int) {
	t.Helper()
	s, err := NewSearch(m, cl, spec)
	if err != nil {
		t.Fatal(err)
	}
	prunes := 0
	for p, err := range s.Points() {
		if err != nil {
			var pe *PruneError
			if !errors.As(err, &pe) {
				t.Fatalf("stream error is not a PruneError: %v", err)
			}
			if pe.Reason == PruneMemory {
				prunes++
				for _, peak := range simulatedPeaks(t, s, pe.Candidate) {
					if peak <= s.budget {
						t.Errorf("%s pruned for memory, but a plan peaks at %d within budget %d",
							pe.Candidate, peak, s.budget)
					}
				}
			}
			continue
		}
		if p.PeakBytes > s.budget {
			t.Errorf("%s: peak %d exceeds budget %d", p.Candidate, p.PeakBytes, s.budget)
		}
		view := (*cluster.Topology)(nil)
		if spec.Cluster != nil {
			view = resolve(t, *spec.Cluster, cluster.Placement{Strategy: p.Placement, Devices: p.PlacementDevices})
		}
		if peak := simulatedPeak(t, s, p.Candidate, view); peak != p.PeakBytes {
			t.Errorf("%s: peak %d, its simulation peaks at %d", p.Candidate, p.PeakBytes, peak)
		}
	}
	res := s.Result()
	total := res.Evaluated
	for _, n := range res.Pruned {
		total += n
	}
	if total != res.GridSize {
		t.Errorf("evaluated %d + pruned %v != grid %d", res.Evaluated, res.Pruned, res.GridSize)
	}
	return res, prunes
}

// simulatedPeaks rebuilds a candidate's plans — one on flat books, or one per
// placement strategy on the search's topology — and returns each one's
// simulated largest stash peak plus model states.
func simulatedPeaks(t *testing.T, s *Search, c Candidate) []int64 {
	t.Helper()
	if s.spec.Cluster == nil {
		return []int64{simulatedPeak(t, s, c, nil)}
	}
	topo := *s.spec.Cluster
	cfg, w, params := rebuildInputs(s, c)
	traffic, err := sched.Traffic(c.Method, cfg, sched.NewCosts(w, cfg.Batch, nil), params)
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	var peaks []int64
	for _, strategy := range cluster.Strategies() {
		place, err := cluster.Generate(strategy, topo, c.Stages, traffic,
			cluster.SearchOptions{Perturb: cluster.Perturb{SlowDevice: -1}})
		if err != nil {
			continue
		}
		peaks = append(peaks, simulatedPeak(t, s, c, resolve(t, topo, place)))
	}
	if len(peaks) == 0 {
		t.Errorf("%s: no placement to check", c)
	}
	return peaks
}

// simulatedPeak rebuilds the candidate's plan on the given placed view (nil
// for flat books) and returns its simulated largest stash peak plus model
// states.
func simulatedPeak(t *testing.T, s *Search, c Candidate, view *cluster.Topology) int64 {
	t.Helper()
	cfg, w, params := rebuildInputs(s, c)
	plan, err := sched.Build(c.Method, cfg, sched.NewCosts(w, cfg.Batch, view), params)
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	opt := sim.Options{SMPenalty: s.cl.CommSMPenalty}
	if view != nil {
		plan.Placement = view.Placement.Devices
		opt.Topology = view
	}
	res, err := sim.Run(plan, opt)
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	return res.MaxPeakStashBytes() + stateBytes(s.m, s.cl, c.Method, c.Stages)
}

// rebuildInputs returns what a candidate's plan is built from: its schedule
// config, its workload and the activation budget left beside model states.
func rebuildInputs(s *Search, c Candidate) (sched.Config, costmodel.Workload, sched.BuildParams) {
	cfg := sched.Config{Stages: c.Stages, MicroBatches: c.MicroBatches, Layers: s.m.Layers}
	if batch := s.batchOf(c); batch != nil {
		cfg.Batch = *batch
	}
	w := costmodel.NewWorkload(s.m, s.cl, model.Shape{B: c.MicroBatchSize, S: c.SeqLen})
	return cfg, w, sched.BuildParams{MemoryBudget: s.budget - stateBytes(s.m, s.cl, c.Method, c.Stages)}
}

func resolve(t *testing.T, topo cluster.Cluster, place cluster.Placement) *cluster.Topology {
	t.Helper()
	view, err := cluster.Resolve(topo, place, cluster.Perturb{SlowDevice: -1})
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// TestStashPeaksFollowTable2 checks the per-method order the budget check
// relies on, read off each plan's own stash peak (the paper's Table 2):
// HelixPipe's recomputation without attention stashes far less than 1F1B,
// which holds p micro batches where GPipe holds all m, and recomputation
// shrinks the HelixPipe stash.
func TestStashPeaksFollowTable2(t *testing.T) {
	w := costmodel.NewWorkload(model.Model3B(), costmodel.A800Cluster(), model.Shape{B: 1, S: 65536})
	cfg := sched.Config{Stages: 4, MicroBatches: 8, Layers: w.Model.Layers}
	peak := func(method sched.Method) int64 {
		plan, err := sched.Build(method, cfg, sched.NewCosts(w, model.BatchSpec{}, nil), sched.BuildParams{})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		return maxStash(plan)
	}
	helix, norecompute := peak(sched.MethodHelix), peak(sched.MethodHelixNoRecompute)
	oneF1B, gpipe := peak(sched.Method1F1B), peak(sched.MethodGPipe)
	if !(helix < oneF1B && oneF1B < gpipe) {
		t.Errorf("stash peaks HelixPipe %d, 1F1B %d, GPipe %d: want ascending", helix, oneF1B, gpipe)
	}
	if !(helix < norecompute) {
		t.Errorf("recomputation must shrink the HelixPipe stash: %d vs %d without", helix, norecompute)
	}
}

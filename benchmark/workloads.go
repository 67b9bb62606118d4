package main

// The workloads: seeded generators of ExperimentSpec requests. Every request
// of a run is drawn from (seed, round, index) alone, so both sides of a
// comparison replay byte-identical inputs whatever the round size. Discrete
// axes that change how much work a request is (model, pipeline size,
// topology, policy) cycle with the request index, so every round carries the
// same mix; continuous axes (sequence lengths, seeds, perturbation factors)
// and axes that barely change the work (A800 or H20) are drawn fresh, so no
// round repeats another and a process-wide memo only helps as far as real
// traffic would let it.
//
// Where the work classes are few and far apart, their count is odd: with an
// even count the pooled median falls on the gap between the two middle
// classes and jumps across it from run to run.

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	helix "repro"
)

// kind names how a request is executed and what its output is.
type kind int

const (
	kindCells  kind = iota // Execute: a stream of cell reports
	kindTune               // Autotune: one ranked tune result
	kindFleet              // Fleet: one fleet report
	kindDecode             // Decode: one decode report
)

type workload struct {
	name string
	kind kind
	// perRound is the request count of one round, sized to about a second
	// on a 2-core machine and a multiple of the generator's cycle.
	perRound int
	gen      func(r *rand.Rand, i int) *helix.ExperimentSpec
}

// allMethods names every registered method explicitly, so registering a new
// method does not change the workload.
var allMethods = []string{
	"GPipe", "1F1B", "Interleaved1F1B", "ZB1P", "ZB2P", "AdaPipe",
	"HelixPipe-naive", "HelixPipe", "HelixPipe-norecompute",
}

var workloads = []workload{
	{name: "sweep-flat", kind: kindCells, perRound: 36, gen: genSweepFlat},
	{name: "placed-topo", kind: kindCells, perRound: 80, gen: genPlacedTopo},
	{name: "tune-varlen", kind: kindTune, perRound: 54, gen: genTuneVarlen},
	{name: "fleet-churn", kind: kindFleet, perRound: 50, gen: genFleetChurn},
	{name: "decode-long", kind: kindDecode, perRound: 800, gen: genDecodeLong},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// requestRand returns the generator stream of one request.
func requestRand(w string, seed uint64, round, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", w, round, i)
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// seqLen draws a sequence length on the 4096-token grid in [lo, hi] tokens.
func seqLen(r *rand.Rand, lo, hi int) int {
	return 4096 * (lo/4096 + r.IntN(hi/4096-lo/4096+1))
}

// sweepGeoms are nine (model, stages) pairs every one of the nine methods can
// build. 13B stops at p = 4: interleaved 1F1B at p = 8 needs 16 virtual
// stages, which 40 layers do not divide into; 1.3B at p = 2 makes the count
// odd.
var sweepGeoms = []struct {
	model  string
	stages int
}{
	{"1.3B", 2},
	{"3B", 2}, {"3B", 4}, {"3B", 8},
	{"7B", 2}, {"7B", 4}, {"7B", 8},
	{"13B", 2}, {"13B", 4},
}

var flatClusters = []string{"A800", "H20"}

// genSweepFlat: two sequence lengths x one pipeline size x all nine methods
// on a flat testbed, 18 cells, no two requests alike.
func genSweepFlat(r *rand.Rand, i int) *helix.ExperimentSpec {
	g := sweepGeoms[i%len(sweepGeoms)]
	cl := flatClusters[r.IntN(len(flatClusters))]
	a := seqLen(r, 8192, 131072)
	b := seqLen(r, 8192, 131072)
	for b == a {
		b = seqLen(r, 8192, 131072)
	}
	return &helix.ExperimentSpec{
		Model:   g.model,
		Cluster: cl,
		Stages:  g.stages,
		Methods: allMethods,
		Sweep:   &helix.SpecSweep{SeqLens: []int{a, b}, Stages: []int{g.stages}},
	}
}

// placedTopos are the topology presets with the link classes a perturbation
// may degrade on each.
var placedTopos = []struct {
	name    string
	devices int
	links   []string
}{
	{"DGX-A800x4", 32, []string{"nvlink", "ib"}},
	{"DGX-H20x2", 16, []string{"nvlink", "ib"}},
	{"PCIe-box", 8, []string{"pcie"}},
	{"DGX-A800x2-H20x2", 32, []string{"nvlink", "ib"}},
}

// placedGeoms are the geometries of the placed runs: four or eight stages,
// where the placement search has a choice to make.
var placedGeoms = []struct {
	model  string
	stages int
}{
	{"3B", 4}, {"3B", 8}, {"7B", 4}, {"7B", 8}, {"13B", 4},
}

// genPlacedTopo: one run on a topology preset under a seeded greedy
// placement search, a quarter of the requests clean and the rest with a
// straggler, a degraded link class or compute jitter.
func genPlacedTopo(r *rand.Rand, i int) *helix.ExperimentSpec {
	topo := placedTopos[i%len(placedTopos)]
	g := placedGeoms[i/len(placedTopos)%len(placedGeoms)]
	var perturb string
	switch i / (len(placedTopos) * len(placedGeoms)) % 4 {
	case 1:
		perturb = fmt.Sprintf("slow=%dx%.2f", r.IntN(topo.devices), 1.2+1.8*r.Float64())
	case 2:
		perturb = fmt.Sprintf("link=%sx%.2f", topo.links[r.IntN(len(topo.links))], 0.2+0.7*r.Float64())
	case 3:
		perturb = fmt.Sprintf("jitter=%.3f,seed=%d", 0.01+0.09*r.Float64(), 1+r.IntN(1<<20))
	}
	return &helix.ExperimentSpec{
		Model:         g.model,
		Cluster:       topo.name,
		SeqLen:        seqLen(r, 8192, 131072),
		Stages:        g.stages,
		Methods:       []string{"1F1B", "ZB1P", "AdaPipe", "HelixPipe"},
		Placement:     "greedy",
		PlacementSeed: uint64(1 + r.IntN(1<<20)),
		Perturb:       perturb,
	}
}

var orderNames = []string{"packed", "longest", "shortest", "balanced"}

// genTuneVarlen: an autotuner search over a freshly sampled variable-length
// corpus under one drawn micro-batch order, 2 pipeline sizes x 9 methods: 18
// grid points. The length distribution, the memory budget (which decides how
// much of the grid memsim prunes) and the model cycle: 27 work classes. The
// corpus is 24 documents of at most 32k-64k tokens: the document count sets
// the micro-batch count, and longer maxima let memsim prune nearly the whole
// grid, so both would otherwise swing a request's work several-fold.
func genTuneVarlen(r *rand.Rand, i int) *helix.ExperimentSpec {
	return &helix.ExperimentSpec{
		Model:   []string{"1.3B", "3B", "7B"}[i/9%3],
		Cluster: flatClusters[r.IntN(len(flatClusters))],
		Methods: allMethods,
		Workload: &helix.SpecWorkload{
			Dist:   []string{"uniform", "bimodal", "longtail"}[i%3],
			Docs:   24,
			MaxSeq: seqLen(r, 32768, 65536),
			Seed:   uint64(1 + r.IntN(1<<20)),
		},
		Tune: &helix.SpecTune{
			Stages:   []int{2, 4},
			BudgetGB: []float64{48, 64, 80}[i/3%3],
			Orders:   []string{orderNames[r.IntN(len(orderNames))]},
		},
	}
}

var fleetPolicies = []string{"fifo", "bestfit", "worstfit", "backfill", "preempt"}

// genFleetChurn: a 60-job stream of three repeating job shapes on a shared
// DGX-A800x4; repeated shapes on equivalent carves hit the report cache.
func genFleetChurn(r *rand.Rand, i int) *helix.ExperimentSpec {
	method := func() string { return []string{"HelixPipe", "1F1B", "ZB1P"}[r.IntN(3)] }
	arrival := []string{"poisson", "bursty"}[i/len(fleetPolicies)%2]
	return &helix.ExperimentSpec{
		Model:         "3B",
		Cluster:       "DGX-A800x4",
		Placement:     "greedy",
		PlacementSeed: uint64(1 + r.IntN(1<<20)),
		Fleet: &helix.SpecFleet{
			Policy:      fleetPolicies[i%len(fleetPolicies)],
			Jobs:        60,
			Arrival:     arrival,
			RatePerHour: float64(300 + r.IntN(601)),
			Seed:        uint64(1 + r.IntN(1<<20)),
			Templates: []helix.SpecFleetTemplate{
				{Name: "short", Weight: 3, Stages: 4, SeqLen: seqLen(r, 8192, 32768), Method: method()},
				{Name: "long", Weight: 2, Stages: 8, SeqLen: seqLen(r, 16384, 65536), Method: method()},
				{Name: "urgent", Weight: 1, Stages: 2, SeqLen: seqLen(r, 8192, 32768), Method: method(),
					Priority: 5, Iterations: 20},
			},
		},
	}
}

// genDecodeLong: one interactive-decoding lattice search at a long context.
func genDecodeLong(r *rand.Rand, i int) *helix.ExperimentSpec {
	d := &helix.SpecDecode{
		ContextLen:   65536 * (4 + r.IntN(61)), // 256k to 4M
		DecodeTokens: 256 + r.IntN(1793),
		Sessions:     1 + r.IntN(8),
		GPUs:         []int{4, 8, 16, 32}[i%4],
		Objective:    []string{"latency_per_token", "throughput"}[r.IntN(2)],
	}
	if i/4%5 == 4 {
		d.MLA = true
	} else {
		d.KVHeads = []int{1, 2, 4, 8}[i/4%5]
	}
	return &helix.ExperimentSpec{
		Model:   []string{"7B", "13B"}[i/20%2],
		Cluster: flatClusters[r.IntN(len(flatClusters))],
		Decode:  d,
	}
}

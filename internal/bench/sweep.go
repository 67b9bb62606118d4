package bench

import (
	"fmt"
	"time"

	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Sweep-baseline grid: every registered method at each (seqlen, stages)
// geometry of the 3B/A800 configuration — 216 cells with the 9 registered
// methods, comfortably over the 200-cell floor the sweep-path gate wants.
var (
	sweepBaselineSeqLens = []int{4096, 8192, 16384, 32768, 49152, 65536, 98304, 131072}
	sweepBaselineStages  = []int{2, 4, 8}
)

// SweepCellsPerSecond is the one throughput key of the sweep baseline
// config.
const SweepCellsPerSecond = "cells_per_second"

// sweepBaselineThreshold is the regression threshold of the sweep config:
// its metric is wall-clock cells/s on a shared CI runner, far noisier than
// the simulated tokens/s of the other configs, so the gate fires only on a
// drop large enough to be a real slowdown rather than scheduler noise.
const sweepBaselineThreshold = 0.5

// SweepBaseline times the sweep path end to end: plan building plus
// simulation for every cell of the method x seqlen x stages grid, run
// sequentially so the cells/s metric measures the hot path and not the
// host's core count. It is the BENCH_baseline config that makes sweep-path
// slowdowns visible to the helix bench -diff gate.
func SweepBaseline() (BaselineConfig, error) {
	mc := model.Model3B()
	cl := costmodel.A800Cluster()
	cells := 0
	start := time.Now()
	for _, seq := range sweepBaselineSeqLens {
		for _, p := range sweepBaselineStages {
			s := NewScenario(mc, cl, seq, p)
			cfg := sched.Config{Stages: p, MicroBatches: s.MicroBatches, Layers: mc.Layers}
			costs := sched.NewCosts(s.Workload(), model.BatchSpec{}, nil)
			params := sched.BuildParams{MemoryBudget: s.MemoryBudget()}
			for _, method := range sched.Methods() {
				plan, err := sched.Build(method, cfg, costs, params)
				if err != nil {
					return BaselineConfig{}, fmt.Errorf("sweep baseline seq=%d p=%d %s: %w", seq, p, method, err)
				}
				if _, err := sim.Run(plan, sim.Options{SMPenalty: cl.CommSMPenalty}); err != nil {
					return BaselineConfig{}, fmt.Errorf("sweep baseline seq=%d p=%d %s: %w", seq, p, method, err)
				}
				cells++
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	bc := BaselineConfig{
		Name:      fmt.Sprintf("sweep-3B-A800-%dcells", cells),
		Sweep:     true,
		Threshold: sweepBaselineThreshold,
		Throughput: map[string]float64{
			SweepCellsPerSecond: float64(cells) / elapsed,
		},
	}
	return bc, nil
}

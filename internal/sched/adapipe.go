package sched

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// AdaPipe builds the adaptive-recomputation, adaptive-partition baseline of
// Sun et al. (ASPLOS'24), as used by the paper's evaluation: a 1F1B schedule
// whose layer partition and per-stage recomputation set are chosen jointly
// so that (a) every stage fits the per-GPU memory budget and (b) the
// bottleneck stage time is minimized.
//
// The original system searches with a cost-model-guided dynamic program; we
// reproduce that directly: a DP over contiguous layer partitions where each
// stage is assigned the minimal number of fully recomputed layers that
// satisfies its 1F1B residency (p - stage outstanding micro batches), and
// the objective is the bottleneck per-micro-batch stage time.
//
// memBudgetBytes is the per-GPU activation budget; non-positive means
// unbounded (the DP then degenerates to pure partition balancing). The
// paper's key observation reproduces naturally: with very long sequences the
// attention time dominates every layer, so partition balancing has almost no
// room and AdaPipe cannot beat 1F1B (section 5.2).
func AdaPipe(cfg Config, costs Costs, memBudgetBytes int64) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, L := cfg.Stages, cfg.Layers
	// The DP reasons about the partition with aggregates: per-micro-batch
	// mean durations for the bottleneck objective, and the worst (largest)
	// micro batch's stash for memory feasibility, so a variable-length
	// iteration never admits a partition its longest micro batches overflow.
	mean := costs.MeanMB(cfg.MicroBatches)
	// On a variable-length book the embedded fallback is costed at the
	// per-axis maximum shape — a phantom micro batch no real iteration
	// contains — so the worst case must be scanned from the actual per-MB
	// books, not seeded with the fallback.
	worst := &costs.MBCosts
	if len(costs.PerMB) > 0 {
		layerStash := func(c *MBCosts) int64 {
			return c.SegStash[model.SegPre] + c.SegStash[model.SegAttn] + c.SegStash[model.SegPost]
		}
		worst = &costs.PerMB[0]
		for mb := 1; mb < cfg.MicroBatches && mb < len(costs.PerMB); mb++ {
			if layerStash(&costs.PerMB[mb]) > layerStash(worst) {
				worst = &costs.PerMB[mb]
			}
		}
	}
	fullLayerStash := worst.SegStash[model.SegPre] + worst.SegStash[model.SegAttn] + worst.SegStash[model.SegPost]
	inputStash := worst.InputStash
	layerFBW := mean.LayerDur(KForward) + mean.LayerDur(KBackwardB) +
		mean.SegDur(model.SegPre, KBackwardW) + mean.SegDur(model.SegPost, KBackwardW)
	recomputeDur := mean.SegRecompute[model.SegPre] + mean.SegRecompute[model.SegAttn] + mean.SegRecompute[model.SegPost]

	// minRecompute returns the minimal number of recomputed layers for a
	// stage holding `c` layers with `outstanding` resident micro batches,
	// and whether the assignment is feasible at all.
	minRecompute := func(c, outstanding int) (int, bool) {
		if memBudgetBytes <= 0 {
			return 0, true
		}
		full := int64(outstanding) * int64(c) * fullLayerStash
		if full <= memBudgetBytes {
			return 0, true
		}
		perLayerSaving := int64(outstanding) * (fullLayerStash - inputStash)
		if perLayerSaving <= 0 {
			return c + 1, false
		}
		need := full - memBudgetBytes
		r := int((need + perLayerSaving - 1) / perLayerSaving)
		if r > c {
			return r, false
		}
		return r, true
	}

	// stageTime returns the steady-state per-micro-batch time of a stage.
	stageTime := func(stage, c, r int) float64 {
		t := float64(c)*layerFBW + float64(r)*recomputeDur
		if stage == 0 {
			t += mean.EmbedF + mean.EmbedW
		}
		if stage == p-1 {
			t += mean.HeadFB + mean.HeadW
		}
		return t
	}

	// DP over contiguous partitions: dp[s][l] = minimal bottleneck time
	// assigning the first l layers to the first s stages.
	const inf = math.MaxFloat64
	dp := make([][]float64, p+1)
	choice := make([][]int, p+1)
	for s := range dp {
		dp[s] = make([]float64, L+1)
		choice[s] = make([]int, L+1)
		for l := range dp[s] {
			dp[s][l] = inf
		}
	}
	dp[0][0] = 0
	for s := 1; s <= p; s++ {
		outstanding := p - (s - 1) // 1F1B residency of stage s-1
		for l := 1; l <= L; l++ {
			maxC := l - (s - 1) // leave at least one layer per earlier stage
			for c := 1; c <= maxC; c++ {
				prev := dp[s-1][l-c]
				if prev == inf {
					continue
				}
				r, ok := minRecompute(c, outstanding)
				if !ok {
					continue
				}
				t := math.Max(prev, stageTime(s-1, c, r))
				if t < dp[s][l] {
					dp[s][l] = t
					choice[s][l] = c
				}
			}
		}
	}
	if dp[p][L] == inf {
		return nil, fmt.Errorf("sched: AdaPipe found no partition of %d layers over %d stages within %d bytes",
			L, p, memBudgetBytes)
	}

	sizes := make([]int, p)
	l := L
	for s := p; s >= 1; s-- {
		c := choice[s][l]
		sizes[s-1] = c
		l -= c
	}

	recomp := make([]int, p)
	for s := range recomp {
		// Recompute the chunk's last layers, as many as the budget needs;
		// the choice within the chunk does not affect time or peak memory.
		recomp[s], _ = minRecompute(sizes[s], p-s)
	}
	plan := oneFOneBOn(newLayerwise(cfg, costs, chunksFromSizes(sizes), recomp))
	plan.Method = MethodAdaPipe
	return plan, nil
}

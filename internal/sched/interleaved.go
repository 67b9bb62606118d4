package sched

import "fmt"

// interleavedGeometry checks an interleaved configuration and returns its
// chunk count 2p. One stage is rejected: every chunk boundary would be a
// send to the stage itself.
func interleavedGeometry(cfg Config) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if cfg.Stages < 2 {
		return 0, fmt.Errorf("sched: interleaved 1F1B needs at least 2 stages, got %d", cfg.Stages)
	}
	v := 2 * cfg.Stages
	if cfg.Layers%v != 0 {
		return 0, fmt.Errorf("sched: layers (%d) must divide into %d virtual stages", cfg.Layers, v)
	}
	return v, nil
}

// interleavedTraffic is the traffic matrix of the plan Interleaved builds:
// the layer-wise chain over its 2p chunks, chunk vs on stage vs mod p.
func interleavedTraffic(cfg Config, costs Costs, _ BuildParams) ([][]int64, error) {
	v, err := interleavedGeometry(cfg)
	if err != nil {
		return nil, err
	}
	return chainTraffic(cfg, costs, v), nil
}

// Interleaved builds the interleaved-1F1B schedule of Megatron-LM (paper
// section 6.2): instead of one contiguous chunk, every stage owns two
// smaller model chunks spread across the depth, stage s holding chunks s and
// s+p. That halves the pipeline fill bubble at the price of twice the p2p
// traffic and a demand for many micro batches. The paper excludes it from
// its main experiments for exactly that reason ("it requires extensive
// micro batches to saturate the pipeline"); we implement it as an ablation
// baseline.
//
// The 2p chunks are virtual pipeline stages, list-scheduled with ZB1P's
// earliest-start policy, with fused backward (B+W) like 1F1B and at most
// 2p-vs micro batches in flight on chunk vs, mirroring Megatron's
// interleaved warmup depth. It needs at least two stages.
func Interleaved(cfg Config, costs Costs) (*Plan, error) {
	v, err := interleavedGeometry(cfg)
	if err != nil {
		return nil, err
	}
	lw := newLayerwise(cfg, costs, evenChunks(cfg.Layers, v), nil)
	if err := lw.listSchedule(func(vs int) int { return v - vs }, false); err != nil {
		return nil, err
	}
	return lw.plan(MethodInterleaved), nil
}

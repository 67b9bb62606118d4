package decode

import (
	"math"

	"repro/internal/costmodel"
)

// CostParams prices a scenario on concrete hardware: the per-device GPU
// spec and the intra-group link the attention/FFN collectives cross. The
// link must be resolved, since Spec.Validate rejects one without
// bandwidth: a session passes its placed node's intra link, or on a flat
// cluster the cluster's NVLink (costmodel.ClusterSpec.NVLink).
type CostParams struct {
	GPU           costmodel.GPUSpec  `json:"gpu"`
	Link          costmodel.LinkSpec `json:"link"`
	ComputeFactor float64            `json:"compute_factor,omitempty"`
}

// WithDefaults fills the compute factor (1.0) so a zero CostParams still
// prices sanely once a GPU is set.
func (p CostParams) WithDefaults() CostParams {
	if p.ComputeFactor <= 0 {
		p.ComputeFactor = 1
	}
	return p
}

func (p CostParams) gemmFLOPS() float64 {
	return p.GPU.DenseFP16TFLOPS * 1e12 * p.GPU.GEMMEfficiency
}

func (p CostParams) attnFLOPS() float64 {
	return p.GPU.DenseFP16TFLOPS * 1e12 * p.GPU.AttnEfficiency
}

func (p CostParams) hbmBps() float64 { return p.GPU.HBMGBps * 1e9 }

// allReduce is two ring passes (reduce-scatter + all-gather).
func (p CostParams) allReduce(bytes float64, g int) float64 {
	return 2 * p.Link.Ring(bytes, g)
}

// StepCost is the priced breakdown of one decode step (one token per
// session) at a given cache length.
type StepCost struct {
	LinearSeconds    float64
	AttentionSeconds float64
	HeadSeconds      float64
	AllGatherSeconds float64
	AllToAllSeconds  float64
	AllReduceSeconds float64
}

// Total is the step's wall-clock: compute and comm in sequence (decode
// steps are too short to overlap meaningfully at batch sizes this small).
func (c StepCost) Total() float64 {
	return c.LinearSeconds + c.AttentionSeconds + c.HeadSeconds +
		c.AllGatherSeconds + c.AllToAllSeconds + c.AllReduceSeconds
}

// CommSeconds is the collective share of the step.
func (c StepCost) CommSeconds() float64 {
	return c.AllGatherSeconds + c.AllToAllSeconds + c.AllReduceSeconds
}

// ComputeSeconds is the on-device share of the step.
func (c StepCost) ComputeSeconds() float64 {
	return c.LinearSeconds + c.AttentionSeconds + c.HeadSeconds
}

// stepCost prices one decode step for the scenario under the sharding with
// the cache at length s tokens.
//
// Per layer:
//   - Dense projections + MLP run tensor-parallel over all N GPUs. At
//     decode the batch is tiny, so each GEMM is really a GEMV: cost is the
//     max of the FLOP time and the weight-streaming time from HBM —
//     decode-phase FFN is weight-bandwidth-bound at small B.
//   - Attention reads each rank's KV shard once (HBM-bound against the
//     growing cache) and does 4*B*Hq/TPA*ceil(S/KVP)*d FLOPs.
//   - KVP > 1 pays the helix collectives inside each attention group: an
//     all-gather of the query activations so every sequence shard sees
//     every query, then an all-to-all exchanging partial outputs plus the
//     (max, sumexp) pair per head for the flash-style rescale combine.
//   - N > 1 pays two all-reduces of the hidden activations per layer
//     (attention output + MLP output), the standard TP pattern.
//
// The LM head runs once per step, vocab-parallel over N.
//
// Only the attention term reads s, so Spec.Simulate prices a step once and
// re-prices attentionSeconds per token.
func (sc Scenario) stepCost(sh Sharding, s int, p CostParams) StepCost {
	p = p.WithDefaults()
	b := float64(sc.Sessions)
	h := float64(sc.Hidden)
	n := float64(sc.GPUs)
	dh := float64(sc.Heads.HeadDim)
	cf := p.ComputeFactor

	var c StepCost

	// Dense projections + MLP, sharded over all N GPUs.
	linParams := float64(sc.linParams()) / n
	linFLOPs := 2 * b * linParams
	linBytes := linParams * FP16Bytes
	c.LinearSeconds = cf * math.Max(linFLOPs/p.gemmFLOPS(), linBytes/p.hbmBps())

	c.AttentionSeconds = sc.attentionSeconds(sh, s, &p)

	// Helix collectives inside the KVP group.
	qPerRank := float64(sc.Heads.QueryHeads) / float64(sh.TPA)
	if sh.KVP > 1 {
		qBytes := b * qPerRank * dh * FP16Bytes
		c.AllGatherSeconds = p.Link.Ring(qBytes, sh.KVP)
		// Partial outputs plus per-head (max, sumexp) for the combine.
		oBytes := b * qPerRank * (dh + 2) * FP16Bytes
		c.AllToAllSeconds = p.Link.Ring(oBytes, sh.KVP)
	}

	// Standard TP all-reduces over the full N-GPU world, twice per layer.
	if sc.GPUs > 1 {
		actBytes := b * h * FP16Bytes
		c.AllReduceSeconds = 2 * p.allReduce(actBytes, sc.GPUs)
	}

	// Everything above repeats per layer; the head runs once.
	c.LinearSeconds *= float64(sc.Layers)
	c.AllGatherSeconds *= float64(sc.Layers)
	c.AllToAllSeconds *= float64(sc.Layers)
	c.AllReduceSeconds *= float64(sc.Layers)

	headFLOPs := 2 * b * h * float64(sc.Vocab) / n
	headBytes := h * float64(sc.Vocab) * FP16Bytes / n
	c.HeadSeconds = cf * math.Max(headFLOPs/p.gemmFLOPS(), headBytes/p.hbmBps())

	return c
}

// attentionSeconds is stepCost's attention term at cache length s, over all
// layers: each layer attends against one rank's shard of the cache. p
// carries its defaults.
func (sc *Scenario) attentionSeconds(sh Sharding, s int, p *CostParams) float64 {
	b := float64(sc.Sessions)
	dh := float64(sc.Heads.HeadDim)
	ctxPerRank := float64(ceilDiv(s, sh.KVP))
	qPerRank := float64(sc.Heads.QueryHeads) / float64(sh.TPA)
	attnFLOPs := 4 * b * qPerRank * ctxPerRank * dh
	effK := sc.Heads.EffectiveKVHeads()
	kvPerRank := effK / sh.TPA
	if kvPerRank < 1 {
		kvPerRank = 1
	}
	kvReadBytes := b * ctxPerRank * float64(sc.Heads.kvBytesPerToken()) * float64(kvPerRank) / float64(effK)
	perLayer := p.ComputeFactor * math.Max(attnFLOPs/p.attnFLOPS(), kvReadBytes/p.hbmBps())
	return perLayer * float64(sc.Layers)
}

// TTFTSeconds estimates time-to-first-token: the prefill of the S0-token
// prompt (dense GEMMs plus causal attention, compute-bound at long S)
// followed by the first decode step. Prefill parallelism is the same
// N-GPU tensor-parallel world; the causal factor halves the attention
// FLOPs exactly as the training cost model does.
func (sc Scenario) TTFTSeconds(sh Sharding, p CostParams) float64 {
	p = p.WithDefaults()
	b := float64(sc.Sessions)
	s0 := float64(sc.ContextLen)
	n := float64(sc.GPUs)
	cf := p.ComputeFactor

	linFLOPs := 2 * b * s0 * float64(sc.linParams()) * float64(sc.Layers)
	headFLOPs := 2 * b * float64(sc.Hidden) * float64(sc.Vocab)
	gemmSec := cf * (linFLOPs + headFLOPs) / (n * p.gemmFLOPS())

	attnFLOPs := 4 * b * float64(sc.Heads.QueryHeads) * float64(sc.Heads.HeadDim) *
		s0 * s0 * costmodel.CausalFactor * float64(sc.Layers)
	attnSec := cf * attnFLOPs / (n * p.attnFLOPS())

	return gemmSec + attnSec + sc.stepCost(sh, sc.ContextLen, p).Total()
}

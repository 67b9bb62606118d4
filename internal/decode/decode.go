// Package decode implements the interactive-decoding scenario family: the
// Helix Parallelism setting (PAPERS.md, arXiv:2507.07120) where a batch of
// concurrent sessions generates tokens against multi-million-token KV
// caches and the objective is latency per token, not training throughput.
//
// Attention at decode time shards along two axes: TPA partitions the KV
// heads (classic tensor parallelism over attention), KVP partitions the
// sequence — each KVP rank holds a contiguous shard of every session's KV
// cache and produces a partial attention output that a flash-style
// rescale/combine merges. The lattice is constrained by TPA <= K (a rank
// cannot hold less than one KV head; MLA's single shared latent means
// effectively K = 1) and KVP*TPA <= N (the attention groups live inside
// the N-GPU tensor-parallel world that the FFN uses in full). The cost
// model prices per-token attention against the growing cache, FFN GEMV
// work, KV-cache reads from HBM, and the all-gather/all-to-all/all-reduce
// collectives of each sharding, pricing GPUs with the training cost
// model's GPUSpec and every collective with its ring formula
// (costmodel.LinkSpec.Ring).
package decode

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// FP16Bytes is the element width of weights, activations and KV cache.
const FP16Bytes = 2

// HeadConfig describes the attention-head geometry of a served model:
// query heads, KV heads (GQA groups queries over fewer KV heads; MHA has
// K = Heads), and the MLA variant where all queries share one compressed
// latent KV — effectively a single KV head that cannot be sharded by TPA.
type HeadConfig struct {
	// QueryHeads is the number of query heads H.
	QueryHeads int `json:"query_heads"`
	// KVHeads is the number of KV heads K of a GQA/MHA model. Ignored
	// under MLA, whose latent acts as a single shared KV head.
	KVHeads int `json:"kv_heads,omitempty"`
	// HeadDim is the per-head dimension d.
	HeadDim int `json:"head_dim"`
	// MLA marks multi-head latent attention: the KV cache holds one
	// compressed latent of LatentDim per token instead of K*(d K + d V).
	MLA bool `json:"mla,omitempty"`
	// LatentDim is the MLA latent width c (e.g. 512 for DeepSeek-style
	// compression). Required when MLA is set, ignored otherwise.
	LatentDim int `json:"latent_dim,omitempty"`
}

// EffectiveKVHeads is the shardable KV-head count: 1 under MLA (the latent
// is shared by every query head), KVHeads otherwise.
func (h HeadConfig) EffectiveKVHeads() int {
	if h.MLA {
		return 1
	}
	return h.KVHeads
}

// kvBytesPerToken is one token's KV-cache footprint per layer across all
// effective KV heads: the latent under MLA, K and V vectors per head
// otherwise.
func (h HeadConfig) kvBytesPerToken() int64 {
	if h.MLA {
		return int64(h.LatentDim) * FP16Bytes
	}
	return 2 * int64(h.KVHeads) * int64(h.HeadDim) * FP16Bytes
}

// Validate reports an error when the head geometry is unusable.
func (h HeadConfig) Validate() error {
	switch {
	case h.QueryHeads <= 0:
		return fmt.Errorf("decode: query heads must be positive, got %d", h.QueryHeads)
	case h.HeadDim <= 0:
		return fmt.Errorf("decode: head dim must be positive, got %d", h.HeadDim)
	}
	if h.MLA {
		if h.LatentDim <= 0 {
			return fmt.Errorf("decode: MLA needs a positive latent dim, got %d", h.LatentDim)
		}
		return nil
	}
	switch {
	case h.KVHeads <= 0:
		return fmt.Errorf("decode: kv heads must be positive, got %d", h.KVHeads)
	case h.QueryHeads%h.KVHeads != 0:
		return fmt.Errorf("decode: query heads (%d) must be divisible by kv heads (%d)",
			h.QueryHeads, h.KVHeads)
	}
	return nil
}

// Sharding is one point of the KVP x TPA lattice: KVP ranks partition the
// sequence (each holds S/KVP of every KV cache), TPA ranks partition the
// KV heads. The group uses KVP*TPA of the scenario's N GPUs for attention;
// the FFN always runs tensor-parallel over all N.
type Sharding struct {
	// KVP is the sequence (KV-cache) partition width.
	KVP int `json:"kvp"`
	// TPA is the attention-head tensor-parallel width.
	TPA int `json:"tpa"`
}

func (s Sharding) String() string { return fmt.Sprintf("kvp=%d tpa=%d", s.KVP, s.TPA) }

// GPUs is the attention group size KVP*TPA.
func (s Sharding) GPUs() int { return s.KVP * s.TPA }

// Check validates the sharding against the lattice constraints for n GPUs
// and the head config: positive axes, KVP*TPA <= N, TPA <= K (effective),
// and even division of heads and GPUs so every rank gets identical work.
func (s Sharding) Check(n int, h HeadConfig) error {
	effK := h.EffectiveKVHeads()
	switch {
	case s.KVP <= 0 || s.TPA <= 0:
		return fmt.Errorf("decode: sharding axes must be positive, got %s", s)
	case s.KVP > n/s.TPA: // KVP*TPA > N, without overflowing the product
		return fmt.Errorf("decode: %s needs %d GPUs, scenario has %d (KVP*TPA must be <= N)",
			s, s.GPUs(), n)
	case s.TPA > effK:
		return fmt.Errorf("decode: %s shards %d effective KV heads over %d ranks (TPA must be <= K)",
			s, effK, s.TPA)
	case effK%s.TPA != 0:
		return fmt.Errorf("decode: %s does not divide the %d effective KV heads evenly", s, effK)
	case h.QueryHeads%s.TPA != 0:
		return fmt.Errorf("decode: %s does not divide the %d query heads evenly", s, h.QueryHeads)
	case n%s.GPUs() != 0:
		return fmt.Errorf("decode: %s group of %d does not divide the %d GPUs evenly", s, s.GPUs(), n)
	}
	return nil
}

// Shardings enumerates the full-utilization lattice for n GPUs under the
// head config: every (KVP, TPA) with KVP*TPA = N (the tight case of
// KVP*TPA <= N — idle GPUs never help latency in this model), TPA <= K,
// and heads dividing evenly. Deterministic order: ascending TPA, so the
// pure sequence-parallel point (KVP=N, TPA=1) comes first. Under MLA the
// effective K is 1 and the lattice collapses to exactly that point —
// matching the vLLM helix constraint table, where TP=4/DCP=4 resolves to
// TPA=1, KVP=4.
func Shardings(n int, h HeadConfig) []Sharding {
	var out []Sharding
	// Check rejects TPA > K, so the scan stops there: a huge N costs
	// nothing.
	for tpa := 1; tpa <= n && tpa <= h.EffectiveKVHeads(); tpa++ {
		if n%tpa != 0 {
			continue
		}
		s := Sharding{KVP: n / tpa, TPA: tpa}
		if s.Check(n, h) == nil {
			out = append(out, s)
		}
	}
	return out
}

// MaxDecodeTokens caps the tokens a scenario generates per session. The
// search prices and reports every token (Point.TokenSeconds), so the cap
// bounds one point's latencies at 8 MiB; decode runs generate hundreds to a
// few thousand tokens.
const MaxDecodeTokens = 1 << 20

// Scenario is one interactive-decoding workload: a model's dimensions, its
// head config, and the serving shape — context length already in the cache,
// tokens to generate, concurrent sessions, and the GPU count N.
type Scenario struct {
	// Model labels the model preset in reports.
	Model string `json:"model"`
	// Layers, Hidden and Vocab are the model dimensions the FFN/head cost
	// derives from.
	Layers int `json:"layers"`
	Hidden int `json:"hidden"`
	Vocab  int `json:"vocab"`
	// Heads is the attention-head geometry.
	Heads HeadConfig `json:"heads"`
	// ContextLen is the KV-cache length S0 every session starts decoding
	// from (the prompt/prefix).
	ContextLen int `json:"context_len"`
	// DecodeTokens is the number of tokens T each session generates; the
	// cache grows from S0 to S0+T over the run.
	DecodeTokens int `json:"decode_tokens"`
	// Sessions is the batch B of concurrent sessions decoding in lockstep.
	Sessions int `json:"sessions"`
	// GPUs is the tensor-parallel world size N the FFN runs over and the
	// attention lattice carves.
	GPUs int `json:"gpus"`
}

// Validate reports an error when the scenario cannot be simulated.
func (sc Scenario) Validate() error {
	switch {
	case sc.Layers <= 0:
		return fmt.Errorf("decode: layers must be positive, got %d", sc.Layers)
	case sc.Hidden <= 0:
		return fmt.Errorf("decode: hidden must be positive, got %d", sc.Hidden)
	case sc.Vocab <= 0:
		return fmt.Errorf("decode: vocab must be positive, got %d", sc.Vocab)
	case sc.ContextLen <= 0:
		return fmt.Errorf("decode: context length must be positive, got %d", sc.ContextLen)
	case sc.DecodeTokens <= 0:
		return fmt.Errorf("decode: decode tokens must be positive, got %d", sc.DecodeTokens)
	case sc.Sessions <= 0:
		return fmt.Errorf("decode: sessions must be positive, got %d", sc.Sessions)
	case sc.GPUs <= 0:
		return fmt.Errorf("decode: gpus must be positive, got %d", sc.GPUs)
	case sc.DecodeTokens > MaxDecodeTokens:
		return fmt.Errorf("decode: decode tokens must be at most %d, got %d", MaxDecodeTokens, sc.DecodeTokens)
	case sc.ContextLen > math.MaxInt-sc.DecodeTokens:
		return fmt.Errorf("decode: context length %d plus %d decode tokens overflows", sc.ContextLen, sc.DecodeTokens)
	}
	if err := sc.Heads.Validate(); err != nil {
		return err
	}
	if q := sc.Heads.QueryHeads * sc.Heads.HeadDim; q != sc.Hidden {
		return fmt.Errorf("decode: query heads x head dim (%d x %d) must equal hidden (%d)",
			sc.Heads.QueryHeads, sc.Heads.HeadDim, sc.Hidden)
	}
	// Byte counts are int64. The unsharded end-of-run KV cache bounds every
	// rank's shard, and twice the parameter count is the weight bytes.
	h := sc.Heads
	perToken := []int{2, h.KVHeads, h.HeadDim, FP16Bytes}
	kvDim := []int{2, h.KVHeads, h.HeadDim}
	if h.MLA {
		perToken, kvDim = []int{h.LatentDim, FP16Bytes}, []int{h.LatentDim}
	}
	if !sumFits(append([]int{sc.Sessions, sc.ContextLen + sc.DecodeTokens, sc.Layers}, perToken...)) {
		return fmt.Errorf("decode: the KV cache of %d sessions x %d tokens x %d layers overflows int64 bytes",
			sc.Sessions, sc.ContextLen+sc.DecodeTokens, sc.Layers)
	}
	L, hid := sc.Layers, sc.Hidden
	if !sumFits(
		[]int{FP16Bytes, L, hid, h.QueryHeads, h.HeadDim},
		append([]int{FP16Bytes, L, hid}, kvDim...),
		[]int{FP16Bytes, L, hid, hid},
		[]int{FP16Bytes, L, 8, hid, hid},
		[]int{FP16Bytes, sc.Vocab, hid},
	) {
		return fmt.Errorf("decode: the model weights overflow int64 bytes")
	}
	return nil
}

// sumFits reports whether the sum of the terms' products of positive
// factors fits int64.
func sumFits(terms ...[]int) bool {
	var total int64
	for _, factors := range terms {
		p := int64(1)
		for _, f := range factors {
			hi, lo := bits.Mul64(uint64(p), uint64(f))
			if hi != 0 || lo > math.MaxInt64 {
				return false
			}
			p = int64(lo)
		}
		if p > math.MaxInt64-total {
			return false
		}
		total += p
	}
	return true
}

// kvShardBytes is one rank's KV-cache footprint at cache length s under the
// sharding, across all sessions and layers. The sequence axis divides by
// KVP (ceiling — the last shard is the reference); the head axis divides by
// TPA only as far as the effective KV heads go: a TPA wider than K (never
// enumerated, but priceable for what-if comparisons) duplicates the cache,
// which is exactly why MLA prefers pure KVP.
func (sc Scenario) kvShardBytes(sh Sharding, s int) int64 {
	perTokenAll := sc.Heads.kvBytesPerToken()
	effK := int64(sc.Heads.EffectiveKVHeads())
	share := effK / int64(sh.TPA)
	if share < 1 {
		share = 1 // duplicated: a rank cannot hold less than one head/latent
	}
	perToken := perTokenAll * share / effK
	tokens := int64(ceilDiv(s, sh.KVP))
	return int64(sc.Sessions) * tokens * perToken * int64(sc.Layers)
}

// KVBytesPerDevice is one rank's KV-cache footprint at the end of the run
// (cache length S0+T) — the peak the memory prune checks against.
func (sc Scenario) KVBytesPerDevice(sh Sharding) int64 {
	return sc.kvShardBytes(sh, sc.ContextLen+sc.DecodeTokens)
}

// linParams counts one layer's dense parameters: the Q projection, the KV
// (or latent) projection, the output projection and the two MLP matrices.
func (sc Scenario) linParams() int64 {
	h := int64(sc.Hidden)
	kvDim := 2 * int64(sc.Heads.EffectiveKVHeads()) * int64(sc.Heads.HeadDim)
	if sc.Heads.MLA {
		kvDim = int64(sc.Heads.LatentDim)
	}
	qProj := h * int64(sc.Heads.QueryHeads) * int64(sc.Heads.HeadDim)
	kvProj := h * kvDim
	outProj := h * h
	mlp := 8 * h * h
	return qProj + kvProj + outProj + mlp
}

// WeightBytesPerDevice is one rank's share of the model weights under
// N-way tensor parallelism: all dense layers plus the tied embedding/head.
func (sc Scenario) WeightBytesPerDevice() int64 {
	params := int64(sc.Layers)*sc.linParams() + int64(sc.Vocab)*int64(sc.Hidden)
	return params * FP16Bytes / int64(sc.GPUs)
}

// ceilDiv divides rounding up, for a >= 0 and b > 0, without overflowing
// a+b.
func ceilDiv(a, b int) int {
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}

// Dist summarizes a latency distribution with nearest-rank percentiles.
type Dist struct {
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P95Seconds  float64 `json:"p95_seconds"`
	MaxSeconds  float64 `json:"max_seconds"`
}

// distOf summarizes the samples without modifying them. Token latencies
// rise with the cache length, so they usually arrive sorted; only samples
// out of order are copied and sorted.
func distOf(samples []float64) Dist {
	if len(samples) == 0 {
		return Dist{}
	}
	sorted := samples
	if !slices.IsSorted(samples) {
		sorted = append([]float64(nil), samples...)
		sort.Float64s(sorted)
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	rank := func(q float64) float64 {
		i := int(q*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return Dist{
		MeanSeconds: sum / float64(len(sorted)),
		P50Seconds:  rank(0.50),
		P95Seconds:  rank(0.95),
		MaxSeconds:  sorted[len(sorted)-1],
	}
}

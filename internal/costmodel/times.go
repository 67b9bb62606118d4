package costmodel

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// CausalFactor is the fraction of the dense 4bhs^2 attention FLOPs that a
// causal (autoregressive) flash-attention kernel actually executes: the
// score matrix is lower-triangular, halving the work. Paper Table 1 counts
// the dense volume by convention; published wall-clock attention times (the
// paper's Figures 3 and 9) reflect the causal kernel, so timing applies this
// factor while the accounting layer keeps the paper's convention.
const CausalFactor = 0.5

// LinkSpec prices the interconnect a stage's intra-node sequence-parallel
// collectives traverse: the placed node's real link class instead of the
// cluster-wide NVLink assumption. The zero value means "unplaced" and keeps
// the flat ClusterSpec NVLink pricing. It is comparable, so it participates
// in Workload-keyed memoization.
type LinkSpec struct {
	// Class names the interconnect ("nvlink", "pcie", ...); informational.
	Class string
	// GBps is the unidirectional bandwidth in GB/s.
	GBps float64
	// LatencySec is the per-collective base latency in seconds.
	LatencySec float64
}

// Ring prices one ring pass of a collective (an all-gather or a
// reduce-scatter) of bytes across a group of g ranks on this link: the
// base latency plus (g-1)/g of the payload through the link. A group of one
// rank, or an empty payload, is free. This is the one ring formula: the
// training model's sequence-parallel collectives (Sequence Parallelism, Li
// et al.) and the decode model's KVP/TPA collectives (Helix Parallelism)
// both price through it.
func (l LinkSpec) Ring(bytes float64, g int) float64 {
	if g <= 1 || bytes <= 0 {
		return 0
	}
	return l.LatencySec + bytes*float64(g-1)/float64(g)/(l.GBps*1e9)
}

// Workload binds a model configuration to a cluster and a micro-batch shape.
// One pipeline stage occupies one full node and the activation tensors are
// sequence-parallel across the node's GPUs (SeqPar = GPUsPerNode = 8 in all
// paper experiments). All times are in seconds and describe the whole stage
// (node), not a single GPU.
//
// The Link, GPU and ComputeFactor fields resolve the workload to one placed
// stage of a topology: collectives price against the placed node's intra
// link, compute against the placed device's spec, and every duration
// stretches by the stage's perturbation factor. Their zero values reproduce
// the flat cluster-global pricing bit-exactly, so unplaced workloads are
// unaffected. The struct stays comparable — placed fields are part of the
// cost-book memo key.
type Workload struct {
	// Model is the transformer being trained.
	Model model.Config
	// Cluster is the testbed.
	Cluster ClusterSpec
	// Shape is the micro-batch shape (b, s).
	Shape model.Shape
	// SeqPar is the sequence/tensor parallel width inside a stage. Zero
	// means "use the whole node" (GPUsPerNode).
	SeqPar int
	// SkipSPComm disables intra-node sequence-parallel collective costs;
	// used to isolate pure compute in component-profile experiments that
	// mirror the paper's single-GPU profiling (Figure 3).
	SkipSPComm bool
	// Link prices intra-stage collectives on the placed node's intra-node
	// link; the zero value keeps the flat NVLink term.
	Link LinkSpec
	// GPU overrides the cluster's GPU spec with the placed device's; the
	// zero value (empty Name) keeps Cluster.GPU.
	GPU GPUSpec
	// ComputeFactor stretches every duration by the placed stage's
	// perturbation factor (straggler + jitter); values <= 0 mean 1.
	ComputeFactor float64
}

// NewWorkload returns a Workload with SeqPar defaulted to the node size.
func NewWorkload(m model.Config, cl ClusterSpec, sh model.Shape) Workload {
	return Workload{Model: m, Cluster: cl, Shape: sh, SeqPar: cl.GPUsPerNode}
}

// Validate reports an error when the workload is inconsistent.
func (w Workload) Validate() error {
	if err := w.Model.Validate(); err != nil {
		return err
	}
	if err := w.Cluster.Validate(); err != nil {
		return err
	}
	if w.Shape.B <= 0 || w.Shape.S <= 0 {
		return fmt.Errorf("costmodel: micro batch shape must be positive, got %+v", w.Shape)
	}
	if w.seqPar() > w.Cluster.GPUsPerNode {
		return fmt.Errorf("costmodel: SeqPar %d exceeds node size %d", w.SeqPar, w.Cluster.GPUsPerNode)
	}
	return nil
}

// MaxMicroBatches caps the micro batches of one iteration. A plan build
// allocates every stage program up front, a few hundred ops per micro batch
// and stage, so the cap keeps one build to a few hundred MB.
const MaxMicroBatches = 1 << 12

// ValidateIteration reports an error when one iteration of m micro batches
// of the workload's shape is too large to plan: more than MaxMicroBatches
// micro batches, or counts that overflow int64, its token count m·b·s or
// its stash bound m·L·(full per-layer stash bytes), every layer's
// activations of every micro batch held at once. Plans, simulations and
// reports sum token and byte counts within these bounds, so a geometry past
// them would wrap and report garbage. Shape and m must be positive.
func (w Workload) ValidateIteration(m int) error {
	if m > MaxMicroBatches {
		return fmt.Errorf("costmodel: micro batches must be at most %d, got %d", MaxMicroBatches, m)
	}
	b, s := int64(w.Shape.B), int64(w.Shape.S)
	if _, ok := mulInt64(int64(m), b, s); !ok {
		return fmt.Errorf("costmodel: the iteration's token count (%d micro batches of %d x %d tokens) overflows int64",
			m, b, s)
	}
	layer, ok := mulInt64(b, s, w.Model.LayerActivationElems(model.Shape{B: 1, S: 1}), model.FP16Bytes)
	if sp := int64(w.seqPar()); ok && sp > 1 {
		layer /= sp
	}
	if ok {
		_, ok = mulInt64(int64(m), int64(w.Model.Layers), layer)
	}
	if !ok {
		return fmt.Errorf("costmodel: the iteration's stash bound (%d micro batches x %d layers x the full "+
			"per-layer stash of %d x %d tokens) overflows int64 bytes", m, w.Model.Layers, b, s)
	}
	return nil
}

// mulInt64 returns the product of non-negative factors, and false when it
// overflows int64.
func mulInt64(factors ...int64) (int64, bool) {
	p := int64(1)
	for _, f := range factors {
		if f != 0 && p > math.MaxInt64/f {
			return 0, false
		}
		p *= f
	}
	return p, true
}

func (w Workload) seqPar() int {
	if w.SeqPar <= 0 {
		return w.Cluster.GPUsPerNode
	}
	return w.SeqPar
}

// gpu returns the GPU spec pricing this workload's compute: the placed
// device's when resolved, the cluster-wide spec otherwise.
func (w Workload) gpu() GPUSpec {
	if w.GPU.Name != "" {
		return w.GPU
	}
	return w.Cluster.GPU
}

// factor returns the compute stretch of the placed stage (1 when unplaced or
// unperturbed).
func (w Workload) factor() float64 {
	if w.ComputeFactor <= 0 {
		return 1
	}
	return w.ComputeFactor
}

// gemmFLOPS returns the effective GEMM throughput of the stage in FLOP/s.
func (w Workload) gemmFLOPS() float64 {
	g := w.gpu()
	return float64(w.seqPar()) * g.DenseFP16TFLOPS * 1e12 * g.GEMMEfficiency
}

// attnFLOPS returns the effective flash-attention throughput of the stage.
func (w Workload) attnFLOPS() float64 {
	g := w.gpu()
	return float64(w.seqPar()) * g.DenseFP16TFLOPS * 1e12 * g.AttnEfficiency
}

// hbmBps returns the aggregate HBM bandwidth of the stage in bytes/s.
func (w Workload) hbmBps() float64 {
	return float64(w.seqPar()) * w.gpu().HBMGBps * 1e9
}

// spCollectiveTime returns the time of one ring all-gather or reduce-scatter
// of a [s,b,h] fp16 tensor across the sequence-parallel group: on the placed
// node's intra link when the workload is placement-resolved (a PCIe box pays
// PCIe bandwidth), on the flat cluster's NVLink otherwise. The zero Link
// stays the "unplaced" memo-key sentinel; the fallback resolves here.
func (w Workload) spCollectiveTime() float64 {
	if w.SkipSPComm {
		return 0
	}
	link := w.Link
	if link.GBps <= 0 {
		link = w.Cluster.NVLink()
	}
	bytes := float64(w.Shape.Tokens()) * float64(w.Model.Hidden) * model.FP16Bytes
	return link.Ring(bytes, w.seqPar())
}

// spCollectivesPerSegment returns how many sequence-parallel collectives a
// segment performs per pass: the attention module all-gathers its input
// before the QKV projection (pre) and reduce-scatters after the output
// projection; the MLP module does the same around its two linears (post).
// The backward pass mirrors the forward collectives; backward-W needs none.
func spCollectivesPerSegment(seg model.Segment, pass model.Pass) int {
	if pass == model.BackwardW {
		return 0
	}
	switch seg {
	case model.SegPre:
		return 1
	case model.SegPost:
		return 3
	default:
		return 0
	}
}

// SegmentTime returns the execution time in seconds of one layer segment for
// one micro batch on one stage: GEMM time at the class-specific efficiency,
// plus bandwidth-bound vector time, plus intra-node sequence-parallel
// collectives, all stretched by the placed stage's perturbation factor:
// whole ops stretch, so collectives inside a slow stage slow down with it.
func (w Workload) SegmentTime(seg model.Segment, pass model.Pass) float64 {
	flops := w.Model.SegmentFLOPs(seg, pass, w.Shape)
	var compute float64
	if seg == model.SegAttn {
		compute = flops * CausalFactor / w.attnFLOPS()
	} else {
		compute = flops / w.gemmFLOPS()
	}
	vecBytes := float64(w.Model.SegmentVectorElems(seg, pass, w.Shape)) * model.FP16Bytes
	vector := vecBytes / w.hbmBps()
	sp := float64(spCollectivesPerSegment(seg, pass)) * w.spCollectiveTime()
	return (compute + vector + sp) * w.factor()
}

// LayerTime returns the execution time of a whole layer for one pass.
func (w Workload) LayerTime(pass model.Pass) float64 {
	return w.SegmentTime(model.SegPre, pass) +
		w.SegmentTime(model.SegAttn, pass) +
		w.SegmentTime(model.SegPost, pass)
}

// PrePostTime returns t_pre + t_post for one pass — the quantity the paper's
// Table 2 bubble formulas are expressed in.
func (w Workload) PrePostTime(pass model.Pass) float64 {
	return w.SegmentTime(model.SegPre, pass) + w.SegmentTime(model.SegPost, pass)
}

// EmbeddingTime returns the time of the input embedding lookup for one micro
// batch: bandwidth bound, streaming b*s rows of h.
func (w Workload) EmbeddingTime(pass model.Pass) float64 {
	if pass == model.BackwardW {
		// Gradient scatter-add into the embedding table.
		return float64(w.Shape.Tokens()) * float64(w.Model.Hidden) * model.FP32Bytes / w.hbmBps() * w.factor()
	}
	return float64(w.Shape.Tokens()) * float64(w.Model.Hidden) * model.FP16Bytes / w.hbmBps() * w.factor()
}

// HeadTime returns the time of the LM head projection plus softmax/loss for
// one micro batch and pass (2*b*s*h*V GEMM dominates).
func (w Workload) HeadTime(pass model.Pass) float64 {
	flops := w.Model.EmbeddingFLOPs(pass, w.Shape)
	logitBytes := float64(w.Model.LogitsElems(w.Shape)) * model.FP16Bytes
	return (flops/w.gemmFLOPS() + 2*logitBytes/w.hbmBps()) * w.factor()
}

// P2PBytes is the node-aggregate byte volume of one inter-stage transfer.
type P2PBytes int64

// P2PTime returns the wall time of transferring the given node-aggregate
// volume between two adjacent stages over InfiniBand.
func (w Workload) P2PTime(bytes int64) float64 {
	return w.Cluster.InterNodeLatency + float64(bytes)/(w.Cluster.InterNodeGBps*1e9)
}

// ActivationP2PBytes returns the volume of the conventional layer-wise
// pipeline boundary: one [s,b,h] activation (or its gradient) in fp16.
func (w Workload) ActivationP2PBytes() int64 {
	return w.Shape.Tokens() * int64(w.Model.Hidden) * model.FP16Bytes
}

// HelixPreAttnBytes returns the volume of HelixPipe's pre-attention to
// attention boundary with the QKV weight-shipping optimization of section
// 4.2: the attention input A plus residual (2bsh) and the QKV linear
// parameters (3h^2) instead of the raw Q,K,V tensors (which would be 4bsh).
func (w Workload) HelixPreAttnBytes() int64 {
	h := int64(w.Model.Hidden)
	act := 2 * w.Shape.Tokens() * h
	params := 3 * h * h
	return (act + params) * model.FP16Bytes
}

// HelixPreAttnBytesNaive returns the same boundary without weight shipping:
// attention input, Q, K, V and residual, 4bsh elements total (section 4.2).
func (w Workload) HelixPreAttnBytesNaive() int64 {
	return 4 * w.Shape.Tokens() * int64(w.Model.Hidden) * model.FP16Bytes
}

// HelixAttnPostBytes returns the volume of HelixPipe's attention to
// post-attention boundary: attention output plus residual input, 2bsh.
func (w Workload) HelixAttnPostBytes() int64 {
	return 2 * w.Shape.Tokens() * int64(w.Model.Hidden) * model.FP16Bytes
}

// SegmentStashBytes returns the per-GPU bytes stashed by a segment's forward
// pass for its backward pass (activation elements in fp16, divided across
// the sequence-parallel group).
func (w Workload) SegmentStashBytes(seg model.Segment) int64 {
	return w.Model.SegmentActivationElems(seg, w.Shape) * model.FP16Bytes / int64(w.seqPar())
}

// HelixSegmentStashBytes returns the per-GPU bytes stashed per segment under
// recomputation-without-attention: the attention segment keeps its flash-
// attention input/output (about 2bsh), while pre and post keep only their
// segment inputs (1bsh each), totalling the paper's 4bsh per layer.
func (w Workload) HelixSegmentStashBytes(seg model.Segment) int64 {
	bsh := w.Shape.Tokens() * int64(w.Model.Hidden)
	var elems int64
	switch seg {
	case model.SegAttn:
		elems = 2 * bsh
	default:
		elems = bsh
	}
	return elems * model.FP16Bytes / int64(w.seqPar())
}

// InputStashBytes returns the per-GPU bytes of one boundary activation
// ([s,b,h] fp16), the unit 1F1B stages keep between forward and backward.
func (w Workload) InputStashBytes() int64 {
	return w.Shape.Tokens() * int64(w.Model.Hidden) * model.FP16Bytes / int64(w.seqPar())
}

// LogitsStashBytes returns the per-GPU bytes of the LM-head vocabulary
// activation [s,b,V] that section 4.6 avoids stashing, in fp16.
func (w Workload) LogitsStashBytes() int64 {
	return w.Model.LogitsElems(w.Shape) * model.FP16Bytes / int64(w.seqPar())
}

// EmbeddingGradStashBytes returns the per-GPU bytes ZB1P stashes at the last
// stage for each micro batch whose word-embedding backward-W is deferred:
// the head input activation and its output gradient in fp32 (section 5.4
// observes these are "often stashed in fp32 format").
func (w Workload) EmbeddingGradStashBytes() int64 {
	return 2 * w.Shape.Tokens() * int64(w.Model.Hidden) * model.FP32Bytes / int64(w.seqPar())
}

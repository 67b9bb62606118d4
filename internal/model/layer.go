package model

import "fmt"

// Segment identifies one of the three parts of a transformer layer in the
// attention parallel partition (paper Figure 1): pre-attention (LayerNorm +
// QKV linear), the non-parameterized attention core, and post-attention
// (output projection, LayerNorm, MLP). It is one byte so that a plan op
// (sched.Op) fits one cache line; it stays signed so a range check on a
// hand-built value can still see a negative one.
type Segment int8

const (
	// SegPre is the pre-attention segment: LayerNorm 1 and the QKV linear.
	SegPre Segment = iota
	// SegAttn is the attention core: softmax(QK^T)V with flash attention.
	// It holds no model parameters.
	SegAttn
	// SegPost is the post-attention segment: output projection, LayerNorm 2,
	// and the two-linear GeLU MLP.
	SegPost
)

// Segments lists the three layer segments in execution order.
var Segments = [3]Segment{SegPre, SegAttn, SegPost}

// String implements fmt.Stringer.
func (s Segment) String() string {
	switch s {
	case SegPre:
		return "pre"
	case SegAttn:
		return "attn"
	case SegPost:
		return "post"
	default:
		return fmt.Sprintf("Segment(%d)", int(s))
	}
}

// Component identifies a single operation inside a transformer layer,
// matching the columns of paper Table 1.
type Component int

const (
	// CompLayerNorm1 is the attention-module LayerNorm.
	CompLayerNorm1 Component = iota
	// CompQKV is the fused query/key/value linear projection.
	CompQKV
	// CompAttention is the flash-attention core (QK^T softmax, PV).
	CompAttention
	// CompOProj is the attention output linear projection.
	CompOProj
	// CompLayerNorm2 is the MLP-module LayerNorm.
	CompLayerNorm2
	// CompLinear1 is the first MLP linear (h -> 4h).
	CompLinear1
	// CompGeLU is the MLP activation.
	CompGeLU
	// CompLinear2 is the second MLP linear (4h -> h).
	CompLinear2

	numComponents
)

// Components lists every layer component in execution order.
var Components = [numComponents]Component{
	CompLayerNorm1, CompQKV, CompAttention, CompOProj,
	CompLayerNorm2, CompLinear1, CompGeLU, CompLinear2,
}

// String implements fmt.Stringer.
func (c Component) String() string {
	switch c {
	case CompLayerNorm1:
		return "LayerNorm1"
	case CompQKV:
		return "QKVLinear"
	case CompAttention:
		return "Attention"
	case CompOProj:
		return "OLinear"
	case CompLayerNorm2:
		return "LayerNorm2"
	case CompLinear1:
		return "Linear1"
	case CompGeLU:
		return "GeLU"
	case CompLinear2:
		return "Linear2"
	default:
		return fmt.Sprintf("Component(%d)", int(c))
	}
}

// Segment returns the layer segment a component belongs to.
func (c Component) Segment() Segment {
	switch c {
	case CompLayerNorm1, CompQKV:
		return SegPre
	case CompAttention:
		return SegAttn
	default:
		return SegPost
	}
}

// Shape describes the activation shape [s, b, h] of a micro batch flowing
// through a layer: S is the sequence length, B the micro batch size. The
// hidden size comes from the model Config.
type Shape struct {
	// B is the micro batch size (b in the paper).
	B int
	// S is the sequence length (s in the paper).
	S int
}

// Tokens returns b*s, the number of tokens in the micro batch.
func (sh Shape) Tokens() int64 { return int64(sh.B) * int64(sh.S) }

// Pass identifies a computation pass over a layer. Following paper Table 1
// the backward pass is decoupled into backward-B (gradients for input
// activations) and backward-W (gradients for model parameters); zero bubble
// schedules exploit exactly this decoupling.
type Pass int

const (
	// Forward is the forward pass.
	Forward Pass = iota
	// BackwardB computes gradients w.r.t. input activations.
	BackwardB
	// BackwardW computes gradients w.r.t. model parameters. The attention
	// core has no parameters, so its backward-W cost is zero.
	BackwardW
)

// String implements fmt.Stringer.
func (p Pass) String() string {
	switch p {
	case Forward:
		return "F"
	case BackwardB:
		return "B"
	case BackwardW:
		return "W"
	default:
		return fmt.Sprintf("Pass(%d)", int(p))
	}
}

// ComponentFLOPs returns the matrix-multiply FLOPs of one component for the
// given pass, reproducing paper Table 1 exactly. LayerNorms and GeLU perform
// no matrix math and return 0 here; their memory-bound cost is modeled via
// ComponentVectorElems.
func (c Config) ComponentFLOPs(comp Component, pass Pass, sh Shape) float64 {
	b := float64(sh.B)
	s := float64(sh.S)
	h := float64(c.Hidden)
	bsh2 := b * s * h * h // b*s*h^2
	bs2h := b * s * s * h // b*s^2*h
	switch comp {
	case CompQKV:
		// 6bsh^2 for every pass (forward, dgrad and wgrad each cost the
		// same 2x(3h^2) GEMM volume).
		return 6 * bsh2
	case CompAttention:
		switch pass {
		case Forward:
			return 4 * bs2h
		case BackwardB:
			return 8 * bs2h
		default:
			return 0 // attention is non-parameterized: no backward-W
		}
	case CompOProj:
		return 2 * bsh2
	case CompLinear1:
		return 8 * bsh2
	case CompLinear2:
		return 8 * bsh2
	default:
		return 0 // LayerNorms, GeLU: bandwidth bound, no matrix FLOPs
	}
}

// ComponentVectorElems returns the number of elements read+written by the
// bandwidth-bound (non-GEMM) part of a component, used by the cost model to
// charge HBM time for LayerNorm, GeLU, softmax bookkeeping, residual adds
// and similar vector work. GEMM-only components return a small epilogue
// traffic; vector components return a few multiples of their tensor size.
func (c Config) ComponentVectorElems(comp Component, pass Pass, sh Shape) int64 {
	bsh := sh.Tokens() * int64(c.Hidden)
	switch comp {
	case CompLayerNorm1, CompLayerNorm2:
		// read input, write normalized output (plus stats, negligible);
		// backward reads two tensors and writes one.
		if pass == Forward {
			return 2 * bsh
		}
		return 3 * bsh
	case CompGeLU:
		// operates on the 4h-wide MLP hidden tensor.
		if pass == Forward {
			return 2 * 4 * bsh
		}
		return 3 * 4 * bsh
	case CompAttention:
		// flash attention streams Q,K,V and writes O; the quadratic score
		// matrix never touches HBM. Residual add folded in.
		if pass == BackwardW {
			return 0
		}
		return 5 * bsh
	case CompQKV:
		if pass == BackwardW {
			return 0
		}
		return 4 * bsh // read bsh input, write 3bsh of Q,K,V
	case CompOProj:
		if pass == BackwardW {
			return 0
		}
		return 2 * bsh
	case CompLinear1, CompLinear2:
		if pass == BackwardW {
			return 0
		}
		return 5 * bsh // h-side tensor plus 4h-side tensor
	default:
		return 0
	}
}

// ComponentActivationElems returns the number of activation elements stashed
// by one component during the forward pass for use in its backward pass,
// reproducing the Activation row of paper Table 1. The total over all
// components is 16*b*s*h.
func (c Config) ComponentActivationElems(comp Component, sh Shape) int64 {
	bsh := sh.Tokens() * int64(c.Hidden)
	switch comp {
	case CompLayerNorm1, CompQKV, CompOProj, CompLayerNorm2, CompLinear1:
		return bsh
	case CompAttention:
		// flash attention stashes its input/output and softmax statistics,
		// rounded to 3bsh per Table 1.
		return 3 * bsh
	case CompGeLU, CompLinear2:
		return 4 * bsh
	default:
		return 0
	}
}

// ComponentParams returns the parameter element count of one component,
// reproducing the "Model parameters" row of paper Table 1.
func (c Config) ComponentParams(comp Component) int64 {
	h := int64(c.Hidden)
	switch comp {
	case CompLayerNorm1, CompLayerNorm2:
		return 2 * h
	case CompQKV:
		return 3 * h * h
	case CompOProj:
		return h * h
	case CompLinear1, CompLinear2:
		return 4 * h * h
	default:
		return 0
	}
}

// SegmentFLOPs returns the matrix FLOPs of a whole layer segment for a pass.
func (c Config) SegmentFLOPs(seg Segment, pass Pass, sh Shape) float64 {
	var total float64
	for _, comp := range Components {
		if comp.Segment() == seg {
			total += c.ComponentFLOPs(comp, pass, sh)
		}
	}
	return total
}

// SegmentVectorElems returns the bandwidth-bound element traffic of a whole
// layer segment for a pass.
func (c Config) SegmentVectorElems(seg Segment, pass Pass, sh Shape) int64 {
	var total int64
	for _, comp := range Components {
		if comp.Segment() == seg {
			total += c.ComponentVectorElems(comp, pass, sh)
		}
	}
	return total
}

// SegmentActivationElems returns the activation elements stashed by a whole
// layer segment during the forward pass.
func (c Config) SegmentActivationElems(seg Segment, sh Shape) int64 {
	var total int64
	for _, comp := range Components {
		if comp.Segment() == seg {
			total += c.ComponentActivationElems(comp, sh)
		}
	}
	return total
}

// SegmentParams returns the parameter element count of a layer segment.
func (c Config) SegmentParams(seg Segment) int64 {
	var total int64
	for _, comp := range Components {
		if comp.Segment() == seg {
			total += c.ComponentParams(comp)
		}
	}
	return total
}

// LayerFLOPs returns the matrix FLOPs of one full transformer layer for a
// pass. For the forward pass this is 4bsh(6h+s), for backward-B 4bsh(6h+2s)
// and for backward-W 4bsh*6h, matching the Total column of paper Table 1.
func (c Config) LayerFLOPs(pass Pass, sh Shape) float64 {
	return c.SegmentFLOPs(SegPre, pass, sh) +
		c.SegmentFLOPs(SegAttn, pass, sh) +
		c.SegmentFLOPs(SegPost, pass, sh)
}

// LayerActivationElems returns the activation elements stashed by one full
// layer during the forward pass: 16*b*s*h (paper Table 1, Total column).
func (c Config) LayerActivationElems(sh Shape) int64 {
	return c.SegmentActivationElems(SegPre, sh) +
		c.SegmentActivationElems(SegAttn, sh) +
		c.SegmentActivationElems(SegPost, sh)
}

// HelixStashElems returns the activation elements stashed per layer under
// the paper's recomputation-without-attention strategy (section 4.4.1):
// roughly 2bsh for the flash-attention input/output plus 2bsh for the
// combined pre/post-attention unit inputs, i.e. 4bsh in total.
func (c Config) HelixStashElems(sh Shape) int64 {
	return 4 * sh.Tokens() * int64(c.Hidden)
}

// EmbeddingFLOPs returns the matrix FLOPs of the LM head projection
// (logits = X * E^T, 2*b*s*h*V) for the forward pass and its backward
// counterparts. The input embedding lookup is bandwidth bound and costs no
// matrix FLOPs.
func (c Config) EmbeddingFLOPs(pass Pass, sh Shape) float64 {
	f := 2 * float64(sh.Tokens()) * float64(c.Hidden) * float64(c.Vocab)
	switch pass {
	case Forward:
		return f
	case BackwardB:
		return f
	case BackwardW:
		return f
	}
	return 0
}

// LogitsElems returns the b*s*V element count of the LM-head logits tensor,
// the activation the paper's section 4.6 avoids stashing by deferring the
// next-token prediction into the backward pass.
func (c Config) LogitsElems(sh Shape) int64 {
	return sh.Tokens() * int64(c.Vocab)
}

// StashFreedAt returns the backward pass after which a component's stashed
// activation can be released: parameterized components keep their input
// until backward-W has consumed it, while non-parameterized components
// (attention core, GeLU) release at backward-B. Zero bubble schedules defer
// backward-W, so this split determines how much memory the deferral holds.
func (c Config) StashFreedAt(comp Component) Pass {
	if c.ComponentParams(comp) > 0 {
		return BackwardW
	}
	return BackwardB
}

// SegmentStashFreedBy returns the activation elements of a segment released
// by the given backward pass (BackwardB or BackwardW). The two passes
// together release the segment's full stash.
func (c Config) SegmentStashFreedBy(seg Segment, pass Pass, sh Shape) int64 {
	var total int64
	for _, comp := range Components {
		if comp.Segment() == seg && c.StashFreedAt(comp) == pass {
			total += c.ComponentActivationElems(comp, sh)
		}
	}
	return total
}

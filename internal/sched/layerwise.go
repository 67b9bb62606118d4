package sched

import (
	"repro/internal/model"
)

// This file implements the layer-wise baselines: the model is partitioned
// into contiguous layer chunks and micro batches flow chunk to chunk. Each
// chunk is a virtual stage, chunk vs running on stage vs mod p, so one set of
// emitters serves one chunk per stage (GPipe and 1F1B here; ZB1P, ZB2P and
// AdaPipe in their own files) and two per stage (interleaved 1F1B) alike.

// layerwise accumulates per-stage programs for chunked layer partitions.
type layerwise struct {
	cfg   Config
	costs Costs
	// first[vs] is chunk vs's first layer: the chunk owns layers
	// [first[vs], first[vs+1]), so len(first) is the chunk count plus one.
	first []int
	// recomp[vs] is the number of the chunk's last layers that are fully
	// recomputed in its backward steps (AdaPipe).
	recomp []int
	out    *Plan
}

// evenChunks partitions L layers into n contiguous equal chunks, returned as
// chunk boundaries (layerwise.first).
func evenChunks(layers, n int) []int {
	first := make([]int, n+1)
	for vs := range first {
		first[vs] = vs * (layers / n)
	}
	return first
}

// chunksFromSizes partitions layers into contiguous chunks of the given
// sizes (which must sum to the layer count), returned as chunk boundaries.
func chunksFromSizes(sizes []int) []int {
	first := make([]int, len(sizes)+1)
	for vs, n := range sizes {
		first[vs+1] = first[vs] + n
	}
	return first
}

// newLayerwise prepares a builder over the chunks first delimits, chunk vs
// recomputing its last recomp[vs] layers (nil: none). Whatever the emission
// order, chunk vs emits 4 + 8·n + 3·r ops per micro batch (n layers, r of
// them recomputed), so every stage program is allocated once, at its exact
// length (NewPlan). emit appends whole ops, so a slab recycled from another
// plan needs no clearing.
func newLayerwise(cfg Config, costs Costs, first, recomp []int) *layerwise {
	if recomp == nil {
		recomp = make([]int, len(first)-1)
	}
	lengths := make([]int, cfg.Stages)
	for vs, r := range recomp {
		lengths[vs%cfg.Stages] += cfg.MicroBatches * (4 + 8*(first[vs+1]-first[vs]) + 3*r)
	}
	return &layerwise{cfg: cfg, costs: costs, first: first, recomp: recomp, out: NewPlan(cfg, costs, lengths)}
}

func (lw *layerwise) emit(stage int, op Op) { lw.out.Ops[stage] = append(lw.out.Ops[stage], op) }

// lastChunk returns the index of the chunk holding the model's last layers.
func (lw *layerwise) lastChunk() int { return len(lw.first) - 2 }

// emitFStep emits the full forward step of one micro batch through chunk vs:
// receive the boundary activation (or embed in chunk 0), run every chunk
// layer segment by segment, and forward the result to the next chunk. A
// boundary's tag names the first layer of the chunk it enters, which is
// unique per boundary however many chunks a stage owns. Costs come from the
// micro batch's own book, so variable-length micro batches get
// shape-correct durations, stashes and message volumes.
func (lw *layerwise) emitFStep(vs, mb int) {
	p := lw.cfg.Stages
	stage, lo, hi := vs%p, lw.first[vs], lw.first[vs+1]
	c := lw.costs.StageMB(stage, mb)
	m := int32(mb)
	if vs == 0 {
		lw.emit(stage, Op{Kind: KForward, MB: m, Layer: LayerEmbed, Dur: c.EmbedF})
	} else {
		lw.emit(stage, Op{Kind: KRecv, MB: m, Peer: int32((vs - 1) % p),
			Tag: Tag{MB: m, Layer: int32(lo), Bound: BoundAct}})
	}
	for layer := lo; layer < hi; layer++ {
		rec := layer >= hi-lw.recomp[vs]
		for _, seg := range model.Segments {
			op := Op{Kind: KForward, MB: m, Layer: int32(layer), Seg: seg, Dur: c.segDur(seg, KForward)}
			switch {
			case rec && seg == model.SegPre:
				op.Alloc = c.InputStash // keep only the layer input
			case rec:
				op.Alloc = 0
			default:
				op.Alloc = c.SegStash[seg]
			}
			lw.emit(stage, op)
		}
	}
	if vs < lw.lastChunk() {
		lw.emit(stage, Op{Kind: KSend, MB: m, Peer: int32((vs + 1) % p),
			Tag:   Tag{MB: m, Layer: int32(hi), Bound: BoundAct},
			Bytes: c.BoundBytes[BoundAct]})
	}
}

// emitBStep emits the backward step of one micro batch through chunk vs:
// receive the gradient (or run the deferred head forward+loss+backward in
// the last chunk), walk the chunk layers in reverse with backward-B,
// optionally emitting the weight gradients in place (withW), and send the
// boundary gradient to the previous chunk. With withW false the caller is
// responsible for scheduling the corresponding W ops later (ZB1P).
func (lw *layerwise) emitBStep(vs, mb int, withW bool) {
	p := lw.cfg.Stages
	stage, lo, hi := vs%p, lw.first[vs], lw.first[vs+1]
	c := lw.costs.StageMB(stage, mb)
	m := int32(mb)
	if vs == lw.lastChunk() {
		// Section 4.6: the LM-head forward and loss run inside the backward
		// pass, so no [s,b,V] logits tensor is ever stashed. The head input
		// and output gradient live until the head's backward-W.
		lw.emit(stage, Op{Kind: KBackwardB, MB: m, Layer: LayerHead, Dur: c.HeadFB, Alloc: c.EmbedGradStash})
		if withW {
			lw.emit(stage, Op{Kind: KBackwardW, MB: m, Layer: LayerHead, Dur: c.HeadW, Free: c.EmbedGradStash})
		}
	} else {
		lw.emit(stage, Op{Kind: KRecv, MB: m, Peer: int32((vs + 1) % p),
			Tag: Tag{MB: m, Layer: int32(hi), Bound: BoundAct, Back: true}})
	}
	for layer := hi - 1; layer >= lo; layer-- {
		if layer >= hi-lw.recomp[vs] {
			// Full-layer recomputation (AdaPipe style): regenerate all three
			// segment stashes from the retained layer input, one op per
			// segment so the numeric executor can replay it faithfully.
			for _, seg := range model.Segments {
				alloc := c.SegStash[seg]
				if seg == model.SegPre {
					alloc -= c.InputStash
				}
				lw.emit(stage, Op{Kind: KRecompute, MB: m, Layer: int32(layer), Seg: seg,
					Dur: c.SegRecompute[seg], Alloc: alloc})
			}
		}
		for s := len(model.Segments) - 1; s >= 0; s-- {
			seg := model.Segments[s]
			lw.emit(stage, Op{Kind: KBackwardB, MB: m, Layer: int32(layer), Seg: seg,
				Dur: c.segDur(seg, KBackwardB), Free: c.SegStashBFree[seg]})
			if withW && seg != model.SegAttn {
				lw.emit(stage, Op{Kind: KBackwardW, MB: m, Layer: int32(layer), Seg: seg,
					Dur: c.segDur(seg, KBackwardW), Free: c.SegStashWFree[seg]})
			}
		}
	}
	if vs == 0 {
		if withW {
			lw.emit(stage, Op{Kind: KBackwardW, MB: m, Layer: LayerEmbed, Dur: c.EmbedW})
		}
	} else {
		lw.emit(stage, Op{Kind: KSend, MB: m, Peer: int32((vs - 1) % p),
			Tag:   Tag{MB: m, Layer: int32(lo), Bound: BoundAct, Back: true},
			Bytes: c.BoundBytes[BoundAct]})
	}
}

// emitWStep emits the deferred weight-gradient ops of one (micro batch,
// layer) unit on a stage: post then pre, in the order ZB1P fills bubbles
// with.
func (lw *layerwise) emitWStep(stage, mb, layer int) {
	c := lw.costs.StageMB(stage, mb)
	for _, seg := range []model.Segment{model.SegPost, model.SegPre} {
		lw.emit(stage, Op{Kind: KBackwardW, MB: int32(mb), Layer: int32(layer), Seg: seg,
			Dur: c.segDur(seg, KBackwardW), Free: c.SegStashWFree[seg]})
	}
}

// wStepDur returns the duration of one emitWStep for one micro batch on one
// stage.
func (lw *layerwise) wStepDur(stage, mb int) float64 {
	c := lw.costs.StageMB(stage, mb)
	return c.segDur(model.SegPost, KBackwardW) + c.segDur(model.SegPre, KBackwardW)
}

// fStepDur returns the compute duration of one emitFStep.
func (lw *layerwise) fStepDur(vs, mb int) float64 {
	c := lw.costs.StageMB(vs%lw.cfg.Stages, mb)
	d := float64(lw.first[vs+1]-lw.first[vs]) * c.layerDur(KForward)
	if vs == 0 {
		d += c.EmbedF
	}
	return d
}

// bStepDur returns the compute duration of one emitBStep of a chunk without
// recomputation. The fused step (withW) is priced as a product of the layer
// count and the deferred one as a running sum; the two forms round
// differently, and the list scheduler breaks start-time ties on the exact
// values, so each keeps the form its schedule was calibrated with.
func (lw *layerwise) bStepDur(vs, mb int, withW bool) float64 {
	c := lw.costs.StageMB(vs%lw.cfg.Stages, mb)
	last, n := vs == lw.lastChunk(), lw.first[vs+1]-lw.first[vs]
	if withW {
		d := float64(n) * (c.layerDur(KBackwardB) + c.segDur(model.SegPre, KBackwardW) + c.segDur(model.SegPost, KBackwardW))
		if last {
			d += c.HeadFB + c.HeadW
		}
		if vs == 0 {
			d += c.EmbedW
		}
		return d
	}
	d := 0.0
	if last {
		d += c.HeadFB
	}
	for i := 0; i < n; i++ {
		d += c.layerDur(KBackwardB)
	}
	return d
}

func (lw *layerwise) plan(method Method) *Plan {
	lw.out.Method = method
	return lw.out
}

// GPipe builds the GPipe schedule: all forward passes in micro-batch order,
// then all backward passes in reverse (first-in-last-out), weight gradients
// in place. Referenced by the paper's related work as the original FILO
// pipeline with layer-wise partitioning.
func GPipe(cfg Config, costs Costs) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lw := newLayerwise(cfg, costs, evenChunks(cfg.Layers, cfg.Stages), nil)
	for s := 0; s < cfg.Stages; s++ {
		for mb := 0; mb < cfg.MicroBatches; mb++ {
			lw.emitFStep(s, mb)
		}
		for mb := cfg.MicroBatches - 1; mb >= 0; mb-- {
			lw.emitBStep(s, mb, true)
		}
	}
	return lw.plan(MethodGPipe), nil
}

// OneFOneB builds the 1F1B schedule of PipeDream/DAPPLE as deployed by
// Megatron-LM: stage i warms up with p-1-i forward passes, then alternates
// one-forward-one-backward, then drains. Weight gradients run fused with
// backward-B (paper section 2.3.1).
func OneFOneB(cfg Config, costs Costs) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return oneFOneBOn(newLayerwise(cfg, costs, evenChunks(cfg.Layers, cfg.Stages), nil)), nil
}

// oneFOneBOn runs the canonical 1F1B emission order on a prepared layerwise
// builder with one chunk per stage (shared with AdaPipe, which changes the
// chunk sizes and recompute counts).
func oneFOneBOn(lw *layerwise) *Plan {
	cfg := lw.cfg
	for s := 0; s < cfg.Stages; s++ {
		warmup := cfg.Stages - 1 - s
		if warmup > cfg.MicroBatches {
			warmup = cfg.MicroBatches
		}
		for mb := 0; mb < warmup; mb++ {
			lw.emitFStep(s, mb)
		}
		for mb := warmup; mb < cfg.MicroBatches; mb++ {
			lw.emitFStep(s, mb)
			lw.emitBStep(s, mb-warmup, true)
		}
		for mb := cfg.MicroBatches - warmup; mb < cfg.MicroBatches; mb++ {
			lw.emitBStep(s, mb, true)
		}
	}
	return lw.plan(Method1F1B)
}

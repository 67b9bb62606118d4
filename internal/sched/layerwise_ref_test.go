package sched

// This file keeps the layer-wise builders exactly as they stood before the
// six layer-wise methods shared one set of emitters over virtual stages and
// one list scheduler: GPipe and 1F1B on per-stage chunk tables with
// per-stage recompute maps, ZB1P and ZB2P on their own list scheduler, and
// interleaved 1F1B with private emitters, step durations and scheduler. It
// is the reference oracle of TestLayerwiseMatchesReference. It differs from
// the original only in its names (a ref prefix on every function and type it
// declares) and in dropping Tag.Chunk, which no consumer read: every chunk
// boundary's first layer already makes each tag unique.

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// This file implements the layer-wise baselines: the model is partitioned
// into contiguous layer chunks, one per stage, and micro batches flow
// stage-to-stage (GPipe and 1F1B here; ZB1P and AdaPipe build on the same
// emit helpers in their own files).

// layerwise accumulates per-stage programs for chunked layer partitions.
type refLayerwise struct {
	cfg    Config
	costs  Costs
	chunks [][]int        // chunks[stage] lists the stage's layer indices
	recomp []map[int]bool // recomp[stage][layer]: fully recompute that layer
	ops    [][]Op
}

// evenChunks partitions L layers into p contiguous equal chunks.
func refEvenChunks(layers, stages int) [][]int {
	per := layers / stages
	chunks := make([][]int, stages)
	next := 0
	for s := range chunks {
		for i := 0; i < per; i++ {
			chunks[s] = append(chunks[s], next)
			next++
		}
	}
	return chunks
}

// chunksFromSizes partitions layers into contiguous chunks of the given
// sizes (which must sum to the layer count).
func refChunksFromSizes(sizes []int) [][]int {
	chunks := make([][]int, len(sizes))
	next := 0
	for s, n := range sizes {
		for i := 0; i < n; i++ {
			chunks[s] = append(chunks[s], next)
			next++
		}
	}
	return chunks
}

func newRefLayerwise(cfg Config, costs Costs, chunks [][]int) *refLayerwise {
	lw := &refLayerwise{
		cfg:    cfg,
		costs:  costs,
		chunks: chunks,
		recomp: make([]map[int]bool, cfg.Stages),
		ops:    make([][]Op, cfg.Stages),
	}
	for s := range lw.recomp {
		lw.recomp[s] = map[int]bool{}
	}
	return lw
}

func (lw *refLayerwise) emit(stage int, op Op) { lw.ops[stage] = append(lw.ops[stage], op) }

// inBoundaryLayer returns the layer identifying the activation boundary
// entering the stage (the first layer of its chunk).
func (lw *refLayerwise) inBoundaryLayer(stage int) int { return lw.chunks[stage][0] }

// emitFStep emits the full forward step of one micro batch on one stage:
// receive the boundary activation (or embed on stage 0), run every chunk
// layer segment by segment, and forward the result downstream. Costs come
// from the micro batch's own book, so variable-length micro batches get
// shape-correct durations, stashes and message volumes.
func (lw *refLayerwise) emitFStep(stage, mb int) {
	c := lw.costs.StageMB(stage, mb)
	if stage == 0 {
		lw.emit(stage, Op{Kind: KForward, MB: int32(mb), Layer: LayerEmbed, Dur: c.EmbedF})
	} else {
		lw.emit(stage, Op{Kind: KRecv, MB: int32(mb), Peer: int32(stage - 1),
			Tag: Tag{MB: int32(mb), Layer: int32(lw.inBoundaryLayer(stage)), Bound: BoundAct}})
	}
	for _, layer := range lw.chunks[stage] {
		rec := lw.recomp[stage][layer]
		for _, seg := range model.Segments {
			op := Op{Kind: KForward, MB: int32(mb), Layer: int32(layer), Seg: seg, Dur: c.SegDur(seg, KForward)}
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
	if stage < lw.cfg.Stages-1 {
		lw.emit(stage, Op{Kind: KSend, MB: int32(mb), Peer: int32(stage + 1),
			Tag:   Tag{MB: int32(mb), Layer: int32(lw.inBoundaryLayer(stage + 1)), Bound: BoundAct},
			Bytes: c.BoundBytes[BoundAct]})
	}
}

// emitBStep emits the backward step of one micro batch: receive the gradient
// (or run the deferred head forward+loss+backward on the last stage), walk
// the chunk layers in reverse with backward-B, optionally emitting the
// weight gradients in place (withW), and send the boundary gradient
// upstream. With withW false the caller is responsible for scheduling the
// corresponding W ops later (ZB1P).
func (lw *refLayerwise) emitBStep(stage, mb int, withW bool) {
	c := lw.costs.StageMB(stage, mb)
	last := lw.cfg.Stages - 1
	if stage == last {
		// Section 4.6: the LM-head forward and loss run inside the backward
		// pass, so no [s,b,V] logits tensor is ever stashed. The head input
		// and output gradient live until the head's backward-W.
		lw.emit(stage, Op{Kind: KBackwardB, MB: int32(mb), Layer: LayerHead, Dur: c.HeadFB, Alloc: c.EmbedGradStash})
		if withW {
			lw.emit(stage, Op{Kind: KBackwardW, MB: int32(mb), Layer: LayerHead, Dur: c.HeadW, Free: c.EmbedGradStash})
		}
	} else {
		lw.emit(stage, Op{Kind: KRecv, MB: int32(mb), Peer: int32(stage + 1),
			Tag: Tag{MB: int32(mb), Layer: int32(lw.inBoundaryLayer(stage + 1)), Bound: BoundAct, Back: true}})
	}
	for i := len(lw.chunks[stage]) - 1; i >= 0; i-- {
		layer := lw.chunks[stage][i]
		if lw.recomp[stage][layer] {
			// Full-layer recomputation (AdaPipe style): regenerate all three
			// segment stashes from the retained layer input, one op per
			// segment so the numeric executor can replay it faithfully.
			for _, seg := range model.Segments {
				alloc := c.SegStash[seg]
				if seg == model.SegPre {
					alloc -= c.InputStash
				}
				lw.emit(stage, Op{Kind: KRecompute, MB: int32(mb), Layer: int32(layer), Seg: seg,
					Dur: c.SegRecompute[seg], Alloc: alloc})
			}
		}
		for s := len(model.Segments) - 1; s >= 0; s-- {
			seg := model.Segments[s]
			lw.emit(stage, Op{Kind: KBackwardB, MB: int32(mb), Layer: int32(layer), Seg: seg,
				Dur: c.SegDur(seg, KBackwardB), Free: c.SegStashBFree[seg]})
			if withW && seg != model.SegAttn {
				lw.emit(stage, Op{Kind: KBackwardW, MB: int32(mb), Layer: int32(layer), Seg: seg,
					Dur: c.SegDur(seg, KBackwardW), Free: c.SegStashWFree[seg]})
			}
		}
	}
	if stage == 0 {
		if withW {
			lw.emit(stage, Op{Kind: KBackwardW, MB: int32(mb), Layer: LayerEmbed, Dur: c.EmbedW})
		}
	} else {
		lw.emit(stage, Op{Kind: KSend, MB: int32(mb), Peer: int32(stage - 1),
			Tag:   Tag{MB: int32(mb), Layer: int32(lw.inBoundaryLayer(stage)), Bound: BoundAct, Back: true},
			Bytes: c.BoundBytes[BoundAct]})
	}
}

// emitWStep emits the deferred weight-gradient ops of one (micro batch,
// layer) unit: post then pre, in the order ZB1P fills bubbles with.
func (lw *refLayerwise) emitWStep(stage, mb, layer int) {
	c := lw.costs.StageMB(stage, mb)
	for _, seg := range []model.Segment{model.SegPost, model.SegPre} {
		lw.emit(stage, Op{Kind: KBackwardW, MB: int32(mb), Layer: int32(layer), Seg: seg,
			Dur: c.SegDur(seg, KBackwardW), Free: c.SegStashWFree[seg]})
	}
}

// wStepDur returns the duration of one emitWStep for one micro batch on one
// stage.
func (lw *refLayerwise) wStepDur(stage, mb int) float64 {
	c := lw.costs.StageMB(stage, mb)
	return c.SegDur(model.SegPost, KBackwardW) + c.SegDur(model.SegPre, KBackwardW)
}

// fStepDur returns the duration of one emitFStep's compute on a stage.
func (lw *refLayerwise) fStepDur(stage, mb int) float64 {
	c := lw.costs.StageMB(stage, mb)
	d := 0.0
	if stage == 0 {
		d += c.EmbedF
	}
	d += float64(len(lw.chunks[stage])) * c.LayerDur(KForward)
	return d
}

// bStepDur returns the duration of one emitBStep's compute on a stage.
func (lw *refLayerwise) bStepDur(stage, mb int, withW bool) float64 {
	c := lw.costs.StageMB(stage, mb)
	d := 0.0
	if stage == lw.cfg.Stages-1 {
		d += c.HeadFB
		if withW {
			d += c.HeadW
		}
	}
	for _, layer := range lw.chunks[stage] {
		if lw.recomp[stage][layer] {
			d += c.SegRecompute[model.SegPre] + c.SegRecompute[model.SegAttn] + c.SegRecompute[model.SegPost]
		}
		d += c.LayerDur(KBackwardB)
		if withW {
			d += c.SegDur(model.SegPre, KBackwardW) + c.SegDur(model.SegPost, KBackwardW)
		}
	}
	if stage == 0 && withW {
		d += c.EmbedW
	}
	return d
}

func (lw *refLayerwise) plan(method Method) *Plan {
	return &Plan{
		Method:       method,
		Stages:       lw.cfg.Stages,
		MicroBatches: lw.cfg.MicroBatches,
		Layers:       lw.cfg.Layers,
		Ops:          lw.ops,
		Costs:        lw.costs,
		Batch:        lw.cfg.Batch,
	}
}

// GPipe builds the GPipe schedule: all forward passes in micro-batch order,
// then all backward passes in reverse (first-in-last-out), weight gradients
// in place. Referenced by the paper's related work as the original FILO
// pipeline with layer-wise partitioning.
func refGPipe(cfg Config, costs Costs) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lw := newRefLayerwise(cfg, costs, refEvenChunks(cfg.Layers, cfg.Stages))
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
func refOneFOneB(cfg Config, costs Costs) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return refOneFOneBOn(newRefLayerwise(cfg, costs, refEvenChunks(cfg.Layers, cfg.Stages))), nil
}

// oneFOneBOn runs the canonical 1F1B emission order on a prepared layerwise
// builder (shared with AdaPipe, which changes chunks and recompute sets).
func refOneFOneBOn(lw *refLayerwise) *Plan {
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

// Local aliases keeping the emit code compact.
const (
	segPre  = model.SegPre
	segAttn = model.SegAttn
	segPost = model.SegPost
)

var segsFwd = []model.Segment{segPre, segAttn, segPost}

// interleavedGeometry checks an interleaved configuration and returns its
// virtual pipeline depth p*chunks. One stage is rejected: every chunk
// boundary would be a send to the stage itself.
func refInterleavedGeometry(cfg Config, chunks int) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if cfg.Stages < 2 {
		return 0, fmt.Errorf("sched: interleaved 1F1B needs at least 2 stages, got %d", cfg.Stages)
	}
	if chunks < 1 {
		return 0, fmt.Errorf("sched: interleaved chunks must be >= 1, got %d", chunks)
	}
	v := cfg.Stages * chunks
	if cfg.Layers%v != 0 {
		return 0, fmt.Errorf("sched: layers (%d) must divide into %d virtual stages", cfg.Layers, v)
	}
	return v, nil
}

// Interleaved builds the interleaved-1F1B schedule of Megatron-LM (paper
// section 6.2): instead of one contiguous chunk, every stage owns `chunks`
// smaller model chunks spread across the depth, shrinking the pipeline fill
// bubble by the chunk factor at the price of chunks-times more p2p traffic
// and a demand for many micro batches. The paper excludes it from its main
// experiments for exactly that reason ("it requires extensive micro batches
// to saturate the pipeline"); we implement it as an ablation baseline.
//
// The generator treats the p*chunks model chunks as virtual pipeline stages
// and list-schedules them onto the physical stages with the same
// deterministic earliest-start policy as ZB1P, with fused backward (B+W)
// like 1F1B and a 1F1B-style in-flight cap per virtual stage. It needs at
// least two stages.
func refInterleaved(cfg Config, costs Costs, chunks int) (*Plan, error) {
	v, err := refInterleavedGeometry(cfg, chunks)
	if err != nil {
		return nil, err
	}
	p, m := cfg.Stages, cfg.MicroBatches
	layersPer := cfg.Layers / v

	// Virtual stage vs runs on physical stage vs%%p and owns layers
	// [vs*layersPer, (vs+1)*layersPer).
	physOf := func(vs int) int { return vs % p }
	firstLayer := func(vs int) int { return vs * layersPer }

	lw := newRefLayerwise(cfg, costs, refEvenChunks(cfg.Layers, p)) // chunk table unused; ops emitted manually

	emitVF := func(vs, mb int) {
		phys := physOf(vs)
		c := costs.StageMB(phys, mb)
		if vs == 0 {
			lw.emit(phys, Op{Kind: KForward, MB: int32(mb), Layer: LayerEmbed, Dur: c.EmbedF})
		} else {
			lw.emit(phys, Op{Kind: KRecv, MB: int32(mb), Peer: int32(physOf(vs - 1)),
				Tag: Tag{MB: int32(mb), Layer: int32(firstLayer(vs)), Bound: BoundAct}})
		}
		for i := 0; i < layersPer; i++ {
			layer := firstLayer(vs) + i
			for _, seg := range segsFwd {
				lw.emit(phys, Op{Kind: KForward, MB: int32(mb), Layer: int32(layer), Seg: seg,
					Dur: c.SegDur(seg, KForward), Alloc: c.SegStash[seg]})
			}
		}
		if vs < v-1 {
			lw.emit(phys, Op{Kind: KSend, MB: int32(mb), Peer: int32(physOf(vs + 1)),
				Tag:   Tag{MB: int32(mb), Layer: int32(firstLayer(vs + 1)), Bound: BoundAct},
				Bytes: c.BoundBytes[BoundAct]})
		}
	}
	emitVB := func(vs, mb int) {
		phys := physOf(vs)
		c := costs.StageMB(phys, mb)
		if vs == v-1 {
			lw.emit(phys, Op{Kind: KBackwardB, MB: int32(mb), Layer: LayerHead, Dur: c.HeadFB, Alloc: c.EmbedGradStash})
			lw.emit(phys, Op{Kind: KBackwardW, MB: int32(mb), Layer: LayerHead, Dur: c.HeadW, Free: c.EmbedGradStash})
		} else {
			lw.emit(phys, Op{Kind: KRecv, MB: int32(mb), Peer: int32(physOf(vs + 1)),
				Tag: Tag{MB: int32(mb), Layer: int32(firstLayer(vs + 1)), Bound: BoundAct, Back: true}})
		}
		for i := layersPer - 1; i >= 0; i-- {
			layer := firstLayer(vs) + i
			for s := len(segsFwd) - 1; s >= 0; s-- {
				seg := segsFwd[s]
				lw.emit(phys, Op{Kind: KBackwardB, MB: int32(mb), Layer: int32(layer), Seg: seg,
					Dur: c.SegDur(seg, KBackwardB), Free: c.SegStashBFree[seg]})
				if seg != segAttn {
					lw.emit(phys, Op{Kind: KBackwardW, MB: int32(mb), Layer: int32(layer), Seg: seg,
						Dur: c.SegDur(seg, KBackwardW), Free: c.SegStashWFree[seg]})
				}
			}
		}
		if vs == 0 {
			lw.emit(phys, Op{Kind: KBackwardW, MB: int32(mb), Layer: LayerEmbed, Dur: c.EmbedW})
		} else {
			lw.emit(phys, Op{Kind: KSend, MB: int32(mb), Peer: int32(physOf(vs - 1)),
				Tag:   Tag{MB: int32(mb), Layer: int32(firstLayer(vs)), Bound: BoundAct, Back: true},
				Bytes: c.BoundBytes[BoundAct]})
		}
	}

	vfDur := func(vs, mb int) float64 {
		c := costs.StageMB(physOf(vs), mb)
		d := float64(layersPer) * c.LayerDur(KForward)
		if vs == 0 {
			d += c.EmbedF
		}
		return d
	}
	vbDur := func(vs, mb int) float64 {
		c := costs.StageMB(physOf(vs), mb)
		d := float64(layersPer) * (c.LayerDur(KBackwardB) + c.SegDur(segPre, KBackwardW) + c.SegDur(segPost, KBackwardW))
		if vs == v-1 {
			d += c.HeadFB + c.HeadW
		}
		if vs == 0 {
			d += c.EmbedW
		}
		return d
	}

	// Deterministic earliest-start list scheduling over virtual stages.
	const inf = math.MaxFloat64
	fArr := make([][]float64, v)
	bArr := make([][]float64, v)
	fDone := make([][]float64, v)
	for vs := 0; vs < v; vs++ {
		fArr[vs] = make([]float64, m)
		bArr[vs] = make([]float64, m)
		fDone[vs] = make([]float64, m)
		for j := 0; j < m; j++ {
			if vs != 0 {
				fArr[vs][j] = inf
			}
			bArr[vs][j] = inf
			fDone[vs][j] = inf
		}
	}
	clock := make([]float64, p)
	fNext := make([]int, v)
	bNext := make([]int, v)

	// cap limits in-flight micro batches per virtual stage, mirroring
	// Megatron's interleaved warmup depth.
	inflightCap := func(vs int) int {
		c := v - vs
		if c < 1 {
			c = 1
		}
		return c
	}

	type cand struct {
		vs    int
		back  bool
		start float64
	}
	pick := func(phys int) (cand, bool) {
		best := cand{start: inf}
		found := false
		for vs := phys; vs < v; vs += p {
			if j := bNext[vs]; j < m {
				ready := bArr[vs][j]
				if vs == v-1 {
					ready = fDone[vs][j]
				}
				if ready < inf {
					if t := math.Max(clock[phys], ready); t < best.start {
						best, found = cand{vs: vs, back: true, start: t}, true
					}
				}
			}
			if j := fNext[vs]; j < m && fNext[vs]-bNext[vs] < inflightCap(vs) {
				if ready := fArr[vs][j]; ready < inf {
					if t := math.Max(clock[phys], ready); t < best.start {
						best, found = cand{vs: vs, back: false, start: t}, true
					}
				}
			}
		}
		return best, found
	}

	for {
		bestPhys, best := -1, cand{start: inf}
		for phys := 0; phys < p; phys++ {
			if c, ok := pick(phys); ok && c.start < best.start {
				bestPhys, best = phys, c
			}
		}
		if bestPhys < 0 {
			break
		}
		vs := best.vs
		if best.back {
			j := bNext[vs]
			end := best.start + vbDur(vs, j)
			emitVB(vs, j)
			if vs > 0 {
				bArr[vs-1][j] = end + costs.P2PTime(costs.MB(j).BoundBytes[BoundAct])
			}
			bNext[vs]++
			clock[bestPhys] = end
		} else {
			j := fNext[vs]
			end := best.start + vfDur(vs, j)
			emitVF(vs, j)
			fDone[vs][j] = end
			if vs < v-1 {
				fArr[vs+1][j] = end + costs.P2PTime(costs.MB(j).BoundBytes[BoundAct])
			}
			fNext[vs]++
			clock[bestPhys] = end
		}
	}
	for vs := 0; vs < v; vs++ {
		if fNext[vs] != m || bNext[vs] != m {
			return nil, fmt.Errorf("sched: interleaved scheduling deadlocked at virtual stage %d", vs)
		}
	}
	plan := lw.plan(MethodInterleaved)
	return plan, nil
}

// ZB1P builds the zero-bubble pipeline schedule of Qi et al. (paper section
// 2.3.2): the backward pass is decoupled into backward-B and backward-W, and
// the weight gradients are delayed to fill pipeline bubbles. The original
// system combines a handcrafted schedule with an ILP-assisted heuristic to
// place backward-W under uneven F/B/W times; this generator reproduces that
// with deterministic cost-driven list scheduling — each stage greedily runs
// the ready action with the earliest start time, preferring backward-B over
// forward over weight gradients on ties, and falls back to pending weight
// gradients whenever it would otherwise idle.
//
// Memory follows Equation 4: forward admission is capped at p outstanding
// micro batches per stage (the 1F1B stage-0 worst case), and activations of
// parameterized components stay stashed until their deferred backward-W.
func refZB1P(cfg Config, costs Costs) (*Plan, error) {
	return refZeroBubble(cfg, costs, cfg.Stages, MethodZB1P)
}

// ZB2P builds the second zero-bubble variant the paper's footnote 1
// describes: it "costs more memory and involves optimizer modification" —
// the post-update synchronization barrier is bypassed so stages may admit
// up to 2p in-flight micro batches, trading activation memory for an even
// smaller bubble. We implement the schedule side (the doubled in-flight
// window); the optimizer-bypass itself has no effect inside a single
// simulated iteration.
func refZB2P(cfg Config, costs Costs) (*Plan, error) {
	return refZeroBubble(cfg, costs, 2*cfg.Stages, MethodZB2P)
}

// zeroBubble is the shared cost-driven list scheduler of ZB1P and ZB2P;
// inflightCap bounds forward admission per stage (p for ZB1P, matching
// Equation 4's 1F1B-equivalent memory; 2p for ZB2P).
func refZeroBubble(cfg Config, costs Costs, inflightCap int, method Method) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lw := newRefLayerwise(cfg, costs, refEvenChunks(cfg.Layers, cfg.Stages))
	p, m := cfg.Stages, cfg.MicroBatches
	const inf = math.MaxFloat64

	fArr := make([][]float64, p)  // arrival time of the forward input
	bArr := make([][]float64, p)  // arrival time of the gradient input
	fDone := make([][]float64, p) // completion time of the local forward
	for s := 0; s < p; s++ {
		fArr[s] = make([]float64, m)
		bArr[s] = make([]float64, m)
		fDone[s] = make([]float64, m)
		for j := 0; j < m; j++ {
			if s != 0 {
				fArr[s][j] = inf
			}
			bArr[s][j] = inf
			fDone[s][j] = inf
		}
	}

	type wUnit struct {
		mb, layer int // layer, or LayerHead / LayerEmbed
	}
	clock := make([]float64, p)
	fNext := make([]int, p)
	bNext := make([]int, p)
	wQ := make([][]wUnit, p)

	wUnitDur := func(s int, u wUnit) float64 {
		c := costs.StageMB(s, u.mb)
		switch u.layer {
		case LayerHead:
			return c.HeadW
		case LayerEmbed:
			return c.EmbedW
		default:
			return lw.wStepDur(s, u.mb)
		}
	}
	emitWUnit := func(s int, u wUnit) {
		c := costs.StageMB(s, u.mb)
		switch u.layer {
		case LayerHead:
			lw.emit(s, Op{Kind: KBackwardW, MB: int32(u.mb), Layer: LayerHead, Dur: c.HeadW, Free: c.EmbedGradStash})
		case LayerEmbed:
			lw.emit(s, Op{Kind: KBackwardW, MB: int32(u.mb), Layer: LayerEmbed, Dur: c.EmbedW})
		default:
			lw.emitWStep(s, u.mb, u.layer)
		}
	}

	type action int
	const (
		actNone action = iota
		actB
		actF
		actW
	)
	// nextAction returns the stage's best next action and its start time.
	nextAction := func(s int) (action, float64) {
		best, bestStart := actNone, inf
		if j := bNext[s]; j < m {
			ready := bArr[s][j]
			if s == p-1 {
				ready = fDone[s][j]
			}
			if ready < inf {
				if t := math.Max(clock[s], ready); t < bestStart {
					best, bestStart = actB, t
				}
			}
		}
		if j := fNext[s]; j < m && fNext[s]-bNext[s] < inflightCap {
			if ready := fArr[s][j]; ready < inf {
				if t := math.Max(clock[s], ready); t < bestStart {
					best, bestStart = actF, t
				}
			}
		}
		if len(wQ[s]) > 0 {
			if t := clock[s]; t < bestStart {
				best, bestStart = actW, t
			}
		}
		return best, bestStart
	}

	for {
		bestStage, bestAct, bestStart := -1, actNone, inf
		for s := 0; s < p; s++ {
			act, start := nextAction(s)
			if act != actNone && start < bestStart {
				bestStage, bestAct, bestStart = s, act, start
			}
		}
		if bestStage < 0 {
			break
		}
		s := bestStage
		switch bestAct {
		case actF:
			j := fNext[s]
			end := bestStart + lw.fStepDur(s, j)
			lw.emitFStep(s, j)
			fDone[s][j] = end
			if s < p-1 {
				fArr[s+1][j] = end + costs.P2PTime(costs.MB(j).BoundBytes[BoundAct])
			}
			fNext[s]++
			clock[s] = end
		case actB:
			j := bNext[s]
			end := bestStart + lw.bStepDur(s, j, false)
			lw.emitBStep(s, j, false)
			if s > 0 {
				bArr[s-1][j] = end + costs.P2PTime(costs.MB(j).BoundBytes[BoundAct])
			}
			bNext[s]++
			clock[s] = end
			// Enqueue the deferred weight gradients: head first (it ran
			// first in the backward step), then the chunk layers in the
			// backward order they were visited.
			if s == p-1 {
				wQ[s] = append(wQ[s], wUnit{mb: j, layer: LayerHead})
			}
			for i := len(lw.chunks[s]) - 1; i >= 0; i-- {
				wQ[s] = append(wQ[s], wUnit{mb: j, layer: lw.chunks[s][i]})
			}
			if s == 0 {
				wQ[s] = append(wQ[s], wUnit{mb: j, layer: LayerEmbed})
			}
		case actW:
			u := wQ[s][0]
			wQ[s] = wQ[s][1:]
			emitWUnit(s, u)
			clock[s] = bestStart + wUnitDur(s, u)
		}
	}

	for s := 0; s < p; s++ {
		if fNext[s] != m || bNext[s] != m || len(wQ[s]) != 0 {
			return nil, fmt.Errorf("sched: ZB1P scheduling deadlocked at stage %d (F %d/%d, B %d/%d, W pending %d)",
				s, fNext[s], m, bNext[s], m, len(wQ[s]))
		}
	}
	plan := lw.plan(method)
	return plan, nil
}

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
func refAdaPipe(cfg Config, costs Costs, memBudgetBytes int64) (*Plan, error) {
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
	worst := costs.MBCosts
	if len(costs.PerMB) > 0 {
		layerStash := func(c MBCosts) int64 {
			return c.SegStash[model.SegPre] + c.SegStash[model.SegAttn] + c.SegStash[model.SegPost]
		}
		worst = costs.PerMB[0]
		for mb := 1; mb < cfg.MicroBatches && mb < len(costs.PerMB); mb++ {
			if layerStash(costs.PerMB[mb]) > layerStash(worst) {
				worst = costs.PerMB[mb]
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

	lw := newRefLayerwise(cfg, costs, refChunksFromSizes(sizes))
	for s := 0; s < p; s++ {
		r, _ := minRecompute(sizes[s], p-s)
		// Recompute the last r layers of the chunk; the choice within the
		// chunk does not affect time or peak memory.
		for i := sizes[s] - r; i < sizes[s]; i++ {
			lw.recomp[s][lw.chunks[s][i]] = true
		}
	}
	plan := refOneFOneBOn(lw)
	plan.Method = MethodAdaPipe
	return plan, nil
}

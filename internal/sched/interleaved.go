package sched

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// Local aliases keeping the emit code compact.
const (
	segPre  = model.SegPre
	segAttn = model.SegAttn
	segPost = model.SegPost
)

var segsFwd = []model.Segment{segPre, segAttn, segPost}

// interleavedChunks resolves the model-chunk count of an interleaved build:
// the BuildParams value, or the default of 2.
func interleavedChunks(p BuildParams) int {
	if p.Chunks <= 0 {
		return 2
	}
	return p.Chunks
}

// interleavedGeometry checks an interleaved configuration and returns its
// virtual pipeline depth p*chunks. One stage is rejected: every chunk
// boundary would be a send to the stage itself.
func interleavedGeometry(cfg Config, chunks int) (int, error) {
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

// interleavedTraffic is the traffic matrix of the plan Interleaved builds:
// the layer-wise chain over p*chunks virtual stages, virtual stage vs on
// physical stage vs mod p.
func interleavedTraffic(cfg Config, costs Costs, chunks int) ([][]int64, error) {
	v, err := interleavedGeometry(cfg, chunks)
	if err != nil {
		return nil, err
	}
	return chainTraffic(cfg, costs, v), nil
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
func Interleaved(cfg Config, costs Costs, chunks int) (*Plan, error) {
	v, err := interleavedGeometry(cfg, chunks)
	if err != nil {
		return nil, err
	}
	p, m := cfg.Stages, cfg.MicroBatches
	layersPer := cfg.Layers / v

	// Virtual stage vs runs on physical stage vs%%p and owns layers
	// [vs*layersPer, (vs+1)*layersPer).
	physOf := func(vs int) int { return vs % p }
	firstLayer := func(vs int) int { return vs * layersPer }

	lw := newLayerwise(cfg, costs, evenChunks(cfg.Layers, p)) // chunk table unused; ops emitted manually

	emitVF := func(vs, mb int) {
		phys := physOf(vs)
		c := costs.StageMB(phys, mb)
		if vs == 0 {
			lw.emit(phys, Op{Kind: KForward, MB: mb, Layer: LayerEmbed, Dur: c.EmbedF})
		} else {
			lw.emit(phys, Op{Kind: KRecv, MB: mb, Peer: physOf(vs - 1),
				Tag: Tag{MB: mb, Layer: firstLayer(vs), Bound: BoundAct, Chunk: vs}})
		}
		for i := 0; i < layersPer; i++ {
			layer := firstLayer(vs) + i
			for _, seg := range segsFwd {
				lw.emit(phys, Op{Kind: KForward, MB: mb, Layer: layer, Seg: seg,
					Dur: c.SegDur(seg, KForward), Alloc: c.SegStash[seg]})
			}
		}
		if vs < v-1 {
			lw.emit(phys, Op{Kind: KSend, MB: mb, Peer: physOf(vs + 1),
				Tag:   Tag{MB: mb, Layer: firstLayer(vs + 1), Bound: BoundAct, Chunk: vs + 1},
				Bytes: c.BoundBytes[BoundAct]})
		}
	}
	emitVB := func(vs, mb int) {
		phys := physOf(vs)
		c := costs.StageMB(phys, mb)
		if vs == v-1 {
			lw.emit(phys, Op{Kind: KBackwardB, MB: mb, Layer: LayerHead, Dur: c.HeadFB, Alloc: c.EmbedGradStash})
			lw.emit(phys, Op{Kind: KBackwardW, MB: mb, Layer: LayerHead, Dur: c.HeadW, Free: c.EmbedGradStash})
		} else {
			lw.emit(phys, Op{Kind: KRecv, MB: mb, Peer: physOf(vs + 1),
				Tag: Tag{MB: mb, Layer: firstLayer(vs + 1), Bound: BoundAct, Back: true, Chunk: vs + 1}})
		}
		for i := layersPer - 1; i >= 0; i-- {
			layer := firstLayer(vs) + i
			for s := len(segsFwd) - 1; s >= 0; s-- {
				seg := segsFwd[s]
				lw.emit(phys, Op{Kind: KBackwardB, MB: mb, Layer: layer, Seg: seg,
					Dur: c.SegDur(seg, KBackwardB), Free: c.SegStashBFree[seg]})
				if seg != segAttn {
					lw.emit(phys, Op{Kind: KBackwardW, MB: mb, Layer: layer, Seg: seg,
						Dur: c.SegDur(seg, KBackwardW), Free: c.SegStashWFree[seg]})
				}
			}
		}
		if vs == 0 {
			lw.emit(phys, Op{Kind: KBackwardW, MB: mb, Layer: LayerEmbed, Dur: c.EmbedW})
		} else {
			lw.emit(phys, Op{Kind: KSend, MB: mb, Peer: physOf(vs - 1),
				Tag:   Tag{MB: mb, Layer: firstLayer(vs), Bound: BoundAct, Back: true, Chunk: vs},
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

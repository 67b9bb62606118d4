package sched

import (
	"fmt"
	"math"
)

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
func ZB1P(cfg Config, costs Costs) (*Plan, error) {
	return zeroBubble(cfg, costs, cfg.Stages, MethodZB1P)
}

// ZB2P builds the second zero-bubble variant the paper's footnote 1
// describes: it "costs more memory and involves optimizer modification" —
// the post-update synchronization barrier is bypassed so stages may admit
// up to 2p in-flight micro batches, trading activation memory for an even
// smaller bubble. We implement the schedule side (the doubled in-flight
// window); the optimizer-bypass itself has no effect inside a single
// simulated iteration.
func ZB2P(cfg Config, costs Costs) (*Plan, error) {
	return zeroBubble(cfg, costs, 2*cfg.Stages, MethodZB2P)
}

// zeroBubble list-schedules one chunk per stage with deferred weight
// gradients; inflight bounds forward admission per stage (p for ZB1P,
// matching Equation 4's 1F1B-equivalent memory; 2p for ZB2P).
func zeroBubble(cfg Config, costs Costs, inflight int, method Method) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lw := newLayerwise(cfg, costs, evenChunks(cfg.Layers, cfg.Stages), nil)
	if err := lw.listSchedule(func(int) int { return inflight }, true); err != nil {
		return nil, err
	}
	return lw.plan(method), nil
}

// listSchedule emits every chunk's forward and backward steps by
// deterministic earliest-start list scheduling, the policy ZB1P, ZB2P and
// interleaved 1F1B share. Each round, every stage offers its best next
// action: scanning its chunks in order, a chunk's next backward step, then
// its next forward step while fewer than inflight(vs) of the chunk's micro
// batches are between forward and backward, then (with deferW) the oldest
// weight gradient its backward steps left pending; a later candidate wins
// only by starting strictly earlier. The stage whose action starts earliest
// runs it, the lowest stage on ties. A step starts once its stage is free
// and its input has arrived, P2PTime of the micro batch's boundary after the
// neighbouring chunk finished. Without deferW, backward steps run their
// weight gradients fused. Chunks must not recompute (bStepDur).
func (lw *layerwise) listSchedule(inflight func(vs int) int, deferW bool) error {
	p, m, v := lw.cfg.Stages, lw.cfg.MicroBatches, len(lw.first)-1
	const inf = math.MaxFloat64

	// Indexed [vs*m+j] for chunk vs and micro batch j: the arrival time of
	// the forward input, the arrival time of the gradient input, and the
	// completion time of the local forward.
	fArr, bArr, fDone := make([]float64, v*m), make([]float64, v*m), make([]float64, v*m)
	for i := range fArr {
		if i >= m {
			fArr[i] = inf
		}
		bArr[i], fDone[i] = inf, inf
	}

	type wUnit struct {
		mb, layer int // layer, or LayerHead / LayerEmbed
	}
	clock := make([]float64, p)
	fNext := make([]int, v)
	bNext := make([]int, v)
	// wQ[s] is stage s's FIFO of pending weight gradients, sized up front
	// to every unit the stage enqueues (each micro batch's chunk layers,
	// plus its head and embedding units), so popping by reslicing never
	// forces a regrowth.
	units, total := make([]int, p), 0
	if deferW {
		for vs := 0; vs < v; vs++ {
			units[vs%p] += m * (lw.first[vs+1] - lw.first[vs])
		}
		units[(v-1)%p] += m // head
		units[0] += m       // embedding
		total = m * (lw.cfg.Layers + 2)
	}
	wQ := carve(units, make([]wUnit, total))

	wUnitDur := func(s int, u wUnit) float64 {
		c := lw.costs.StageMB(s, u.mb)
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
		c := lw.costs.StageMB(s, u.mb)
		switch u.layer {
		case LayerHead:
			lw.emit(s, Op{Kind: KBackwardW, MB: int32(u.mb), Layer: LayerHead, Dur: c.HeadW, Free: c.EmbedGradStash})
		case LayerEmbed:
			lw.emit(s, Op{Kind: KBackwardW, MB: int32(u.mb), Layer: LayerEmbed, Dur: c.EmbedW})
		default:
			lw.emitWStep(s, u.mb, u.layer)
		}
	}

	// action is a stage's next step: a chunk's backward or forward step, or
	// (vs < 0) its oldest pending weight gradient.
	type action struct {
		vs    int
		back  bool
		start float64
	}
	// next returns the stage's best next action; start is inf when it has
	// none.
	next := func(s int) action {
		best := action{start: inf}
		for vs := s; vs < v; vs += p {
			if j := bNext[vs]; j < m {
				ready := bArr[vs*m+j]
				if vs == v-1 {
					ready = fDone[vs*m+j]
				}
				if ready < inf {
					if t := math.Max(clock[s], ready); t < best.start {
						best = action{vs: vs, back: true, start: t}
					}
				}
			}
			if j := fNext[vs]; j < m && j-bNext[vs] < inflight(vs) {
				if ready := fArr[vs*m+j]; ready < inf {
					if t := math.Max(clock[s], ready); t < best.start {
						best = action{vs: vs, start: t}
					}
				}
			}
		}
		if len(wQ[s]) > 0 && clock[s] < best.start {
			best = action{vs: -1, start: clock[s]}
		}
		return best
	}

	for {
		s, act := -1, action{start: inf}
		for stage := 0; stage < p; stage++ {
			if a := next(stage); a.start < act.start {
				s, act = stage, a
			}
		}
		if s < 0 {
			break
		}
		vs := act.vs
		switch {
		case vs < 0:
			u := wQ[s][0]
			wQ[s] = wQ[s][1:]
			emitWUnit(s, u)
			clock[s] = act.start + wUnitDur(s, u)
		case act.back:
			j := bNext[vs]
			end := act.start + lw.bStepDur(vs, j, !deferW)
			lw.emitBStep(vs, j, !deferW)
			if vs > 0 {
				bArr[(vs-1)*m+j] = end + lw.costs.P2PTime(lw.costs.MB(j).BoundBytes[BoundAct])
			}
			bNext[vs]++
			clock[s] = end
			if deferW {
				// Enqueue the deferred weight gradients: head first (it ran
				// first in the backward step), then the chunk layers in the
				// backward order they were visited.
				if vs == v-1 {
					wQ[s] = append(wQ[s], wUnit{mb: j, layer: LayerHead})
				}
				for layer := lw.first[vs+1] - 1; layer >= lw.first[vs]; layer-- {
					wQ[s] = append(wQ[s], wUnit{mb: j, layer: layer})
				}
				if vs == 0 {
					wQ[s] = append(wQ[s], wUnit{mb: j, layer: LayerEmbed})
				}
			}
		default:
			j := fNext[vs]
			end := act.start + lw.fStepDur(vs, j)
			lw.emitFStep(vs, j)
			fDone[vs*m+j] = end
			if vs < v-1 {
				fArr[(vs+1)*m+j] = end + lw.costs.P2PTime(lw.costs.MB(j).BoundBytes[BoundAct])
			}
			fNext[vs]++
			clock[s] = end
		}
	}

	for vs := 0; vs < v; vs++ {
		if fNext[vs] != m || bNext[vs] != m {
			return fmt.Errorf("sched: list scheduling deadlocked at chunk %d on stage %d (F %d/%d, B %d/%d)",
				vs, vs%p, fNext[vs], m, bNext[vs], m)
		}
	}
	return nil
}

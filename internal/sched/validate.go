package sched

import (
	"fmt"

	"repro/internal/model"
)

// This file implements a schedule-independent plan validator. It runs the
// plan as an abstract token-dataflow machine: every compute op consumes and
// produces named value tokens, sends require the token locally and recvs
// materialize it on the receiving stage. A plan is valid when (a) every
// stage's program runs to completion without deadlock, (b) every op's input
// tokens are present on its stage when it executes, (c) per-micro-batch op
// counts are complete and exact, and (d) stashes balance.
//
// The same token semantics is what internal/exec implements with real
// tensors, so passing validation here is exactly the property that makes a
// plan runnable by the numeric engine.

// tokKind names the abstract values flowing through a transformer iteration.
type tokKind int

const (
	tokA       tokKind = iota // activation entering layer l (or the head for l=L)
	tokQ                      // pre-attention output of layer l
	tokO                      // attention output of layer l
	tokGA                     // gradient of A(l)
	tokGO                     // gradient of O(l)
	tokGQ                     // gradient of Q(l)
	tokWEnable                // backward-B of (l,seg) done; enables backward-W
)

type token struct {
	kind  tokKind
	mb    int
	layer int
	seg   model.Segment // only for tokWEnable
}

func tokenOfTag(t Tag) token {
	if !t.Back {
		switch t.Bound {
		case BoundAct:
			return token{kind: tokA, mb: t.MB, layer: t.Layer}
		case BoundPreAttn:
			return token{kind: tokQ, mb: t.MB, layer: t.Layer}
		default:
			return token{kind: tokO, mb: t.MB, layer: t.Layer}
		}
	}
	switch t.Bound {
	case BoundAct:
		return token{kind: tokGA, mb: t.MB, layer: t.Layer}
	case BoundPreAttn:
		return token{kind: tokGQ, mb: t.MB, layer: t.Layer}
	default:
		return token{kind: tokGO, mb: t.MB, layer: t.Layer}
	}
}

// opTokens is the token effect of one op: the token it requires (at most
// one) and the tokens it produces (at most two).
type opTokens struct {
	req         [1]token
	prod        [2]token
	nreq, nprod int
}

// needs returns the effect of an op requiring one token.
func needs(req token) opTokens { return opTokens{req: [1]token{req}, nreq: 1} }

// makes returns the effect with the given products added.
func (io opTokens) makes(prod ...token) opTokens {
	io.nprod = copy(io.prod[:], prod)
	return io
}

// opIO returns the tokens an op requires and produces. Recompute ops have no
// token effects (they regenerate locally stashed intermediates).
func opIO(op *Op, layers int) opTokens {
	switch op.Kind {
	case KForward:
		switch op.Layer {
		case LayerEmbed:
			return opTokens{}.makes(token{kind: tokA, mb: op.MB, layer: 0})
		case LayerHead:
			return needs(token{kind: tokA, mb: op.MB, layer: layers})
		}
		switch op.Seg {
		case model.SegPre:
			return needs(token{kind: tokA, mb: op.MB, layer: op.Layer}).
				makes(token{kind: tokQ, mb: op.MB, layer: op.Layer})
		case model.SegAttn:
			return needs(token{kind: tokQ, mb: op.MB, layer: op.Layer}).
				makes(token{kind: tokO, mb: op.MB, layer: op.Layer})
		default:
			return needs(token{kind: tokO, mb: op.MB, layer: op.Layer}).
				makes(token{kind: tokA, mb: op.MB, layer: op.Layer + 1})
		}
	case KBackwardB:
		switch op.Layer {
		case LayerHead:
			// Deferred head: forward + loss + backward in one op (4.6).
			return needs(token{kind: tokA, mb: op.MB, layer: layers}).makes(
				token{kind: tokGA, mb: op.MB, layer: layers},
				token{kind: tokWEnable, mb: op.MB, layer: LayerHead},
			)
		case LayerEmbed:
			return needs(token{kind: tokGA, mb: op.MB, layer: 0})
		}
		switch op.Seg {
		case model.SegPost:
			return needs(token{kind: tokGA, mb: op.MB, layer: op.Layer + 1}).makes(
				token{kind: tokGO, mb: op.MB, layer: op.Layer},
				token{kind: tokWEnable, mb: op.MB, layer: op.Layer, seg: model.SegPost},
			)
		case model.SegAttn:
			return needs(token{kind: tokGO, mb: op.MB, layer: op.Layer}).
				makes(token{kind: tokGQ, mb: op.MB, layer: op.Layer})
		default:
			return needs(token{kind: tokGQ, mb: op.MB, layer: op.Layer}).makes(
				token{kind: tokGA, mb: op.MB, layer: op.Layer},
				token{kind: tokWEnable, mb: op.MB, layer: op.Layer, seg: model.SegPre},
			)
		}
	case KBackwardW:
		switch op.Layer {
		case LayerHead:
			return needs(token{kind: tokWEnable, mb: op.MB, layer: LayerHead})
		case LayerEmbed:
			return needs(token{kind: tokGA, mb: op.MB, layer: 0})
		}
		return needs(token{kind: tokWEnable, mb: op.MB, layer: op.Layer, seg: op.Seg})
	}
	return opTokens{}
}

// geometry indexes the dense tables the checks run on. Structure validation
// has already confined every op to it: compute targets to layers in
// [LayerHead, layers) and segments in model.Segments, message tags to micro
// batches in [0, mbs) and boundary layers in [0, layers].
type geometry struct {
	mbs, layers int
}

// segs is the segment count every table entry is split by.
const segs = len(model.Segments)

// targets is the number of (micro batch, target layer, segment) slots.
func (g geometry) targets() int { return g.mbs * (g.layers - LayerHead) * segs }

// target indexes one (micro batch, target layer, segment) slot.
func (g geometry) target(mb, layer int, seg model.Segment) int {
	return (mb*(g.layers-LayerHead)+layer-LayerHead)*segs + int(seg)
}

// tokens is the number of distinct tokens: every kind, micro batch, layer in
// [LayerHead, layers] and segment.
func (g geometry) tokens() int { return int(tokWEnable+1) * g.mbs * (g.layers + 1 - LayerHead) * segs }

// token indexes one token.
func (g geometry) token(t token) int {
	return ((int(t.kind)*g.mbs+t.mb)*(g.layers+1-LayerHead)+t.layer-LayerHead)*segs + int(t.seg)
}

// Validate checks the plan's structural and dataflow invariants and returns
// a descriptive error for the first violation found.
func Validate(p *Plan) error {
	if p.validated {
		return nil
	}
	if len(p.Ops) != p.Stages {
		return fmt.Errorf("sched: plan has %d stage programs, want %d", len(p.Ops), p.Stages)
	}
	if err := validateStructure(p); err != nil {
		return err
	}
	g := geometry{mbs: p.MicroBatches, layers: p.Layers}
	if err := validateCounts(p, g); err != nil {
		return err
	}
	if err := validateDataflow(p, g); err != nil {
		return err
	}
	if err := validateMemory(p); err != nil {
		return err
	}
	p.validated = true
	return nil
}

func validateStructure(p *Plan) error {
	if p.MicroBatches < 0 || p.Layers < 0 {
		return fmt.Errorf("sched: plan has %d micro batches and %d layers", p.MicroBatches, p.Layers)
	}
	if n := len(p.Batch.Shapes); n > 0 && n != p.MicroBatches {
		return fmt.Errorf("sched: plan batch spec has %d shapes for %d micro batches", n, p.MicroBatches)
	}
	if n := len(p.Placement); n > 0 {
		if n != p.Stages {
			return fmt.Errorf("sched: plan placement maps %d devices for %d stages", n, p.Stages)
		}
		seen := map[int]int{}
		for stage, dev := range p.Placement {
			if dev < 0 {
				return fmt.Errorf("sched: plan placement stage %d on negative device %d", stage, dev)
			}
			if prev, ok := seen[dev]; ok {
				return fmt.Errorf("sched: plan placement stages %d and %d share device %d", prev, stage, dev)
			}
			seen[dev] = stage
		}
	}
	for s, ops := range p.Ops {
		for i := range ops {
			op := &ops[i]
			comm := op.Kind == KSend || op.Kind == KRecv
			if op.Kind.IsCompute() && op.Dur < 0 {
				return fmt.Errorf("sched: stage %d op %d (%v): negative duration", s, i, *op)
			}
			if comm {
				if op.Peer < 0 || op.Peer >= p.Stages {
					return fmt.Errorf("sched: stage %d op %d (%v): peer out of range", s, i, *op)
				}
				if op.Peer == s {
					return fmt.Errorf("sched: stage %d op %d (%v): self communication", s, i, *op)
				}
			}
			if op.MB < 0 || (!comm && op.MB >= p.MicroBatches) {
				return fmt.Errorf("sched: stage %d op %d (%v): micro batch out of range", s, i, *op)
			}
			if op.Kind.IsCompute() && (op.Layer < LayerHead || op.Layer >= p.Layers ||
				op.Seg < 0 || int(op.Seg) >= segs) {
				return fmt.Errorf("sched: stage %d op %d (%v): layer %d segment %d outside the plan's %d layers",
					s, i, *op, op.Layer, op.Seg, p.Layers)
			}
			if t := op.Tag; comm && (t.MB < 0 || t.MB >= p.MicroBatches || t.Layer < 0 || t.Layer > p.Layers ||
				t.Bound < BoundAct || t.Bound > BoundAttnPost) {
				return fmt.Errorf("sched: stage %d op %d (%v): tag outside the plan's %d micro batches and %d layers",
					s, i, *op, p.MicroBatches, p.Layers)
			}
		}
	}
	// A complete plan holds at least one forward per (micro batch, layer)
	// plus an embedding forward per micro batch. Rejecting fewer ops here
	// bounds the dense tables by the plan's own size.
	if n := p.NumOps(); p.MicroBatches > n/(p.Layers+1) {
		return fmt.Errorf("sched: plan has %d ops, too few for %d micro batches of %d layers",
			n, p.MicroBatches, p.Layers)
	}
	return nil
}

// validateCounts checks that every (micro batch, layer, segment) gets
// exactly one forward, one backward-B, exactly one backward-W for the
// parameterized segments and none for attention, plus exactly one embedding
// forward, embedding W, head backward and head W per micro batch — and that
// the stash-holding passes of a (layer, segment) are colocated on one stage.
func validateCounts(p *Plan, g geometry) error {
	// count is indexed by target*3 + kind (KForward, KBackwardB, KBackwardW);
	// home holds 1 + the stage of a target's latest forward, 0 before any.
	count := make([]int32, g.targets()*3)
	home := make([]int32, g.targets())
	for s, ops := range p.Ops {
		for i := range ops {
			op := &ops[i]
			if !op.Kind.IsCompute() || op.Kind == KRecompute {
				continue
			}
			t := g.target(op.MB, op.Layer, op.Seg)
			count[t*3+int(op.Kind)]++
			switch op.Kind {
			case KForward:
				home[t] = int32(s) + 1
			case KBackwardB, KBackwardW:
				if fs := int(home[t]) - 1; op.Layer >= 0 && fs >= 0 && fs != s {
					return fmt.Errorf("sched: %v on stage %d but forward ran on stage %d (stash not local)", *op, s, fs)
				}
			}
		}
	}
	n := func(mb, layer int, seg model.Segment, kind OpKind) int32 {
		return count[g.target(mb, layer, seg)*3+int(kind)]
	}
	for mb := 0; mb < p.MicroBatches; mb++ {
		for l := 0; l < p.Layers; l++ {
			for _, seg := range model.Segments {
				if c := n(mb, l, seg, KForward); c != 1 {
					return fmt.Errorf("sched: F(l%d.%v,mb%d) emitted %d times", l, seg, mb, c)
				}
				if c := n(mb, l, seg, KBackwardB); c != 1 {
					return fmt.Errorf("sched: B(l%d.%v,mb%d) emitted %d times", l, seg, mb, c)
				}
				var wantW int32
				if seg != model.SegAttn {
					wantW = 1
				}
				if c := n(mb, l, seg, KBackwardW); c != wantW {
					return fmt.Errorf("sched: W(l%d.%v,mb%d) emitted %d times, want %d", l, seg, mb, c, wantW)
				}
			}
		}
		if c := n(mb, LayerEmbed, model.SegPre, KForward); c != 1 {
			return fmt.Errorf("sched: embed F for mb%d emitted %d times", mb, c)
		}
		if c := n(mb, LayerEmbed, model.SegPre, KBackwardW); c != 1 {
			return fmt.Errorf("sched: embed W for mb%d emitted %d times", mb, c)
		}
		if c := n(mb, LayerHead, model.SegPre, KBackwardB); c != 1 {
			return fmt.Errorf("sched: head FB for mb%d emitted %d times", mb, c)
		}
		if c := n(mb, LayerHead, model.SegPre, KBackwardW); c != 1 {
			return fmt.Errorf("sched: head W for mb%d emitted %d times", mb, c)
		}
	}
	return nil
}

// validateDataflow runs the token machine to completion or reports the
// deadlock / missing-input violation. Each stage's tokens are one bitset.
func validateDataflow(p *Plan, g geometry) error {
	type msgKey struct {
		tag  Tag
		from int
		to   int
	}
	sends := 0
	for _, ops := range p.Ops {
		for _, op := range ops {
			if op.Kind == KSend {
				sends++
			}
		}
	}
	sent := make(map[msgKey]int, sends)
	words := (g.tokens() + 63) / 64
	bits := make([]uint64, p.Stages*words)
	has := func(s int, tok token) bool {
		i := g.token(tok)
		return bits[s*words+i/64]&(1<<(i%64)) != 0
	}
	set := func(s int, tok token) {
		i := g.token(tok)
		bits[s*words+i/64] |= 1 << (i % 64)
	}
	pc := make([]int, p.Stages)
	for {
		progress := false
		for s := 0; s < p.Stages; s++ {
		stageLoop:
			for pc[s] < len(p.Ops[s]) {
				op := &p.Ops[s][pc[s]]
				switch op.Kind {
				case KRecv:
					k := msgKey{tag: op.Tag, from: op.Peer, to: s}
					if sent[k] == 0 {
						break stageLoop // block until the matching send
					}
					sent[k]--
					set(s, tokenOfTag(op.Tag))
				case KSend:
					if !has(s, tokenOfTag(op.Tag)) {
						return fmt.Errorf("sched: stage %d sends %v before producing it", s, op.Tag)
					}
					sent[msgKey{tag: op.Tag, from: s, to: op.Peer}]++
				default:
					io := opIO(op, p.Layers)
					for _, tok := range io.req[:io.nreq] {
						if !has(s, tok) {
							return fmt.Errorf("sched: stage %d op %v: missing input token %+v", s, *op, tok)
						}
					}
					for _, tok := range io.prod[:io.nprod] {
						set(s, tok)
					}
				}
				pc[s]++
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	for s := 0; s < p.Stages; s++ {
		if pc[s] != len(p.Ops[s]) {
			return fmt.Errorf("sched: deadlock: stage %d blocked at op %d (%v)", s, pc[s], p.Ops[s][pc[s]])
		}
	}
	for k, n := range sent {
		if n != 0 {
			return fmt.Errorf("sched: message %v from %d to %d sent %d times but never received", k.tag, k.from, k.to, n)
		}
	}
	return nil
}

// validateMemory checks stash conservation: on every stage the allocated
// bytes equal the freed bytes over the iteration (no leak across iterations)
// and the running balance never goes negative in program order.
func validateMemory(p *Plan) error {
	for s, ops := range p.Ops {
		var bal int64
		for i, op := range ops {
			bal += op.Alloc - op.Free
			if bal < 0 {
				return fmt.Errorf("sched: stage %d op %d (%v): stash balance negative (%d)", s, i, op, bal)
			}
		}
		if bal != 0 {
			return fmt.Errorf("sched: stage %d leaks %d stash bytes per iteration", s, bal)
		}
	}
	return nil
}

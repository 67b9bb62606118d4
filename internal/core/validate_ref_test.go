package core

// This file keeps the plan validator of internal/sched exactly as it stood
// before dense tables replaced its maps. It is the reference oracle of
// TestValidateMatchesReference, kept here because this package's tests link
// every registered method, which sched's own tests must not. It differs from
// the original only in naming sched's identifiers through the package, in
// the name refValidate, and in keeping no memo: every call walks the plan.

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sched"
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

func tokenOfTag(t sched.Tag) token {
	if !t.Back {
		switch t.Bound {
		case sched.BoundAct:
			return token{kind: tokA, mb: t.MB, layer: t.Layer}
		case sched.BoundPreAttn:
			return token{kind: tokQ, mb: t.MB, layer: t.Layer}
		default:
			return token{kind: tokO, mb: t.MB, layer: t.Layer}
		}
	}
	switch t.Bound {
	case sched.BoundAct:
		return token{kind: tokGA, mb: t.MB, layer: t.Layer}
	case sched.BoundPreAttn:
		return token{kind: tokGQ, mb: t.MB, layer: t.Layer}
	default:
		return token{kind: tokGO, mb: t.MB, layer: t.Layer}
	}
}

// opIO returns the tokens an op requires and produces. Recompute ops have no
// token effects (they regenerate locally stashed intermediates).
func opIO(op sched.Op, layers int) (req []token, prod []token) {
	switch op.Kind {
	case sched.KForward:
		switch op.Layer {
		case sched.LayerEmbed:
			return nil, []token{{kind: tokA, mb: op.MB, layer: 0}}
		case sched.LayerHead:
			return []token{{kind: tokA, mb: op.MB, layer: layers}}, nil
		}
		switch op.Seg {
		case model.SegPre:
			return []token{{kind: tokA, mb: op.MB, layer: op.Layer}},
				[]token{{kind: tokQ, mb: op.MB, layer: op.Layer}}
		case model.SegAttn:
			return []token{{kind: tokQ, mb: op.MB, layer: op.Layer}},
				[]token{{kind: tokO, mb: op.MB, layer: op.Layer}}
		default:
			return []token{{kind: tokO, mb: op.MB, layer: op.Layer}},
				[]token{{kind: tokA, mb: op.MB, layer: op.Layer + 1}}
		}
	case sched.KBackwardB:
		switch op.Layer {
		case sched.LayerHead:
			// Deferred head: forward + loss + backward in one op (4.6).
			return []token{{kind: tokA, mb: op.MB, layer: layers}},
				[]token{
					{kind: tokGA, mb: op.MB, layer: layers},
					{kind: tokWEnable, mb: op.MB, layer: sched.LayerHead},
				}
		case sched.LayerEmbed:
			return []token{{kind: tokGA, mb: op.MB, layer: 0}}, nil
		}
		switch op.Seg {
		case model.SegPost:
			return []token{{kind: tokGA, mb: op.MB, layer: op.Layer + 1}},
				[]token{
					{kind: tokGO, mb: op.MB, layer: op.Layer},
					{kind: tokWEnable, mb: op.MB, layer: op.Layer, seg: model.SegPost},
				}
		case model.SegAttn:
			return []token{{kind: tokGO, mb: op.MB, layer: op.Layer}},
				[]token{{kind: tokGQ, mb: op.MB, layer: op.Layer}}
		default:
			return []token{{kind: tokGQ, mb: op.MB, layer: op.Layer}},
				[]token{
					{kind: tokGA, mb: op.MB, layer: op.Layer},
					{kind: tokWEnable, mb: op.MB, layer: op.Layer, seg: model.SegPre},
				}
		}
	case sched.KBackwardW:
		switch op.Layer {
		case sched.LayerHead:
			return []token{{kind: tokWEnable, mb: op.MB, layer: sched.LayerHead}}, nil
		case sched.LayerEmbed:
			return []token{{kind: tokGA, mb: op.MB, layer: 0}}, nil
		}
		return []token{{kind: tokWEnable, mb: op.MB, layer: op.Layer, seg: op.Seg}}, nil
	}
	return nil, nil
}

// refValidate checks the plan's structural and dataflow invariants and returns
// a descriptive error for the first violation found.
func refValidate(p *sched.Plan) error {
	if len(p.Ops) != p.Stages {
		return fmt.Errorf("sched: plan has %d stage programs, want %d", len(p.Ops), p.Stages)
	}
	if err := validateStructure(p); err != nil {
		return err
	}
	if err := validateCounts(p); err != nil {
		return err
	}
	if err := validateDataflow(p); err != nil {
		return err
	}
	if err := validateMemory(p); err != nil {
		return err
	}
	return nil
}

func validateStructure(p *sched.Plan) error {
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
		for i, op := range ops {
			if op.Kind.IsCompute() && op.Dur < 0 {
				return fmt.Errorf("sched: stage %d op %d (%v): negative duration", s, i, op)
			}
			if op.Kind == sched.KSend || op.Kind == sched.KRecv {
				if op.Peer < 0 || op.Peer >= p.Stages {
					return fmt.Errorf("sched: stage %d op %d (%v): peer out of range", s, i, op)
				}
				if op.Peer == s {
					return fmt.Errorf("sched: stage %d op %d (%v): self communication", s, i, op)
				}
			}
			if op.MB < 0 || (op.Kind != sched.KSend && op.Kind != sched.KRecv && op.MB >= p.MicroBatches) {
				return fmt.Errorf("sched: stage %d op %d (%v): micro batch out of range", s, i, op)
			}
		}
	}
	return nil
}

// validateCounts checks that every (micro batch, layer, segment) gets
// exactly one forward, one backward-B, exactly one backward-W for the
// parameterized segments and none for attention, plus exactly one embedding
// forward, embedding W, head backward and head W per micro batch — and that
// the stash-holding passes of a (layer, segment) are colocated on one stage.
func validateCounts(p *sched.Plan) error {
	type key struct {
		mb, layer int
		seg       model.Segment
		kind      sched.OpKind
	}
	count := map[key]int{}
	home := map[key]int{} // stage of the forward pass
	for s, ops := range p.Ops {
		for _, op := range ops {
			if !op.Kind.IsCompute() || op.Kind == sched.KRecompute {
				continue
			}
			k := key{mb: op.MB, layer: op.Layer, seg: op.Seg, kind: op.Kind}
			count[k]++
			fk := key{mb: op.MB, layer: op.Layer, seg: op.Seg, kind: sched.KForward}
			switch op.Kind {
			case sched.KForward:
				home[fk] = s
			case sched.KBackwardB, sched.KBackwardW:
				if op.Layer >= 0 {
					if fs, ok := home[fk]; ok && fs != s {
						return fmt.Errorf("sched: %v on stage %d but forward ran on stage %d (stash not local)", op, s, fs)
					}
				}
			}
		}
	}
	for mb := 0; mb < p.MicroBatches; mb++ {
		for l := 0; l < p.Layers; l++ {
			for _, seg := range model.Segments {
				if c := count[key{mb, l, seg, sched.KForward}]; c != 1 {
					return fmt.Errorf("sched: F(l%d.%v,mb%d) emitted %d times", l, seg, mb, c)
				}
				if c := count[key{mb, l, seg, sched.KBackwardB}]; c != 1 {
					return fmt.Errorf("sched: B(l%d.%v,mb%d) emitted %d times", l, seg, mb, c)
				}
				wantW := 0
				if seg != model.SegAttn {
					wantW = 1
				}
				if c := count[key{mb, l, seg, sched.KBackwardW}]; c != wantW {
					return fmt.Errorf("sched: W(l%d.%v,mb%d) emitted %d times, want %d", l, seg, mb, c, wantW)
				}
			}
		}
		if c := count[key{mb, sched.LayerEmbed, model.SegPre, sched.KForward}]; c != 1 {
			return fmt.Errorf("sched: embed F for mb%d emitted %d times", mb, c)
		}
		if c := count[key{mb, sched.LayerEmbed, model.SegPre, sched.KBackwardW}]; c != 1 {
			return fmt.Errorf("sched: embed W for mb%d emitted %d times", mb, c)
		}
		if c := count[key{mb, sched.LayerHead, model.SegPre, sched.KBackwardB}]; c != 1 {
			return fmt.Errorf("sched: head FB for mb%d emitted %d times", mb, c)
		}
		if c := count[key{mb, sched.LayerHead, model.SegPre, sched.KBackwardW}]; c != 1 {
			return fmt.Errorf("sched: head W for mb%d emitted %d times", mb, c)
		}
	}
	return nil
}

// validateDataflow runs the token machine to completion or reports the
// deadlock / missing-input violation.
func validateDataflow(p *sched.Plan) error {
	type msgKey struct {
		tag  sched.Tag
		from int
		to   int
	}
	sent := map[msgKey]int{}
	have := make([]map[token]bool, p.Stages)
	for s := range have {
		have[s] = map[token]bool{}
	}
	pc := make([]int, p.Stages)
	for {
		progress := false
		for s := 0; s < p.Stages; s++ {
		stageLoop:
			for pc[s] < len(p.Ops[s]) {
				op := p.Ops[s][pc[s]]
				switch op.Kind {
				case sched.KRecv:
					k := msgKey{tag: op.Tag, from: op.Peer, to: s}
					if sent[k] == 0 {
						break stageLoop // block until the matching send
					}
					sent[k]--
					have[s][tokenOfTag(op.Tag)] = true
				case sched.KSend:
					tok := tokenOfTag(op.Tag)
					if !have[s][tok] {
						return fmt.Errorf("sched: stage %d sends %v before producing it", s, op.Tag)
					}
					sent[msgKey{tag: op.Tag, from: s, to: op.Peer}]++
				default:
					req, prod := opIO(op, p.Layers)
					for _, tok := range req {
						if !have[s][tok] {
							return fmt.Errorf("sched: stage %d op %v: missing input token %+v", s, op, tok)
						}
					}
					for _, tok := range prod {
						have[s][tok] = true
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
func validateMemory(p *sched.Plan) error {
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

package sched

import (
	"fmt"
	"sync"

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
	mb    int32
	layer int32
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

// needs records the token the op requires.
func (io *opTokens) needs(req token) *opTokens {
	io.req[0], io.nreq = req, 1
	return io
}

// makes records a token the op produces.
func (io *opTokens) makes(prod token) *opTokens {
	io.prod[io.nprod] = prod
	io.nprod++
	return io
}

// opIO fills io with the tokens an op requires and produces, in place: the
// validator runs it once per op. Recompute ops have no token effects (they
// regenerate locally stashed intermediates).
func opIO(op *Op, layers int32, io *opTokens) {
	io.nreq, io.nprod = 0, 0
	switch op.Kind {
	case KForward:
		switch op.Layer {
		case LayerEmbed:
			io.makes(token{kind: tokA, mb: op.MB, layer: 0})
			return
		case LayerHead:
			io.needs(token{kind: tokA, mb: op.MB, layer: layers})
			return
		}
		switch op.Seg {
		case model.SegPre:
			io.needs(token{kind: tokA, mb: op.MB, layer: op.Layer}).
				makes(token{kind: tokQ, mb: op.MB, layer: op.Layer})
		case model.SegAttn:
			io.needs(token{kind: tokQ, mb: op.MB, layer: op.Layer}).
				makes(token{kind: tokO, mb: op.MB, layer: op.Layer})
		default:
			io.needs(token{kind: tokO, mb: op.MB, layer: op.Layer}).
				makes(token{kind: tokA, mb: op.MB, layer: op.Layer + 1})
		}
	case KBackwardB:
		switch op.Layer {
		case LayerHead:
			// Deferred head: forward + loss + backward in one op (4.6).
			io.needs(token{kind: tokA, mb: op.MB, layer: layers}).
				makes(token{kind: tokGA, mb: op.MB, layer: layers}).
				makes(token{kind: tokWEnable, mb: op.MB, layer: LayerHead})
			return
		case LayerEmbed:
			io.needs(token{kind: tokGA, mb: op.MB, layer: 0})
			return
		}
		switch op.Seg {
		case model.SegPost:
			io.needs(token{kind: tokGA, mb: op.MB, layer: op.Layer + 1}).
				makes(token{kind: tokGO, mb: op.MB, layer: op.Layer}).
				makes(token{kind: tokWEnable, mb: op.MB, layer: op.Layer, seg: model.SegPost})
		case model.SegAttn:
			io.needs(token{kind: tokGO, mb: op.MB, layer: op.Layer}).
				makes(token{kind: tokGQ, mb: op.MB, layer: op.Layer})
		default:
			io.needs(token{kind: tokGQ, mb: op.MB, layer: op.Layer}).
				makes(token{kind: tokGA, mb: op.MB, layer: op.Layer}).
				makes(token{kind: tokWEnable, mb: op.MB, layer: op.Layer, seg: model.SegPre})
		}
	case KBackwardW:
		switch op.Layer {
		case LayerHead:
			io.needs(token{kind: tokWEnable, mb: op.MB, layer: LayerHead})
		case LayerEmbed:
			io.needs(token{kind: tokGA, mb: op.MB, layer: 0})
		default:
			io.needs(token{kind: tokWEnable, mb: op.MB, layer: op.Layer, seg: op.Seg})
		}
	}
}

// geometry indexes the dense tables the checks run on. Structure validation
// has already confined every op to it: compute targets to layers in
// [LayerHead, layers) and segments in model.Segments, message tags to micro
// batches in [0, mbs), boundary layers in [0, layers] and the three
// boundary kinds.
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
	return ((int(t.kind)*g.mbs+int(t.mb))*(g.layers+1-LayerHead)+int(t.layer)-LayerHead)*segs + int(t.seg)
}

// bounds is the number of boundary kinds a message tag names.
const bounds = int(BoundAttnPost) + 1

// tags is the number of distinct message tags: every micro batch, boundary
// layer in [0, layers], boundary kind and direction.
func (g geometry) tags() int { return g.mbs * (g.layers + 1) * bounds * 2 }

// tag indexes one message tag.
func (g geometry) tag(t Tag) int {
	i := ((int(t.MB)*(g.layers+1)+int(t.Layer))*bounds + int(t.Bound)) * 2
	if t.Back {
		i++
	}
	return i
}

// Validate checks the plan's structural and dataflow invariants and returns
// a descriptive error for the first violation found. A valid plan memoizes
// the verdict and the message match RecvSlots returns.
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
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if err := validateCounts(p, g, sc); err != nil {
		return err
	}
	slots, err := validateDataflow(p, g, sc)
	if err != nil {
		return err
	}
	peaks, err := stashPeaks(p)
	if err != nil {
		return err
	}
	p.validated = true
	p.recvSlots = slots
	p.stashPeaks = peaks
	return nil
}

// StashPeaks returns each stage's peak activation stash: the largest running
// sum of its ops' Alloc and Free in program order, an op's Alloc counting
// before its Free. The sum does not depend on timing, so it is the peak
// sim.Run reports. A validated plan returns the peaks its memory pass
// recorded, shared and read-only. Any other plan is walked here.
func StashPeaks(p *Plan) []int64 {
	if p.validated {
		return p.stashPeaks
	}
	peaks, _ := stashPeaks(p)
	return peaks
}

// RecvSlots matches every recv of the plan to the send it consumes. It
// returns one entry per KRecv, in stage-major program order, holding that
// send's slot: its ordinal among the plan's KSends in the same order, or -1
// when no send matches. A validated plan returns the match its dataflow pass
// recorded, shared and read-only. Any other plan is matched here by (tag,
// from, to), the n-th recv of a message taking its n-th send.
func RecvSlots(p *Plan) []int32 {
	if p.validated {
		return p.recvSlots
	}
	type msgKey struct {
		tag      Tag
		from, to int
	}
	pending := map[msgKey][]int32{}
	var slot int32
	for s, ops := range p.Ops {
		for i := range ops {
			if op := &ops[i]; op.Kind == KSend {
				k := msgKey{tag: op.Tag, from: s, to: int(op.Peer)}
				pending[k] = append(pending[k], slot)
				slot++
			}
		}
	}
	var slots []int32
	for s, ops := range p.Ops {
		for i := range ops {
			if op := &ops[i]; op.Kind == KRecv {
				k := msgKey{tag: op.Tag, from: int(op.Peer), to: s}
				match := int32(-1)
				if q := pending[k]; len(q) > 0 {
					match, pending[k] = q[0], q[1:]
				}
				slots = append(slots, match)
			}
		}
	}
	return slots
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
			if op.Kind < KForward || op.Kind > KRecv {
				return fmt.Errorf("sched: stage %d op %d (%v): unknown op kind", s, i, *op)
			}
			comm := op.Kind == KSend || op.Kind == KRecv
			if op.Kind.IsCompute() && op.Dur < 0 {
				return fmt.Errorf("sched: stage %d op %d (%v): negative duration", s, i, *op)
			}
			if comm {
				if op.Alloc != 0 || op.Free != 0 {
					return fmt.Errorf("sched: stage %d op %d (%v): stash on a message op", s, i, *op)
				}
				if op.Peer < 0 || int(op.Peer) >= p.Stages {
					return fmt.Errorf("sched: stage %d op %d (%v): peer out of range", s, i, *op)
				}
				if int(op.Peer) == s {
					return fmt.Errorf("sched: stage %d op %d (%v): self communication", s, i, *op)
				}
			}
			if op.MB < 0 || (!comm && int(op.MB) >= p.MicroBatches) {
				return fmt.Errorf("sched: stage %d op %d (%v): micro batch out of range", s, i, *op)
			}
			if op.Kind.IsCompute() && (op.Layer < LayerHead || int(op.Layer) >= p.Layers ||
				op.Seg < 0 || int(op.Seg) >= segs) {
				return fmt.Errorf("sched: stage %d op %d (%v): layer %d segment %d outside the plan's %d layers",
					s, i, *op, op.Layer, op.Seg, p.Layers)
			}
			if t := op.Tag; comm && (t.MB < 0 || int(t.MB) >= p.MicroBatches || t.Layer < 0 || int(t.Layer) > p.Layers ||
				t.Bound < BoundAct || t.Bound > BoundAttnPost) {
				return fmt.Errorf("sched: stage %d op %d (%v): tag outside the plan's %d micro batches and %d layers",
					s, i, *op, p.MicroBatches, p.Layers)
			}
		}
	}
	// A complete plan holds at least one forward per (micro batch, layer)
	// plus an embedding forward per micro batch. Rejecting fewer ops here
	// bounds the dense tables, the message table's 6·m·(L+1) entries
	// included, by the plan's own size.
	if n := p.NumOps(); p.MicroBatches > n/(p.Layers+1) {
		return fmt.Errorf("sched: plan has %d ops, too few for %d micro batches of %d layers",
			n, p.MicroBatches, p.Layers)
	}
	return nil
}

// scratch holds the validator's working tables. Each is sized by the plan
// and dead once Validate returns, so they come from scratchPool and are
// cleared on reuse (zeroed) rather than allocated per plan.
type scratch struct {
	// count and home are validateCounts' tables.
	count, home []int32
	// at, latest, sent and bits are validateDataflow's.
	at     []cursor
	latest []int32
	sent   []message
	bits   []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// zeroed returns buf resized to n zero elements, reusing its array when it
// is large enough.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// validateCounts checks that every (micro batch, layer, segment) gets
// exactly one forward, one backward-B, exactly one backward-W for the
// parameterized segments and none for attention, plus exactly one embedding
// forward, embedding W, head backward and head W per micro batch — and that
// the stash-holding passes of a (layer, segment) are colocated on one stage.
func validateCounts(p *Plan, g geometry, sc *scratch) error {
	// count is indexed by target*3 + kind (KForward, KBackwardB, KBackwardW);
	// home holds 1 + the stage of a target's latest forward, 0 before any.
	sc.count = zeroed(sc.count, g.targets()*3)
	sc.home = zeroed(sc.home, g.targets())
	count, home := sc.count, sc.home
	for s, ops := range p.Ops {
		for i := range ops {
			op := &ops[i]
			if !op.Kind.IsCompute() || op.Kind == KRecompute {
				continue
			}
			t := g.target(int(op.MB), int(op.Layer), op.Seg)
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

// cursor is one stage's position in validateDataflow's walk: its next op,
// the slot of its next send and the index of its next recv in the match.
type cursor struct{ pc, send, recv int32 }

// message is one send in validateDataflow's message table: its stages,
// whether a recv consumed it, and in earlier 1 + the slot of the previous
// send of its tag, 0 for none.
type message struct {
	from, to, earlier int32
	consumed          bool
}

// validateDataflow runs the token machine to completion or reports the
// deadlock / missing-input violation. Each stage's tokens are one bitset.
// On success it returns the message match RecvSlots reads: a recv consumes
// the one send of its (tag, from, to), and a second send of the same
// message is an error.
func validateDataflow(p *Plan, g geometry, sc *scratch) ([]int32, error) {
	// at[s] is stage s's walk position. Both ordinals run stage-major, so
	// each stage starts at the counts of the stages before.
	sc.at = zeroed(sc.at, p.Stages)
	at := sc.at
	var sends, recvs int32
	for s, ops := range p.Ops {
		at[s] = cursor{send: sends, recv: recvs}
		for i := range ops {
			switch ops[i].Kind {
			case KSend:
				sends++
			case KRecv:
				recvs++
			}
		}
	}
	// Messages are matched in dense tables indexed by tag, not by hashing.
	// latest[tag] holds 1 + the slot of the tag's latest send, 0 before any,
	// and sent[slot] the send's message. A recv walks its tag's chain for its
	// own (from, to); no builder sends one tag to two peers, so a chain is
	// one send long.
	sc.latest = zeroed(sc.latest, g.tags())
	sc.sent = zeroed(sc.sent, int(sends))
	latest, sent := sc.latest, sc.sent
	// find walks tag t's chain for the send from stage from to stage to:
	// its slot, or -1.
	find := func(t int, from, to int32) int32 {
		for k := latest[t]; k != 0; k = sent[k-1].earlier {
			if e := &sent[k-1]; e.from == from && e.to == to {
				return k - 1
			}
		}
		return -1
	}
	slots := make([]int32, recvs)
	words := (g.tokens() + 63) / 64
	sc.bits = zeroed(sc.bits, p.Stages*words)
	bits := sc.bits
	has := func(s int, tok token) bool {
		i := g.token(tok)
		return bits[s*words+i/64]&(1<<(i%64)) != 0
	}
	set := func(s int, tok token) {
		i := g.token(tok)
		bits[s*words+i/64] |= 1 << (i % 64)
	}
	var io opTokens
	for {
		progress := false
		for s := 0; s < p.Stages; s++ {
			c := &at[s]
		stageLoop:
			for int(c.pc) < len(p.Ops[s]) {
				op := &p.Ops[s][c.pc]
				switch op.Kind {
				case KRecv:
					k := find(g.tag(op.Tag), op.Peer, int32(s))
					if k < 0 || sent[k].consumed {
						break stageLoop // block until the matching send
					}
					sent[k].consumed = true
					slots[c.recv] = k
					c.recv++
					set(s, tokenOfTag(op.Tag))
				case KSend:
					if !has(s, tokenOfTag(op.Tag)) {
						return nil, fmt.Errorf("sched: stage %d sends %v before producing it", s, op.Tag)
					}
					t := g.tag(op.Tag)
					if find(t, int32(s), op.Peer) >= 0 {
						return nil, fmt.Errorf("sched: stage %d sends %v to stage %d twice", s, op.Tag, op.Peer)
					}
					sent[c.send] = message{from: int32(s), to: op.Peer, earlier: latest[t]}
					latest[t] = c.send + 1
					c.send++
				default:
					opIO(op, int32(p.Layers), &io)
					for _, tok := range io.req[:io.nreq] {
						if !has(s, tok) {
							return nil, fmt.Errorf("sched: stage %d op %v: missing input token %+v", s, *op, tok)
						}
					}
					for _, tok := range io.prod[:io.nprod] {
						set(s, tok)
					}
				}
				c.pc++
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	for s := 0; s < p.Stages; s++ {
		if pc := at[s].pc; int(pc) != len(p.Ops[s]) {
			return nil, fmt.Errorf("sched: deadlock: stage %d blocked at op %d (%v)", s, pc, p.Ops[s][pc])
		}
	}
	// Every recv consumed a distinct send, so a send is left over exactly
	// when there are fewer recvs; name the first in slot order.
	if recvs < sends {
		var k int32
		for s, ops := range p.Ops {
			for i := range ops {
				if op := &ops[i]; op.Kind == KSend {
					if !sent[k].consumed {
						return nil, fmt.Errorf("sched: message %v from %d to %d sent but never received", op.Tag, s, op.Peer)
					}
					k++
				}
			}
		}
	}
	return slots, nil
}

// stashPeaks walks every stage's stash in program order and returns the
// per-stage peaks with the first conservation violation: a running balance
// that goes negative, or a stage whose allocations and frees differ over the
// iteration (a leak across iterations). The walk always finishes, so a plan
// run below the validator still gets every stage's peak.
func stashPeaks(p *Plan) ([]int64, error) {
	peaks := make([]int64, len(p.Ops))
	var first error
	for s, ops := range p.Ops {
		var bal int64
		for i := range ops {
			op := &ops[i]
			bal += op.Alloc
			peaks[s] = max(peaks[s], bal)
			bal -= op.Free
			if bal < 0 && first == nil {
				first = fmt.Errorf("sched: stage %d op %d (%v): stash balance negative (%d)", s, i, *op, bal)
			}
		}
		if bal != 0 && first == nil {
			first = fmt.Errorf("sched: stage %d leaks %d stash bytes per iteration", s, bal)
		}
	}
	return peaks, first
}

package sched

import (
	"fmt"
	"slices"
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
//
// The machine visits the stages round-robin, each running until a recv
// whose send has not run yet blocks it. A stage's tokens come only from its
// own ops, its recvs included, and a stage that reaches an op has consumed
// every recv before it, so the token set an op meets does not depend on the
// visit order. Validate therefore makes one stage-major walk that checks
// every op and finds each stage's first local fault as if every recv
// arrived, then replays the round-robin visits over the message ops alone:
// the replay decides which recvs ever arrive and which stage reaches its
// fault first, and so names the same fault, deadlock or unreceived message
// as the machine run op by op.

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

// token is one abstract value, as a fault names a missing input.
type token struct {
	kind  tokKind
	mb    int32
	layer int32
	seg   model.Segment // only for tokWEnable
}

// tagTokens is the token a message carries, by direction and boundary.
var tagTokens = [2][bounds]tokKind{{tokA, tokQ, tokO}, {tokGA, tokGQ, tokGO}}

// geometry indexes the dense tables the checks run on. The walk indexes
// only ops it has confined to it: compute targets to layers in [LayerHead,
// layers) and model.Segments, tags to micro batches in [0, mbs), boundary
// layers in [0, layers] and the three boundary kinds.
type geometry struct {
	mbs, layers int
}

// segs is the segment count every table entry is split by.
const segs = len(model.Segments)

// targets is the number of (micro batch, target layer, segment) slots.
func (g geometry) targets() int { return g.mbs * (g.layers - LayerHead) * segs }

// target indexes one (micro batch, target layer, segment) slot.
func (g geometry) target(mb, layer int32, seg model.Segment) int {
	return (int(mb)*(g.layers-LayerHead)+int(layer)-LayerHead)*segs + int(seg)
}

// cellBits is the number of token bits per (micro batch, layer) cell: one
// per value kind below tokWEnable, and one backward-W enable per segment.
const cellBits = int(tokWEnable) + segs

// tokens is the number of token bits, a cell per (mb, layer in [-2, L]).
func (g geometry) tokens() int { return g.mbs * (g.layers + 1 - LayerHead) * cellBits }

// cell returns the first token bit of (mb, layer). The cell of layer+1
// follows it, so a kind's bit there is cellBits further.
func (g geometry) cell(mb, layer int32) int {
	return (int(mb)*(g.layers+1-LayerHead) + int(layer) - LayerHead) * cellBits
}

// token decodes a token bit, to name it in a fault.
func (g geometry) token(bit int) token {
	c, k := bit/cellBits, bit%cellBits
	t := token{kind: tokKind(k), mb: int32(c / (g.layers + 1 - LayerHead)), layer: int32(c%(g.layers+1-LayerHead) + LayerHead)}
	if t.kind > tokWEnable {
		t.kind, t.seg = tokWEnable, model.Segment(k-int(tokWEnable))
	}
	return t
}

// tagBit returns the bit of the token a message of tag t carries.
func (g geometry) tagBit(t Tag) int {
	kind := tagTokens[0][t.Bound]
	if t.Back {
		kind = tagTokens[1][t.Bound]
	}
	return g.cell(t.MB, t.Layer) + int(kind)
}

// effect returns the token bit a compute op requires and the bits it
// produces, -1 for none. Recompute ops have no token effects (they
// regenerate locally stashed intermediates).
func (g geometry) effect(op *Op) (need, made, made2 int) {
	c := g.cell(op.MB, op.Layer)
	next, w := c+cellBits, c+int(tokWEnable)
	need, made, made2 = -1, -1, -1
	switch op.Kind {
	case KForward:
		switch {
		case op.Layer == LayerEmbed:
			made = next + int(tokA)
		case op.Layer == LayerHead:
			need = g.cell(op.MB, int32(g.layers)) + int(tokA)
		case op.Seg == model.SegPre:
			need, made = c+int(tokA), c+int(tokQ)
		case op.Seg == model.SegAttn:
			need, made = c+int(tokQ), c+int(tokO)
		default:
			need, made = c+int(tokO), next+int(tokA)
		}
	case KBackwardB:
		switch {
		case op.Layer == LayerHead:
			// Deferred head: forward + loss + backward in one op (4.6).
			top := g.cell(op.MB, int32(g.layers))
			need, made, made2 = top+int(tokA), top+int(tokGA), w
		case op.Layer == LayerEmbed:
			need = next + int(tokGA)
		case op.Seg == model.SegPost:
			need, made, made2 = next+int(tokGA), c+int(tokGO), w+int(model.SegPost)
		case op.Seg == model.SegAttn:
			need, made = c+int(tokGO), c+int(tokGQ)
		default:
			need, made, made2 = c+int(tokGQ), c+int(tokGA), w+int(model.SegPre)
		}
	case KBackwardW:
		switch op.Layer {
		case LayerHead:
			need = w
		case LayerEmbed:
			need = next + int(tokGA)
		default:
			need = w + int(op.Seg)
		}
	}
	return need, made, made2
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

// bitset is one stage's token set.
type bitset []uint64

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }

// Validate checks the plan's structural and dataflow invariants and returns
// a descriptive error for the first violation found: an op's field ranges
// (the first op in stage-major order), then the op counts with stash
// locality, the dataflow the replay decides, and last the stash balance. A
// valid plan memoizes the verdict, RecvSlots, MessageBases and StashPeaks.
func Validate(p *Plan) error {
	if p.validated {
		return nil
	}
	if len(p.Ops) != p.Stages {
		return fmt.Errorf("sched: plan has %d stage programs, want %d", len(p.Ops), p.Stages)
	}
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
		for stage, dev := range p.Placement {
			if dev < 0 {
				return fmt.Errorf("sched: plan placement stage %d on negative device %d", stage, dev)
			}
			if prev := slices.Index(p.Placement[:stage], dev); prev >= 0 {
				return fmt.Errorf("sched: plan placement stages %d and %d share device %d", prev, stage, dev)
			}
		}
	}
	// A complete plan holds at least one forward per (micro batch, layer)
	// plus an embedding forward per micro batch. A plan with fewer ops gets
	// no tables, which its geometry would size past the plan's own length
	// (the message table alone has 6·m·(L+1) entries): the walk checks its
	// ops' fields, and it fails after.
	n := p.NumOps()
	sized := p.MicroBatches <= n/(p.Layers+1)
	g := geometry{}
	if sized {
		g = geometry{mbs: p.MicroBatches, layers: p.Layers}
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.reset(g, p.Stages)
	if err := sc.walk(p, g, sized); err != nil {
		return err
	}
	if !sized {
		return fmt.Errorf("sched: plan has %d ops, too few for %d micro batches of %d layers",
			n, p.MicroBatches, p.Layers)
	}
	if sc.homeErr != nil {
		return sc.homeErr
	}
	if err := countFault(g, sc.tgt); err != nil {
		return err
	}
	// The match and the ordinals, sends then recvs, share one allocation.
	sends, recvs := int32(len(sc.sent)), int32(len(sc.msgs)-len(sc.sent))
	memo := make([]int32, int(recvs)+2*(p.Stages+1))
	slots, bases := memo[:recvs:recvs], memo[recvs:]
	for s, w := range sc.stages {
		bases[s], bases[p.Stages+1+s] = w.send, w.recv
	}
	bases[p.Stages], bases[2*p.Stages+1] = sends, recvs
	if err := sc.replay(p, g, slots); err != nil {
		return err
	}
	if sc.memErr != nil {
		return sc.memErr
	}
	peaks := make([]int64, p.Stages)
	for s, w := range sc.stages {
		peaks[s] = w.peak
	}
	p.validated = true
	p.recvSlots, p.msgBases = slots, bases
	p.stashPeaks = peaks
	return nil
}

// scratch holds the validator's working tables. Each is sized by the plan
// and dead once Validate returns, so they come from scratchPool and are
// cleared on reuse (zeroed) rather than allocated per plan.
type scratch struct {
	// tgt holds per target its forward, backward-B and backward-W counts
	// and 1 + the stage of its latest forward (0 before any).
	tgt [][4]int32
	// bits is the token set of the stage being walked.
	bits bitset
	// latest[tag] holds 1 + the slot of the tag's latest send, 0 before
	// any, and sent[slot] the send's message: recvs find their sends in
	// tables indexed by tag, not by hashing.
	latest []int32
	sent   []message
	msgs   []int32 // the op index of every message op, stage-major
	stages []stageWalk
	// homeErr is the first stash-locality fault, memErr the first stash
	// balance fault, both in stage-major order.
	homeErr, memErr error
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// message is one send: its stages and op index, 1 + the slot of the
// previous send of its tag (0 for none), and whether the replay ran it and
// a recv consumed it.
type message struct {
	from, to, at, earlier int32
	ran, consumed         bool
}

// stageWalk is one stage's result of the walk and its replay cursor: the
// stage's first local fault (nil for none) and its op index (the program
// length for none), its stash peak, its next op, the index in msgs of its
// next message op and the end of its message ops, and the slot of its next
// send and the ordinal of its next recv.
type stageWalk struct {
	fault                       error
	stop                        int32
	peak                        int64
	pc, msg, msgEnd, send, recv int32
}

// reset sizes the tables for a plan of geometry g and the given stages.
func (sc *scratch) reset(g geometry, stages int) {
	sc.tgt = zeroed(sc.tgt, g.targets())
	sc.bits = resize(sc.bits, (g.tokens()+63)/64)
	sc.latest = zeroed(sc.latest, g.tags())
	// A built plan sends and receives each tag at most once, so at these
	// capacities the walk's appends never regrow the message tables: a
	// fresh scratch allocates each once.
	sc.sent, sc.msgs = resize(sc.sent, g.tags())[:0], resize(sc.msgs, 2*g.tags())[:0]
	sc.stages = resize(sc.stages, stages)
	sc.homeErr, sc.memErr = nil, nil
}

// resize returns buf at length n, reusing its array when it is large
// enough. Reused elements keep what the last user left in them.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// zeroed returns buf resized to n zero elements, reusing its array when it
// is large enough.
func zeroed[T any](buf []T, n int) []T {
	buf = resize(buf, n)
	clear(buf)
	return buf
}

// find walks tag t's chain for the send from stage from to stage to: its
// slot, or -1. No builder sends one tag to two peers, so a chain is one
// send long.
func (sc *scratch) find(t int, from, to int32) int32 {
	for k := sc.latest[t]; k != 0; k = sc.sent[k-1].earlier {
		if e := &sc.sent[k-1]; e.from == from && e.to == to {
			return k - 1
		}
	}
	return -1
}

// walk makes the one pass over every op, stage-major. It returns the first
// op whose fields leave the plan's ranges. On a sized plan it also counts
// the ops per target, numbers the message ops, chains every send by tag but
// a repeat of an earlier (tag, from, to), sums each stage's stash, and runs
// each stage's tokens as if every recv arrived, recording the stage's first
// local fault: a compute op missing an input, or a send of a token not yet
// produced or of a message already sent.
func (sc *scratch) walk(p *Plan, g geometry, sized bool) error {
	for s, ops := range p.Ops {
		clear(sc.bits)
		bits, self := sc.bits, int32(s)
		w := &sc.stages[s]
		*w = stageWalk{stop: int32(len(ops)), msg: int32(len(sc.msgs)),
			send: int32(len(sc.sent)), recv: int32(len(sc.msgs) - len(sc.sent))}
		var bal, peak int64
		for i := range ops {
			op := &ops[i]
			bal += op.Alloc
			peak = max(peak, bal)
			bal -= op.Free
			if bal < 0 && sc.memErr == nil {
				sc.memErr = fmt.Errorf("sched: stage %d op %d (%v): stash balance negative (%d)", s, i, *op, bal)
			}
			switch op.Kind {
			case KSend, KRecv:
				switch t := op.Tag; {
				case op.Alloc != 0 || op.Free != 0:
					return fmt.Errorf("sched: stage %d op %d (%v): stash on a message op", s, i, *op)
				case op.Peer < 0 || int(op.Peer) >= p.Stages:
					return fmt.Errorf("sched: stage %d op %d (%v): peer out of range", s, i, *op)
				case op.Peer == self:
					return fmt.Errorf("sched: stage %d op %d (%v): self communication", s, i, *op)
				case op.MB < 0:
					return fmt.Errorf("sched: stage %d op %d (%v): micro batch out of range", s, i, *op)
				case t.MB < 0 || int(t.MB) >= p.MicroBatches || t.Layer < 0 || int(t.Layer) > p.Layers ||
					t.Bound < BoundAct || t.Bound > BoundAttnPost:
					return fmt.Errorf("sched: stage %d op %d (%v): tag outside the plan's %d micro batches and %d layers",
						s, i, *op, p.MicroBatches, p.Layers)
				case !sized:
					continue
				}
				sc.msgs = append(sc.msgs, int32(i))
				if op.Kind == KRecv {
					if w.fault == nil {
						bits.set(g.tagBit(op.Tag))
					}
					continue
				}
				t := g.tag(op.Tag)
				k := sc.find(t, self, op.Peer)
				switch {
				case w.fault != nil:
				case !bits.has(g.tagBit(op.Tag)):
					w.fault, w.stop = fmt.Errorf("sched: stage %d sends %v before producing it", s, op.Tag), int32(i)
				case k >= 0:
					w.fault, w.stop = fmt.Errorf("sched: stage %d sends %v to stage %d twice", s, op.Tag, op.Peer), int32(i)
				}
				m := message{from: self, to: op.Peer, at: int32(i)}
				if k < 0 {
					// Only a stage's first send of a message can ever run: a
					// repeat is the stage's fault or lies past it.
					m.earlier, sc.latest[t] = sc.latest[t], int32(len(sc.sent))+1
				}
				sc.sent = append(sc.sent, m)
			case KForward, KBackwardB, KBackwardW, KRecompute:
				switch {
				case op.Dur < 0:
					return fmt.Errorf("sched: stage %d op %d (%v): negative duration", s, i, *op)
				case op.MB < 0 || int(op.MB) >= p.MicroBatches:
					return fmt.Errorf("sched: stage %d op %d (%v): micro batch out of range", s, i, *op)
				case op.Layer < LayerHead || int(op.Layer) >= p.Layers || op.Seg < 0 || int(op.Seg) >= segs:
					return fmt.Errorf("sched: stage %d op %d (%v): layer %d segment %d outside the plan's %d layers",
						s, i, *op, op.Layer, op.Seg, p.Layers)
				case !sized || op.Kind == KRecompute:
					continue
				}
				t := &sc.tgt[g.target(op.MB, op.Layer, op.Seg)]
				t[op.Kind]++
				if op.Kind == KForward {
					t[3] = self + 1
				} else if fs := t[3] - 1; op.Layer >= 0 && fs >= 0 && fs != self && sc.homeErr == nil {
					sc.homeErr = fmt.Errorf("sched: %v on stage %d but forward ran on stage %d (stash not local)", *op, s, fs)
				}
				if w.fault != nil {
					continue
				}
				need, made, made2 := g.effect(op)
				if need >= 0 && !bits.has(need) {
					w.fault, w.stop = fmt.Errorf("sched: stage %d op %v: missing input token %+v", s, *op, g.token(need)), int32(i)
					continue
				}
				for _, b := range [2]int{made, made2} {
					if b >= 0 {
						bits.set(b)
					}
				}
			default:
				return fmt.Errorf("sched: stage %d op %d (%v): unknown op kind", s, i, *op)
			}
		}
		if bal != 0 && sc.memErr == nil {
			sc.memErr = fmt.Errorf("sched: stage %d leaks %d stash bytes per iteration", s, bal)
		}
		w.peak, w.msgEnd = peak, int32(len(sc.msgs))
	}
	return nil
}

// countFault checks that every (micro batch, layer, segment) gets exactly
// one forward, one backward-B, exactly one backward-W for the parameterized
// segments and none for attention, plus exactly one embedding forward,
// embedding W, head backward and head W per micro batch, and names the
// first that does not in that order.
func countFault(g geometry, tgt [][4]int32) error {
	for mb := int32(0); int(mb) < g.mbs; mb++ {
		for l := int32(0); int(l) < g.layers; l++ {
			for _, seg := range model.Segments {
				c := &tgt[g.target(mb, l, seg)]
				if c[KForward] != 1 {
					return fmt.Errorf("sched: F(l%d.%v,mb%d) emitted %d times", l, seg, mb, c[KForward])
				}
				if c[KBackwardB] != 1 {
					return fmt.Errorf("sched: B(l%d.%v,mb%d) emitted %d times", l, seg, mb, c[KBackwardB])
				}
				var wantW int32
				if seg != model.SegAttn {
					wantW = 1
				}
				if c[KBackwardW] != wantW {
					return fmt.Errorf("sched: W(l%d.%v,mb%d) emitted %d times, want %d", l, seg, mb, c[KBackwardW], wantW)
				}
			}
		}
		embed, head := &tgt[g.target(mb, LayerEmbed, model.SegPre)], &tgt[g.target(mb, LayerHead, model.SegPre)]
		switch {
		case embed[KForward] != 1:
			return fmt.Errorf("sched: embed F for mb%d emitted %d times", mb, embed[KForward])
		case embed[KBackwardW] != 1:
			return fmt.Errorf("sched: embed W for mb%d emitted %d times", mb, embed[KBackwardW])
		case head[KBackwardB] != 1:
			return fmt.Errorf("sched: head FB for mb%d emitted %d times", mb, head[KBackwardB])
		case head[KBackwardW] != 1:
			return fmt.Errorf("sched: head W for mb%d emitted %d times", mb, head[KBackwardW])
		}
	}
	return nil
}

// replay runs the round-robin machine over the message ops alone. A visit
// runs a stage to its first local fault, which fails the plan, or to a recv
// whose send has not run or was consumed, which blocks it, or to its end;
// the ops between two message ops touch only their own stage. The machine
// stops when a round moves no stage. Each consumed recv's send slot is
// written to slots.
func (sc *scratch) replay(p *Plan, g geometry, slots []int32) error {
	for progress := true; progress; {
		progress = false
		for s := range sc.stages {
			w, ops := &sc.stages[s], p.Ops[s]
			from := w.pc
			for {
				next := int32(len(ops))
				if w.msg < w.msgEnd {
					next = sc.msgs[w.msg]
				}
				if w.stop <= next {
					if w.pc = w.stop; w.fault != nil {
						return w.fault
					}
					break
				}
				if op := &ops[next]; op.Kind == KRecv {
					k := sc.find(g.tag(op.Tag), op.Peer, int32(s))
					if w.pc = next; k < 0 || !sc.sent[k].ran || sc.sent[k].consumed {
						break // block until the matching send
					}
					sc.sent[k].consumed = true
					slots[w.recv] = k
					w.recv++
				} else {
					sc.sent[w.send].ran = true
					w.send++
				}
				w.pc, w.msg = next+1, w.msg+1
			}
			progress = progress || w.pc != from
		}
	}
	for s, w := range sc.stages {
		if int(w.pc) != len(p.Ops[s]) {
			return fmt.Errorf("sched: deadlock: stage %d blocked at op %d (%v)", s, w.pc, p.Ops[s][w.pc])
		}
	}
	// Every recv consumed a distinct send, so a send is left over exactly
	// when there are fewer recvs; name the first in slot order.
	if len(slots) == len(sc.sent) {
		return nil
	}
	for _, m := range sc.sent {
		if !m.consumed {
			op := &p.Ops[m.from][m.at]
			return fmt.Errorf("sched: message %v from %d to %d sent but never received", op.Tag, m.from, op.Peer)
		}
	}
	return nil
}

// StashPeaks returns each stage's peak activation stash: the largest running
// sum of its ops' Alloc and Free in program order, an op's Alloc counting
// before its Free. The sum does not depend on timing, so it is the peak
// sim.Run reports. A validated plan returns the peaks its walk recorded,
// shared and read-only. Any other plan is summed here.
func StashPeaks(p *Plan) []int64 {
	if p.validated {
		return p.stashPeaks
	}
	peaks := make([]int64, len(p.Ops))
	for s, ops := range p.Ops {
		var bal int64
		for i := range ops {
			bal += ops[i].Alloc
			peaks[s] = max(peaks[s], bal)
			bal -= ops[i].Free
		}
	}
	return peaks
}

// MessageBases returns the plan's message ordinals by stage: sends[s] and
// recvs[s] count the KSends and KRecvs of the programs before stage s, and
// sends[Stages] and recvs[Stages] are the plan's totals. Slots (RecvSlots)
// are numbered by the same ordinals. A validated plan returns the ordinals
// its walk numbered the messages by, shared and read-only. Any other plan
// is walked here.
func MessageBases(p *Plan) (sends, recvs []int32) {
	n := p.Stages + 1
	if p.validated {
		return p.msgBases[:n:n], p.msgBases[n:]
	}
	sends, recvs = make([]int32, n), make([]int32, n)
	for s := 0; s < p.Stages; s++ {
		sends[s+1], recvs[s+1] = sends[s], recvs[s]
		for i := range p.Ops[s] {
			switch p.Ops[s][i].Kind {
			case KSend:
				sends[s+1]++
			case KRecv:
				recvs[s+1]++
			}
		}
	}
	return sends, recvs
}

// RecvSlots matches every recv of the plan to the send it consumes. It
// returns one entry per KRecv, in stage-major program order, holding that
// send's slot: its ordinal among the plan's KSends in the same order, or -1
// when no send matches. A validated plan returns the match its replay
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

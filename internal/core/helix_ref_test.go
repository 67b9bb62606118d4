package core

// This file keeps the helix builder exactly as it stood before the
// ready-list scheduler replaced it: an earliest-start list scheduler that
// rescans every task on every pick, with map-keyed arrival estimates. It is
// the reference oracle of TestHelixMatchesReferenceScheduler; only the type
// and function names differ from the original.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/sched"
)

// refBuild is Build's scheduling core on the reference builder: it emits the
// per-stage op programs for an already validated configuration.
func refBuild(cfg sched.Config, costs sched.Costs, opt Options) ([][]sched.Op, error) {
	b := &refHelixBuilder{cfg: cfg, costs: costs, opt: opt}
	b.buildTasks()
	if err := b.schedule(); err != nil {
		return nil, err
	}
	return b.ops, nil
}

// refTask is one schedulable unit of helix work. Unit tasks process a whole
// fold group back to back (the essence of the two-fold schedule); attention
// tasks are per micro batch so they interleave freely.
type refTask struct {
	id      int
	kind    taskKind
	unit    int   // unit index for tUnitF/tUnitB (0..L); layer for attention
	mbs     []int // the micro batches, in emission order
	stage   int
	key     [4]int // lexicographic priority
	prereqs []int
}

type refHelixBuilder struct {
	cfg   sched.Config
	costs sched.Costs
	opt   Options

	tasks []refTask
	ops   [][]sched.Op

	// scheduling state
	arrival map[sched.Tag]float64
	clock   []float64
	done    []bool
	endAt   []float64
	// NIC availability per stage (full duplex), mirrored from the
	// simulator so arrival estimates account for link contention and the
	// emitted program order matches true arrival order.
	sendFree []float64
	recvFree []float64
}

func (b *refHelixBuilder) addTask(t refTask) int {
	t.id = len(b.tasks)
	b.tasks = append(b.tasks, t)
	return t.id
}

// buildTasks enumerates every task of one training iteration with its
// priority key and prerequisites.
func (b *refHelixBuilder) buildTasks() {
	p, m, L := b.cfg.Stages, b.cfg.MicroBatches, b.cfg.Layers
	fold := b.opt.Fold
	loopSize := fold * p
	loops := m / loopSize

	// Task id lookup tables.
	unitF := make([][]int, L+1) // [unit][group] -> task id
	attnF := make([][]int, L)   // [layer][mb] -> task id
	for u := range unitF {
		unitF[u] = make([]int, m/fold)
	}
	for l := range attnF {
		attnF[l] = make([]int, m)
	}
	groupMBs := func(g int) []int {
		mbs := make([]int, fold)
		for i := range mbs {
			mbs[i] = g*fold + i
		}
		return mbs
	}
	totalGroups := m / fold

	// Forward unit and attention tasks.
	for u := 0; u <= L; u++ {
		for g := 0; g < totalGroups; g++ {
			loop := (g * fold) / loopSize
			gInLoop := g % p
			t := refTask{
				kind:  tUnitF,
				unit:  u,
				mbs:   groupMBs(g),
				stage: UnitOwner(u, p),
				key:   [4]int{0, loop, 2 * u, gInLoop},
			}
			if u > 0 {
				for _, mb := range t.mbs {
					t.prereqs = append(t.prereqs, attnF[u-1][mb])
				}
			}
			unitF[u][g] = b.addTask(t)
		}
		if u == L {
			break
		}
		for g := 0; g < totalGroups; g++ {
			for _, mb := range groupMBs(g) {
				loop := mb / loopSize
				t := refTask{
					kind:    tAttnF,
					unit:    u,
					mbs:     []int{mb},
					stage:   AttnStage(u, mb, p),
					key:     [4]int{0, loop, 2*u + 1, mb % loopSize},
					prereqs: []int{unitF[u][g]},
				}
				attnF[u][mb] = b.addTask(t)
			}
		}
	}

	// Backward: FILO — loops in reverse, micro batches in reverse.
	unitB := make([][]int, L+1)
	attnB := make([][]int, L)
	for u := range unitB {
		unitB[u] = make([]int, totalGroups)
	}
	for l := range attnB {
		attnB[l] = make([]int, m)
	}
	invLoop := func(loop int) int { return loops - 1 - loop }
	for u := L; u >= 0; u-- {
		for g := totalGroups - 1; g >= 0; g-- {
			loop := (g * fold) / loopSize
			gInLoop := g % p
			mbs := groupMBs(g)
			rev := make([]int, len(mbs))
			for i, mb := range mbs {
				rev[len(mbs)-1-i] = mb
			}
			t := refTask{
				kind:  tUnitB,
				unit:  u,
				mbs:   rev,
				stage: UnitOwner(u, p),
				key:   [4]int{1, invLoop(loop), 2 * (L - u), p - 1 - gInLoop},
			}
			if u == L {
				t.prereqs = append(t.prereqs, unitF[u][g])
			} else {
				for _, mb := range t.mbs {
					t.prereqs = append(t.prereqs, attnB[u][mb])
				}
				t.prereqs = append(t.prereqs, unitF[u][g])
			}
			unitB[u][g] = b.addTask(t)
		}
		if u == 0 {
			break
		}
		l := u - 1 // attention backward of layer u-1 follows unit u backward
		for g := totalGroups - 1; g >= 0; g-- {
			mbs := groupMBs(g)
			for i := len(mbs) - 1; i >= 0; i-- {
				mb := mbs[i]
				loop := mb / loopSize
				t := refTask{
					kind:    tAttnB,
					unit:    l,
					mbs:     []int{mb},
					stage:   AttnStage(l, mb, p),
					key:     [4]int{1, invLoop(loop), 2*(L-u) + 1, loopSize - 1 - mb%loopSize},
					prereqs: []int{unitB[u][g], attnF[l][mb]},
				}
				attnB[l][mb] = b.addTask(t)
			}
		}
	}
}

// schedule orders the tasks with deterministic earliest-start greedy list
// scheduling and emits the per-stage op programs.
func (b *refHelixBuilder) schedule() error {
	p := b.cfg.Stages
	b.ops = make([][]sched.Op, p)
	b.arrival = map[sched.Tag]float64{}
	b.clock = make([]float64, p)
	b.done = make([]bool, len(b.tasks))
	b.endAt = make([]float64, len(b.tasks))
	b.sendFree = make([]float64, p)
	b.recvFree = make([]float64, p)

	remaining := len(b.tasks)
	// Stable candidate iteration order: by key then id.
	order := make([]int, len(b.tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, c := b.tasks[order[i]], b.tasks[order[j]]
		if a.key != c.key {
			return refLessKey(a.key, c.key)
		}
		return a.id < c.id
	})

	for remaining > 0 {
		bestIdx, bestStart := -1, math.MaxFloat64
		for _, id := range order {
			t := &b.tasks[id]
			if b.done[id] {
				continue
			}
			ready := true
			depEnd := 0.0
			for _, pre := range t.prereqs {
				if !b.done[pre] {
					ready = false
					break
				}
				if b.endAt[pre] > depEnd {
					depEnd = b.endAt[pre]
				}
			}
			if !ready {
				continue
			}
			start := math.Max(b.clock[t.stage], b.firstInputArrival(t))
			if start < bestStart-1e-15 {
				bestIdx, bestStart = id, start
			}
		}
		if bestIdx < 0 {
			return fmt.Errorf("core: helix scheduling wedged with %d tasks remaining", remaining)
		}
		b.runTask(&b.tasks[bestIdx])
		b.done[bestIdx] = true
		remaining--
	}
	return nil
}

func refLessKey(a, c [4]int) bool {
	for i := range a {
		if a[i] != c[i] {
			return a[i] < c[i]
		}
	}
	return false
}

// firstInputArrival returns the arrival estimate of the task's first message
// input, or 0 when it has none.
func (b *refHelixBuilder) firstInputArrival(t *refTask) float64 {
	tags := b.inputTags(t, t.mbs[0])
	first := 0.0
	for _, tag := range tags {
		if a, ok := b.arrival[tag]; ok && a > first {
			first = a
		}
	}
	return first
}

// inputTags returns the message tags one micro-batch piece of the task
// consumes.
func (b *refHelixBuilder) inputTags(t *refTask, mb int) []sched.Tag {
	L := b.cfg.Layers
	switch t.kind {
	case tUnitF:
		if t.unit == 0 {
			return nil
		}
		return []sched.Tag{{MB: int32(mb), Layer: int32(t.unit - 1), Bound: sched.BoundAttnPost}}
	case tAttnF:
		return []sched.Tag{{MB: int32(mb), Layer: int32(t.unit), Bound: sched.BoundPreAttn}}
	case tUnitB:
		if t.unit == L {
			return nil
		}
		return []sched.Tag{{MB: int32(mb), Layer: int32(t.unit), Bound: sched.BoundPreAttn, Back: true}}
	default: // tAttnB
		return []sched.Tag{{MB: int32(mb), Layer: int32(t.unit), Bound: sched.BoundAttnPost, Back: true}}
	}
}

// runTask emits the ops of a task and advances the builder clocks.
func (b *refHelixBuilder) runTask(t *refTask) {
	switch t.kind {
	case tUnitF:
		b.runUnitF(t)
	case tAttnF:
		b.runAttn(t, false)
	case tUnitB:
		b.runUnitB(t)
	default:
		b.runAttn(t, true)
	}
	b.endAt[t.id] = b.clock[t.stage]
}

func (b *refHelixBuilder) emit(stage int, op sched.Op) { b.ops[stage] = append(b.ops[stage], op) }

// recvPiece emits the recv ops for one micro-batch piece and returns the
// stage clock after waiting for the arrivals. When the producer ran on this
// very stage (the attention of micro batch mb at layer l is co-located with
// a pre/post owner whenever (l+mb+1) = l or l+1 mod p) the value is already
// local and no communication op is emitted.
func (b *refHelixBuilder) recvPiece(t *refTask, mb int, from int, clock float64) float64 {
	for _, tag := range b.inputTags(t, mb) {
		if from != t.stage {
			b.emit(t.stage, sched.Op{Kind: sched.KRecv, MB: int32(mb), Peer: int32(from), Tag: tag})
		}
		if a, ok := b.arrival[tag]; ok && a > clock {
			clock = a
		}
	}
	return clock
}

// sendPiece emits a send and records the message arrival estimate. Naive
// FILO (fold 1) uses blocking sends that occupy the compute stream (the
// paper's Figure 6a behaviour); the two-fold schedule sends asynchronously.
func (b *refHelixBuilder) sendPiece(stage, mb, peer int, tag sched.Tag, clock float64) float64 {
	if peer == stage {
		// Co-located consumer: the value is available immediately, no
		// transfer happens.
		b.arrival[tag] = clock
		return clock
	}
	blocking := b.opt.Fold == 1
	bytes := b.costs.MB(int(tag.MB)).BoundBytes[tag.Bound]
	b.emit(stage, sched.Op{
		Kind: sched.KSend, MB: int32(mb), Peer: int32(peer), Tag: tag, Bytes: bytes, Blocking: blocking,
	})
	// Reserve the duplex NIC pair exactly like the simulator does, so the
	// emitted program order anticipates link contention.
	var wire float64
	if b.costs.P2PBytesPerSec > 0 {
		wire = float64(bytes) / b.costs.P2PBytesPerSec
	}
	start := clock
	if b.sendFree[stage] > start {
		start = b.sendFree[stage]
	}
	if b.recvFree[peer] > start {
		start = b.recvFree[peer]
	}
	end := start + wire
	arrival := end + b.costs.P2PLatency
	b.sendFree[stage] = end
	b.recvFree[peer] = end
	b.arrival[tag] = arrival
	if blocking {
		return arrival
	}
	return clock
}

// stashAlloc returns the forward allocation for one micro batch's segment
// under the active memory strategy.
func (b *refHelixBuilder) stashAlloc(mb int, seg model.Segment) int64 {
	c := b.costs.MB(mb)
	if b.opt.Recompute {
		return c.HelixSegStash[seg]
	}
	return c.SegStash[seg]
}

// attnFree returns the stash released by one micro batch's attention backward.
func (b *refHelixBuilder) attnFree(mb int) int64 {
	c := b.costs.MB(mb)
	if b.opt.Recompute {
		return c.HelixSegStash[model.SegAttn]
	}
	return c.SegStash[model.SegAttn]
}

func (b *refHelixBuilder) runUnitF(t *refTask) {
	L, p := b.cfg.Layers, b.cfg.Stages
	clock := b.clock[t.stage]
	for _, mb := range t.mbs {
		c := b.costs.StageMB(t.stage, mb)
		if t.unit > 0 {
			from := AttnStage(t.unit-1, mb, p)
			clock = b.recvPiece(t, mb, from, clock)
			b.emit(t.stage, sched.Op{Kind: sched.KForward, MB: int32(mb), Layer: int32(t.unit - 1), Seg: model.SegPost,
				Dur: c.Seg[model.SegPost][model.Forward], Alloc: b.stashAlloc(mb, model.SegPost)})
			clock += c.Seg[model.SegPost][model.Forward]
		} else {
			b.emit(t.stage, sched.Op{Kind: sched.KForward, MB: int32(mb), Layer: sched.LayerEmbed, Dur: c.EmbedF})
			clock += c.EmbedF
		}
		if t.unit < L {
			b.emit(t.stage, sched.Op{Kind: sched.KForward, MB: int32(mb), Layer: int32(t.unit), Seg: model.SegPre,
				Dur: c.Seg[model.SegPre][model.Forward], Alloc: b.stashAlloc(mb, model.SegPre)})
			clock += c.Seg[model.SegPre][model.Forward]
			clock = b.sendPiece(t.stage, mb, AttnStage(t.unit, mb, p),
				sched.Tag{MB: int32(mb), Layer: int32(t.unit), Bound: sched.BoundPreAttn}, clock)
		}
	}
	b.clock[t.stage] = clock
}

func (b *refHelixBuilder) runAttn(t *refTask, back bool) {
	p := b.cfg.Stages
	l := t.unit
	mb := t.mbs[0]
	c := b.costs.StageMB(t.stage, mb)
	clock := b.clock[t.stage]
	if back {
		clock = b.recvPiece(t, mb, PostOwner(l, p), clock)
		b.emit(t.stage, sched.Op{Kind: sched.KBackwardB, MB: int32(mb), Layer: int32(l), Seg: model.SegAttn,
			Dur: c.Seg[model.SegAttn][model.BackwardB], Free: b.attnFree(mb)})
		clock += c.Seg[model.SegAttn][model.BackwardB]
		clock = b.sendPiece(t.stage, mb, PreOwner(l, p),
			sched.Tag{MB: int32(mb), Layer: int32(l), Bound: sched.BoundPreAttn, Back: true}, clock)
	} else {
		clock = b.recvPiece(t, mb, PreOwner(l, p), clock)
		b.emit(t.stage, sched.Op{Kind: sched.KForward, MB: int32(mb), Layer: int32(l), Seg: model.SegAttn,
			Dur: c.Seg[model.SegAttn][model.Forward], Alloc: b.stashAlloc(mb, model.SegAttn)})
		clock += c.Seg[model.SegAttn][model.Forward]
		clock = b.sendPiece(t.stage, mb, PostOwner(l, p),
			sched.Tag{MB: int32(mb), Layer: int32(l), Bound: sched.BoundAttnPost}, clock)
	}
	b.clock[t.stage] = clock
}

func (b *refHelixBuilder) runUnitB(t *refTask) {
	L, p := b.cfg.Layers, b.cfg.Stages
	clock := b.clock[t.stage]
	for _, mb := range t.mbs {
		c := b.costs.StageMB(t.stage, mb)
		if t.unit == L {
			// Deferred LM head: forward + loss + backward-B fused (4.6),
			// weight gradient immediately after (no ZB1P-style deferral).
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardB, MB: int32(mb), Layer: sched.LayerHead,
				Dur: c.HeadFB, Alloc: c.EmbedGradStash})
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardW, MB: int32(mb), Layer: sched.LayerHead,
				Dur: c.HeadW, Free: c.EmbedGradStash})
			clock += c.HeadFB + c.HeadW
		} else {
			from := AttnStage(t.unit, mb, p)
			clock = b.recvPiece(t, mb, from, clock)
		}
		// Recompute the unit's discarded intermediates in forward order:
		// post-attention of layer unit-1, then pre-attention of layer unit.
		if b.opt.Recompute {
			if t.unit > 0 {
				b.emit(t.stage, sched.Op{Kind: sched.KRecompute, MB: int32(mb), Layer: int32(t.unit - 1), Seg: model.SegPost,
					Dur:   c.SegRecompute[model.SegPost],
					Alloc: c.SegStash[model.SegPost] - c.HelixSegStash[model.SegPost]})
				clock += c.SegRecompute[model.SegPost]
			}
			if t.unit < L {
				b.emit(t.stage, sched.Op{Kind: sched.KRecompute, MB: int32(mb), Layer: int32(t.unit), Seg: model.SegPre,
					Dur:   c.SegRecompute[model.SegPre],
					Alloc: c.SegStash[model.SegPre] - c.HelixSegStash[model.SegPre]})
				clock += c.SegRecompute[model.SegPre]
			}
		}
		if t.unit < L {
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardB, MB: int32(mb), Layer: int32(t.unit), Seg: model.SegPre,
				Dur: c.Seg[model.SegPre][model.BackwardB], Free: c.SegStashBFree[model.SegPre]})
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardW, MB: int32(mb), Layer: int32(t.unit), Seg: model.SegPre,
				Dur: c.Seg[model.SegPre][model.BackwardW], Free: c.SegStashWFree[model.SegPre]})
			clock += c.Seg[model.SegPre][model.BackwardB] + c.Seg[model.SegPre][model.BackwardW]
		}
		if t.unit > 0 {
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardB, MB: int32(mb), Layer: int32(t.unit - 1), Seg: model.SegPost,
				Dur: c.Seg[model.SegPost][model.BackwardB], Free: c.SegStashBFree[model.SegPost]})
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardW, MB: int32(mb), Layer: int32(t.unit - 1), Seg: model.SegPost,
				Dur: c.Seg[model.SegPost][model.BackwardW], Free: c.SegStashWFree[model.SegPost]})
			clock += c.Seg[model.SegPost][model.BackwardB] + c.Seg[model.SegPost][model.BackwardW]
			clock = b.sendPiece(t.stage, mb, AttnStage(t.unit-1, mb, p),
				sched.Tag{MB: int32(mb), Layer: int32(t.unit - 1), Bound: sched.BoundAttnPost, Back: true}, clock)
		} else {
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardW, MB: int32(mb), Layer: sched.LayerEmbed, Dur: c.EmbedW})
			clock += c.EmbedW
		}
	}
	b.clock[t.stage] = clock
}

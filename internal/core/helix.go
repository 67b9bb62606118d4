// Package core implements the paper's primary contribution: HelixPipe's
// attention parallel partition (section 4.2) and the first-in-last-out
// micro-batch schedules built on it — the naive FILO schedule and the
// asynchronous two-fold FILO schedule (section 4.3) — together with the
// recomputation-without-attention memory strategy (section 4.4.1).
//
// Plans are expressed in the shared IR of internal/sched, so the simulator
// and the numeric executor run HelixPipe exactly like the baselines. The
// package registers its three schedule variants in the sched method
// registry, which makes them reachable from every registry-driven caller
// (sessions, sweeps, the command-line tools) without hardwired dispatch.
package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/model"
	"repro/internal/sched"
)

// init registers the HelixPipe variants in the method registry. BuildParams
// may override the per-variant defaults (fold, recomputation); the zero
// params reproduce the paper configuration of each variant.
func init() {
	register := func(name sched.Method, desc string, rank int, def Options) {
		sched.Register(sched.Registration{
			Name:        name,
			Description: desc,
			Rank:        rank,
			Build: func(cfg sched.Config, costs sched.Costs, p sched.BuildParams) (*sched.Plan, error) {
				opt := def
				if p.HelixFold != 0 {
					opt.Fold = p.HelixFold
				}
				if p.HelixRecompute != nil {
					opt.Recompute = *p.HelixRecompute
				}
				return Build(cfg, costs, opt)
			},
		})
	}
	register(sched.MethodHelixNaive,
		"attention parallel partition with blocking naive FILO schedule", 70,
		Options{Fold: 1, Recompute: true})
	register(sched.MethodHelix,
		"attention parallel partition, two-fold FILO, recomputation without attention", 80,
		DefaultOptions())
	register(sched.MethodHelixNoRecompute,
		"HelixPipe two-fold FILO keeping all activations (no recomputation)", 90,
		Options{Fold: 2, Recompute: false})
}

// Options selects the HelixPipe variant to build.
type Options struct {
	// Fold is the number of micro batches executed per schedule slot:
	// 1 reproduces the naive FILO schedule of section 4.3.1 (with blocking
	// communication, the behaviour Figure 6a illustrates), 2 the
	// asynchronous two-fold FILO schedule of section 4.3.2.
	Fold int
	// Recompute enables the recomputation-without-attention strategy of
	// section 4.4.1 (on by default in the paper's HelixPipe).
	Recompute bool
}

// DefaultOptions returns the paper's HelixPipe configuration: two-fold FILO
// with recomputation without attention.
func DefaultOptions() Options { return Options{Fold: 2, Recompute: true} }

// Build constructs the HelixPipe plan for the given pipeline configuration
// and cost book.
//
// The FILO schedule admits fold*p micro batches per loop (section 4.3: "each
// loop admitting p micro batches"; the two-fold variant doubles that), so
// MicroBatches must be a positive multiple of fold*stages. Stages must be at
// least 2 and divide Layers, which keeps both pipeline ends on stage 0.
func Build(cfg sched.Config, costs sched.Costs, opt Options) (*sched.Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.Fold != 1 && opt.Fold != 2 {
		return nil, fmt.Errorf("core: fold must be 1 (naive FILO) or 2 (two-fold FILO), got %d", opt.Fold)
	}
	if cfg.Stages < 2 {
		return nil, fmt.Errorf("core: HelixPipe needs at least 2 stages, got %d", cfg.Stages)
	}
	loopSize := opt.Fold * cfg.Stages
	if cfg.MicroBatches%loopSize != 0 {
		return nil, fmt.Errorf("core: micro batches (%d) must be a multiple of fold*stages (%d)",
			cfg.MicroBatches, loopSize)
	}
	b := &helixBuilder{cfg: cfg, costs: costs, opt: opt}
	b.buildTasks()
	if err := b.schedule(); err != nil {
		return nil, err
	}
	method := sched.MethodHelix
	switch {
	case opt.Fold == 1:
		method = sched.MethodHelixNaive
	case !opt.Recompute:
		method = sched.MethodHelixNoRecompute
	}
	return &sched.Plan{
		Method:       method,
		Stages:       cfg.Stages,
		MicroBatches: cfg.MicroBatches,
		Layers:       cfg.Layers,
		Ops:          b.ops,
		Costs:        costs,
		Batch:        cfg.Batch,
	}, nil
}

// taskKind discriminates helix schedule tasks.
type taskKind int

const (
	tUnitF taskKind = iota // forward of one unit for one micro-batch group
	tAttnF                 // forward attention of one (layer, micro batch)
	tUnitB                 // backward of one unit for one group (reversed)
	tAttnB                 // backward attention of one (layer, micro batch)
)

// hTask is one schedulable unit of helix work. Unit tasks process a whole
// fold group back to back (the essence of the two-fold schedule); attention
// tasks are per micro batch so they interleave freely.
type hTask struct {
	kind    taskKind
	unit    int   // unit index for tUnitF/tUnitB (0..L); layer for attention
	mbs     []int // the micro batches, in emission order
	stage   int
	key     [4]int // lexicographic priority
	prereqs []int
}

type helixBuilder struct {
	cfg   sched.Config
	costs sched.Costs
	opt   Options

	tasks []hTask
	ops   [][]sched.Op

	// scheduling state
	// arrival is the arrival estimate of every message, indexed by
	// arrivalSlot. A task is ready only once the producers of its inputs
	// ran, so the scheduler reads only slots already written.
	arrival []float64
	clock   []float64
	// NIC availability per stage (full duplex), mirrored from the
	// simulator so arrival estimates account for link contention and the
	// emitted program order matches true arrival order.
	sendFree []float64
	recvFree []float64
}

func (b *helixBuilder) addTask(t hTask) int {
	b.tasks = append(b.tasks, t)
	return len(b.tasks) - 1
}

// buildTasks enumerates every task of one training iteration with its
// priority key and prerequisites.
func (b *helixBuilder) buildTasks() {
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
	// Forward and backward each hold one task per (unit, group) and one per
	// (layer, micro batch).
	b.tasks = make([]hTask, 0, 2*((L+1)*totalGroups+L*m))

	// Forward unit and attention tasks.
	for u := 0; u <= L; u++ {
		for g := 0; g < totalGroups; g++ {
			loop := (g * fold) / loopSize
			gInLoop := g % p
			t := hTask{
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
				t := hTask{
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
			t := hTask{
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
				t := hTask{
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
//
// Candidates are visited by (key, id) and a later candidate wins only when
// its start is lower by more than 1e-15. Only ready tasks (every
// prerequisite already run) can win, so the scan walks a ready list kept in
// that same order, maintained from per-task pending-prerequisite counts.
func (b *helixBuilder) schedule() error {
	p, n := b.cfg.Stages, len(b.tasks)
	b.ops = make([][]sched.Op, p)
	for s, ops := range b.programLengths() {
		b.ops[s] = make([]sched.Op, 0, ops)
	}
	b.arrival = make([]float64, b.cfg.MicroBatches*b.cfg.Layers*4)
	b.clock = make([]float64, p)
	b.sendFree = make([]float64, p)
	b.recvFree = make([]float64, p)

	// Candidate order: by key then id, a total order. rank[id] is a task's
	// position in it.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		if c := slices.Compare(b.tasks[i].key[:], b.tasks[j].key[:]); c != 0 {
			return c
		}
		return i - j
	})
	rank := make([]int, n)
	for r, id := range order {
		rank[id] = r
	}

	// pending counts each task's prerequisites not run yet; the dependents
	// of task i are next[first[i]:first[i+1]].
	pending := make([]int, n)
	first := make([]int, n+1)
	for i := range b.tasks {
		pending[i] = len(b.tasks[i].prereqs)
		for _, pre := range b.tasks[i].prereqs {
			first[pre+1]++
		}
	}
	for i := 0; i < n; i++ {
		first[i+1] += first[i]
	}
	next := make([]int, first[n])
	fill := make([]int, n)
	for i := range b.tasks {
		for _, pre := range b.tasks[i].prereqs {
			next[first[pre]+fill[pre]] = i
			fill[pre]++
		}
	}

	// ready holds the ranks of the tasks that may run next, ascending.
	ready := make([]int, 0, n)
	for r, id := range order {
		if pending[id] == 0 {
			ready = append(ready, r)
		}
	}
	for remaining := n; remaining > 0; remaining-- {
		best, bestStart := -1, math.MaxFloat64
		for i, r := range ready {
			t := &b.tasks[order[r]]
			start := math.Max(b.clock[t.stage], b.firstInputArrival(t))
			if start < bestStart-1e-15 {
				best, bestStart = i, start
			}
		}
		if best < 0 {
			return fmt.Errorf("core: helix scheduling wedged with %d tasks remaining", remaining)
		}
		id := order[ready[best]]
		ready = slices.Delete(ready, best, best+1)
		b.runTask(&b.tasks[id])
		for _, dep := range next[first[id]:first[id+1]] {
			if pending[dep]--; pending[dep] == 0 {
				at, _ := slices.BinarySearch(ready, rank[dep])
				ready = slices.Insert(ready, at, rank[dep])
			}
		}
	}
	return nil
}

// programLengths counts the ops runTask will emit on each stage, so every
// stage program is allocated once at its exact length.
func (b *helixBuilder) programLengths() []int {
	L, p := b.cfg.Layers, b.cfg.Stages
	recompute := 0
	if b.opt.Recompute {
		recompute = 1
	}
	// comm counts the recv or send a piece on stage s exchanges with peer:
	// none when the peer is the same stage.
	comm := func(s, peer int) int {
		if peer == s {
			return 0
		}
		return 1
	}
	n := make([]int, p)
	for i := range b.tasks {
		t := &b.tasks[i]
		s := t.stage
		for _, mb := range t.mbs {
			switch t.kind {
			case tUnitF:
				n[s]++ // embedding or post-attention forward
				if t.unit > 0 {
					n[s] += comm(s, AttnStage(t.unit-1, mb, p))
				}
				if t.unit < L {
					n[s] += 1 + comm(s, AttnStage(t.unit, mb, p))
				}
			case tAttnF, tAttnB:
				n[s] += 1 + comm(s, PreOwner(t.unit, p)) + comm(s, PostOwner(t.unit, p))
			case tUnitB:
				if t.unit == L {
					n[s] += 2 // fused head forward+backward-B, head backward-W
				} else {
					n[s] += comm(s, AttnStage(t.unit, mb, p)) + recompute + 2
				}
				if t.unit > 0 {
					n[s] += recompute + 2 + comm(s, AttnStage(t.unit-1, mb, p))
				} else {
					n[s]++ // embedding backward-W
				}
			}
		}
	}
	return n
}

// firstInputArrival returns the arrival estimate of the task's first message
// input, or 0 when it has none.
func (b *helixBuilder) firstInputArrival(t *hTask) float64 {
	if tag, ok := b.inputTag(t, t.mbs[0]); ok {
		if a := b.arrival[b.arrivalSlot(tag)]; a > 0 {
			return a
		}
	}
	return 0
}

// inputTag returns the message tag one micro-batch piece of the task
// consumes, and false for the pieces that consume none (the embedding
// forward and the head backward).
func (b *helixBuilder) inputTag(t *hTask, mb int) (sched.Tag, bool) {
	switch t.kind {
	case tUnitF:
		return sched.Tag{MB: mb, Layer: t.unit - 1, Bound: sched.BoundAttnPost}, t.unit > 0
	case tAttnF:
		return sched.Tag{MB: mb, Layer: t.unit, Bound: sched.BoundPreAttn}, true
	case tUnitB:
		return sched.Tag{MB: mb, Layer: t.unit, Bound: sched.BoundPreAttn, Back: true}, t.unit < b.cfg.Layers
	default: // tAttnB
		return sched.Tag{MB: mb, Layer: t.unit, Bound: sched.BoundAttnPost, Back: true}, true
	}
}

// arrivalSlot indexes a helix message in the dense arrival table, by
// (micro batch, layer, boundary, direction).
func (b *helixBuilder) arrivalSlot(tag sched.Tag) int {
	slot := (tag.MB*b.cfg.Layers+tag.Layer)*2 + int(tag.Bound-sched.BoundPreAttn)
	slot *= 2
	if tag.Back {
		slot++
	}
	return slot
}

// runTask emits the ops of a task and advances the builder clocks.
func (b *helixBuilder) runTask(t *hTask) {
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
}

func (b *helixBuilder) emit(stage int, op sched.Op) { b.ops[stage] = append(b.ops[stage], op) }

// recvPiece emits the recv op for one micro-batch piece and returns the
// stage clock after waiting for the arrival. When the producer ran on this
// very stage (the attention of micro batch mb at layer l is co-located with
// a pre/post owner whenever (l+mb+1) = l or l+1 mod p) the value is already
// local and no communication op is emitted.
func (b *helixBuilder) recvPiece(t *hTask, mb int, from int, clock float64) float64 {
	tag, ok := b.inputTag(t, mb)
	if !ok {
		return clock
	}
	if from != t.stage {
		b.emit(t.stage, sched.Op{Kind: sched.KRecv, MB: mb, Peer: from, Tag: tag})
	}
	if a := b.arrival[b.arrivalSlot(tag)]; a > clock {
		clock = a
	}
	return clock
}

// sendPiece emits a send and records the message arrival estimate. Naive
// FILO (fold 1) uses blocking sends that occupy the compute stream (the
// paper's Figure 6a behaviour); the two-fold schedule sends asynchronously.
func (b *helixBuilder) sendPiece(stage, mb, peer int, tag sched.Tag, clock float64) float64 {
	if peer == stage {
		// Co-located consumer: the value is available immediately, no
		// transfer happens.
		b.arrival[b.arrivalSlot(tag)] = clock
		return clock
	}
	blocking := b.opt.Fold == 1
	bytes := b.costs.MB(tag.MB).BoundBytes[tag.Bound]
	b.emit(stage, sched.Op{
		Kind: sched.KSend, MB: mb, Peer: peer, Tag: tag, Bytes: bytes, Blocking: blocking,
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
	b.arrival[b.arrivalSlot(tag)] = arrival
	if blocking {
		return arrival
	}
	return clock
}

// stashAlloc returns the forward allocation for one micro batch's segment
// under the active memory strategy.
func (b *helixBuilder) stashAlloc(mb int, seg model.Segment) int64 {
	c := b.costs.MB(mb)
	if b.opt.Recompute {
		return c.HelixSegStash[seg]
	}
	return c.SegStash[seg]
}

// attnFree returns the stash released by one micro batch's attention backward.
func (b *helixBuilder) attnFree(mb int) int64 {
	c := b.costs.MB(mb)
	if b.opt.Recompute {
		return c.HelixSegStash[model.SegAttn]
	}
	return c.SegStash[model.SegAttn]
}

func (b *helixBuilder) runUnitF(t *hTask) {
	L, p := b.cfg.Layers, b.cfg.Stages
	clock := b.clock[t.stage]
	for _, mb := range t.mbs {
		c := b.costs.StageMB(t.stage, mb)
		if t.unit > 0 {
			from := AttnStage(t.unit-1, mb, p)
			clock = b.recvPiece(t, mb, from, clock)
			b.emit(t.stage, sched.Op{Kind: sched.KForward, MB: mb, Layer: t.unit - 1, Seg: model.SegPost,
				Dur: c.Seg[model.SegPost][model.Forward], Alloc: b.stashAlloc(mb, model.SegPost)})
			clock += c.Seg[model.SegPost][model.Forward]
		} else {
			b.emit(t.stage, sched.Op{Kind: sched.KForward, MB: mb, Layer: sched.LayerEmbed, Dur: c.EmbedF})
			clock += c.EmbedF
		}
		if t.unit < L {
			b.emit(t.stage, sched.Op{Kind: sched.KForward, MB: mb, Layer: t.unit, Seg: model.SegPre,
				Dur: c.Seg[model.SegPre][model.Forward], Alloc: b.stashAlloc(mb, model.SegPre)})
			clock += c.Seg[model.SegPre][model.Forward]
			clock = b.sendPiece(t.stage, mb, AttnStage(t.unit, mb, p),
				sched.Tag{MB: mb, Layer: t.unit, Bound: sched.BoundPreAttn}, clock)
		}
	}
	b.clock[t.stage] = clock
}

func (b *helixBuilder) runAttn(t *hTask, back bool) {
	p := b.cfg.Stages
	l := t.unit
	mb := t.mbs[0]
	c := b.costs.StageMB(t.stage, mb)
	clock := b.clock[t.stage]
	if back {
		clock = b.recvPiece(t, mb, PostOwner(l, p), clock)
		b.emit(t.stage, sched.Op{Kind: sched.KBackwardB, MB: mb, Layer: l, Seg: model.SegAttn,
			Dur: c.Seg[model.SegAttn][model.BackwardB], Free: b.attnFree(mb)})
		clock += c.Seg[model.SegAttn][model.BackwardB]
		clock = b.sendPiece(t.stage, mb, PreOwner(l, p),
			sched.Tag{MB: mb, Layer: l, Bound: sched.BoundPreAttn, Back: true}, clock)
	} else {
		clock = b.recvPiece(t, mb, PreOwner(l, p), clock)
		b.emit(t.stage, sched.Op{Kind: sched.KForward, MB: mb, Layer: l, Seg: model.SegAttn,
			Dur: c.Seg[model.SegAttn][model.Forward], Alloc: b.stashAlloc(mb, model.SegAttn)})
		clock += c.Seg[model.SegAttn][model.Forward]
		clock = b.sendPiece(t.stage, mb, PostOwner(l, p),
			sched.Tag{MB: mb, Layer: l, Bound: sched.BoundAttnPost}, clock)
	}
	b.clock[t.stage] = clock
}

func (b *helixBuilder) runUnitB(t *hTask) {
	L, p := b.cfg.Layers, b.cfg.Stages
	clock := b.clock[t.stage]
	for _, mb := range t.mbs {
		c := b.costs.StageMB(t.stage, mb)
		if t.unit == L {
			// Deferred LM head: forward + loss + backward-B fused (4.6),
			// weight gradient immediately after (no ZB1P-style deferral).
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardB, MB: mb, Layer: sched.LayerHead,
				Dur: c.HeadFB, Alloc: c.EmbedGradStash})
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardW, MB: mb, Layer: sched.LayerHead,
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
				b.emit(t.stage, sched.Op{Kind: sched.KRecompute, MB: mb, Layer: t.unit - 1, Seg: model.SegPost,
					Dur:   c.SegRecompute[model.SegPost],
					Alloc: c.SegStash[model.SegPost] - c.HelixSegStash[model.SegPost]})
				clock += c.SegRecompute[model.SegPost]
			}
			if t.unit < L {
				b.emit(t.stage, sched.Op{Kind: sched.KRecompute, MB: mb, Layer: t.unit, Seg: model.SegPre,
					Dur:   c.SegRecompute[model.SegPre],
					Alloc: c.SegStash[model.SegPre] - c.HelixSegStash[model.SegPre]})
				clock += c.SegRecompute[model.SegPre]
			}
		}
		if t.unit < L {
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardB, MB: mb, Layer: t.unit, Seg: model.SegPre,
				Dur: c.Seg[model.SegPre][model.BackwardB], Free: c.SegStashBFree[model.SegPre]})
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardW, MB: mb, Layer: t.unit, Seg: model.SegPre,
				Dur: c.Seg[model.SegPre][model.BackwardW], Free: c.SegStashWFree[model.SegPre]})
			clock += c.Seg[model.SegPre][model.BackwardB] + c.Seg[model.SegPre][model.BackwardW]
		}
		if t.unit > 0 {
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardB, MB: mb, Layer: t.unit - 1, Seg: model.SegPost,
				Dur: c.Seg[model.SegPost][model.BackwardB], Free: c.SegStashBFree[model.SegPost]})
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardW, MB: mb, Layer: t.unit - 1, Seg: model.SegPost,
				Dur: c.Seg[model.SegPost][model.BackwardW], Free: c.SegStashWFree[model.SegPost]})
			clock += c.Seg[model.SegPost][model.BackwardB] + c.Seg[model.SegPost][model.BackwardW]
			clock = b.sendPiece(t.stage, mb, AttnStage(t.unit-1, mb, p),
				sched.Tag{MB: mb, Layer: t.unit - 1, Bound: sched.BoundAttnPost, Back: true}, clock)
		} else {
			b.emit(t.stage, sched.Op{Kind: sched.KBackwardW, MB: mb, Layer: sched.LayerEmbed, Dur: c.EmbedW})
			clock += c.EmbedW
		}
	}
	b.clock[t.stage] = clock
}

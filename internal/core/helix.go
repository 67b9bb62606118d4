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
// (sessions, sweeps, the helix command) without hardwired dispatch.
package core

import (
	"cmp"
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
				return Build(cfg, costs, def.with(p))
			},
			Traffic: func(cfg sched.Config, costs sched.Costs, p sched.BuildParams) ([][]int64, error) {
				return traffic(cfg, costs, def.with(p))
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

// with applies the BuildParams overrides (fold, recomputation) to a
// variant's default options.
func (opt Options) with(p sched.BuildParams) Options {
	if p.HelixFold != 0 {
		opt.Fold = p.HelixFold
	}
	if p.HelixRecompute != nil {
		opt.Recompute = *p.HelixRecompute
	}
	return opt
}

// Build constructs the HelixPipe plan for the given pipeline configuration
// and cost book.
//
// The FILO schedule admits fold*p micro batches per loop (section 4.3: "each
// loop admitting p micro batches"; the two-fold variant doubles that), so
// MicroBatches must be a positive multiple of fold*stages. Stages must be at
// least 2 and divide Layers, which keeps both pipeline ends on stage 0.
func Build(cfg sched.Config, costs sched.Costs, opt Options) (*sched.Plan, error) {
	if err := checkGeometry(cfg, opt); err != nil {
		return nil, err
	}
	b := &helixBuilder{cfg: cfg, costs: costs, opt: opt}
	if err := b.schedule(b.buildTasks()); err != nil {
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

// checkGeometry reports why no HelixPipe plan exists for the configuration
// and options; Build and traffic share it, so both reject with one text.
func checkGeometry(cfg sched.Config, opt Options) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if opt.Fold != 1 && opt.Fold != 2 {
		return fmt.Errorf("core: fold must be 1 (naive FILO) or 2 (two-fold FILO), got %d", opt.Fold)
	}
	if cfg.Stages < 2 {
		return fmt.Errorf("core: HelixPipe needs at least 2 stages, got %d", cfg.Stages)
	}
	if loopSize := opt.Fold * cfg.Stages; cfg.MicroBatches%loopSize != 0 {
		return fmt.Errorf("core: micro batches (%d) must be a multiple of fold*stages (%d)",
			cfg.MicroBatches, loopSize)
	}
	return nil
}

// traffic is the traffic matrix of the plan Build constructs, read off the
// attention parallel partition alone (section 4.2). For every layer l and
// micro batch mb, the pre-attention on l mod p and the post-attention on
// (l+1) mod p each exchange one boundary with the attention on
// (l+mb+1) mod p: forward activation one way, its gradient back. A piece
// co-located with its attention sends nothing. Fold and recomputation
// reorder the schedule but move no bytes.
func traffic(cfg sched.Config, costs sched.Costs, opt Options) ([][]int64, error) {
	if err := checkGeometry(cfg, opt); err != nil {
		return nil, err
	}
	p := cfg.Stages
	m := sched.NewTrafficMatrix(p)
	for mb := 0; mb < cfg.MicroBatches; mb++ {
		bytes := costs.MB(mb).BoundBytes
		for l := 0; l < cfg.Layers; l++ {
			attn := AttnStage(l, mb, p)
			if pre := PreOwner(l, p); pre != attn {
				m[pre][attn] += bytes[sched.BoundPreAttn]
				m[attn][pre] += bytes[sched.BoundPreAttn]
			}
			if post := PostOwner(l, p); post != attn {
				m[attn][post] += bytes[sched.BoundAttnPost]
				m[post][attn] += bytes[sched.BoundAttnPost]
			}
		}
	}
	return m, nil
}

// taskKind discriminates helix schedule tasks.
type taskKind uint8

const (
	tUnitF taskKind = iota // forward of one unit for one micro-batch group
	tAttnF                 // forward attention of one (layer, micro batch)
	tUnitB                 // backward of one unit for one group (reversed)
	tAttnB                 // backward attention of one (layer, micro batch)
)

// hTask is one schedulable unit of helix work. Unit tasks process a whole
// fold group back to back (the essence of the two-fold schedule); attention
// tasks are per micro batch so they interleave freely. A task is stored at
// its rank (see unitF).
type hTask struct {
	kind taskKind
	// left counts the prerequisites not run yet.
	left  uint8
	stage int32
	// unit is the unit (0..L) of a unit task, the layer of an attention task.
	unit int32
	// idx is the fold group of a unit task, the micro batch of an attention
	// task.
	idx int32
	// slot is the arrival slot of the first input, -1 for the tasks that
	// consume none (the embedding forward and the head backward).
	slot int32
}

type helixBuilder struct {
	cfg   sched.Config
	costs sched.Costs
	opt   Options

	// Rank geometry (see unitF): FILO loops per phase, tasks per unit slot
	// and per loop of a phase, and the rank of the first backward task.
	loops, slotLen, loopLen, backStart int

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
	// The ready set. here[s] is a min-heap of the ranks of stage s's ready
	// tasks whose first input arrived by the stage clock; flight holds, in
	// rank order, the ready tasks whose input was still in flight when last
	// looked at. tops is pick's scratch.
	here   [][]int32
	flight []candidate
	tops   []candidate
}

// The scheduler visits candidates by their priority key: phase (forward,
// then backward), FILO loop (backward loops in reverse), unit or attention
// slot (2u for unit u, 2l+1 for the attention of layer l, counted from the
// head in the backward phase), and position in the loop (reversed in the
// backward phase). Each key is unique: a slot of a loop holds p unit tasks,
// one per fold group, or fold·p attention tasks, one per micro batch. So the
// tasks are numbered in key order and a task's id is its rank: a loop of a
// phase is L+1 unit slots of p tasks interleaved with L attention slots of
// fold·p tasks. unitF, attnF, unitB and attnB return the ranks of the four
// task kinds.

// unitF is the rank of unit u's forward for fold group g.
func (b *helixBuilder) unitF(u, g int) int {
	p := b.cfg.Stages
	return g/p*b.loopLen + u*b.slotLen + g%p
}

// attnF is the rank of layer l's forward attention for micro batch mb.
func (b *helixBuilder) attnF(l, mb int) int {
	p, fp := b.cfg.Stages, b.opt.Fold*b.cfg.Stages
	return mb/fp*b.loopLen + l*b.slotLen + p + mb%fp
}

// unitB is the rank of unit u's backward for fold group g.
func (b *helixBuilder) unitB(u, g int) int {
	p := b.cfg.Stages
	return b.backStart + (b.loops-1-g/p)*b.loopLen + (b.cfg.Layers-u)*b.slotLen + p - 1 - g%p
}

// attnB is the rank of layer l's backward attention for micro batch mb.
func (b *helixBuilder) attnB(l, mb int) int {
	p, fp := b.cfg.Stages, b.opt.Fold*b.cfg.Stages
	return b.backStart + (b.loops-1-mb/fp)*b.loopLen + (b.cfg.Layers-1-l)*b.slotLen + p + fp - 1 - mb%fp
}

// buildTasks stores every task of one training iteration at its rank with
// its prerequisite count and first-input slot, and returns how many tasks
// each stage runs.
func (b *helixBuilder) buildTasks() []int {
	p, m, L, fold := b.cfg.Stages, b.cfg.MicroBatches, b.cfg.Layers, b.opt.Fold
	b.loops = m / (fold * p)
	b.slotLen = p + fold*p
	b.loopLen = L*b.slotLen + p
	b.backStart = b.loops * b.loopLen
	b.tasks = make([]hTask, 2*b.backStart)
	perStage := make([]int, p)
	// put stores a task at rank r. Its first input is the one its first
	// micro batch in emission order consumes: a forward group's lowest, a
	// backward group's highest.
	put := func(r int, kind taskKind, left, stage, unit, idx, firstMB int) {
		t := hTask{kind: kind, left: uint8(left), stage: int32(stage), unit: int32(unit), idx: int32(idx), slot: -1}
		if tag, ok := b.inputTag(&t, firstMB); ok {
			t.slot = int32(b.arrivalSlot(tag))
		}
		b.tasks[r] = t
		perStage[stage]++
	}
	for g := 0; g < m/fold; g++ {
		for u := 0; u <= L; u++ {
			// Unit F waits on the forward attention of each micro batch of
			// its group; unit B on its own forward and, below the head, on
			// the backward attention of each micro batch.
			fLeft, bLeft := fold, fold+1
			if u == 0 {
				fLeft = 0
			}
			if u == L {
				bLeft = 1
			}
			put(b.unitF(u, g), tUnitF, fLeft, UnitOwner(u, p), u, g, g*fold)
			put(b.unitB(u, g), tUnitB, bLeft, UnitOwner(u, p), u, g, g*fold+fold-1)
		}
	}
	for mb := 0; mb < m; mb++ {
		for l := 0; l < L; l++ {
			// Attention F waits on its unit's forward; attention B on the
			// next unit's backward and its own forward.
			put(b.attnF(l, mb), tAttnF, 1, AttnStage(l, mb, p), l, mb, mb)
			put(b.attnB(l, mb), tAttnB, 2, AttnStage(l, mb, p), l, mb, mb)
		}
	}
	return perStage
}

// schedule orders the tasks with deterministic earliest-start greedy list
// scheduling and emits the per-stage op programs.
func (b *helixBuilder) schedule(perStage []int) error {
	p := b.cfg.Stages
	b.ops = sched.Programs(programLengths(b.cfg, b.opt))
	b.arrival = make([]float64, b.cfg.MicroBatches*b.cfg.Layers*4)
	state := make([]float64, 3*p)
	b.clock, b.sendFree, b.recvFree = state[:p:p], state[p:2*p:2*p], state[2*p:]
	// A stage's heap never holds more than the stage's tasks.
	heaps := make([]int32, len(b.tasks))
	b.here = make([][]int32, p)
	for s, n := range perStage {
		b.here[s], heaps = heaps[:0:n], heaps[n:]
	}
	b.flight = make([]candidate, 0, len(b.tasks))
	b.tops = make([]candidate, 0, p)
	for r := range b.tasks {
		if b.tasks[r].left == 0 {
			b.ready(r)
		}
	}
	for remaining := len(b.tasks); remaining > 0; remaining-- {
		r := b.pick()
		if r < 0 {
			return fmt.Errorf("core: helix scheduling wedged with %d tasks remaining", remaining)
		}
		t := &b.tasks[r]
		b.runTask(t)
		b.release(t)
	}
	return nil
}

// inputArrival returns the arrival estimate of the task's first input, 0
// when it has none. Every task's first input is produced by one of its
// prerequisites, so once the task is ready the estimate is final.
func (b *helixBuilder) inputArrival(t *hTask) float64 {
	if t.slot < 0 {
		return 0
	}
	return b.arrival[t.slot]
}

// pick removes the next task to run from the ready set and returns its
// rank, or -1 when no task is ready.
//
// A task starts at max(stage clock, first-input arrival). Candidates are
// visited in rank order, and a later candidate wins only when its start is
// lower by more than 1e-15. Every task in here[s] starts at stage s's clock,
// so of those only the heap's top can win: a later one starting at the same
// time never beats the best so far. The scan therefore visits the heap tops
// and the flight list, merged in rank order. Flight tasks whose input has
// arrived by now move to their stages' heaps after the scan. A winner among
// them is then its heap's least rank, as is a winning heap top: any lower
// rank of its stage was visited before it at the same start.
func (b *helixBuilder) pick() int {
	tops := b.tops[:0]
	for s, h := range b.here {
		if len(h) == 0 {
			continue
		}
		top := candidate{rank: h[0], stage: int32(s)}
		i := len(tops)
		tops = append(tops, top)
		for ; i > 0 && tops[i-1].rank > top.rank; i-- {
			tops[i] = tops[i-1]
		}
		tops[i] = top
	}
	clocks, flight := b.clock, b.flight
	best, bestStart := candidate{rank: -1}, math.MaxFloat64
	next, arrived := 0, 0
	for _, c := range flight {
		for ; next < len(tops) && tops[next].rank < c.rank; next++ {
			if start := clocks[tops[next].stage]; start < bestStart-1e-15 {
				best, bestStart = tops[next], start
			}
		}
		clock := clocks[c.stage]
		if start := max(clock, c.arrival); start < bestStart-1e-15 {
			best, bestStart = c, start
		}
		if c.arrival <= clock {
			arrived++
		}
	}
	for _, top := range tops[next:] {
		if start := clocks[top.stage]; start < bestStart-1e-15 {
			best, bestStart = top, start
		}
	}
	if arrived > 0 {
		kept := 0
		for _, c := range flight {
			if c.arrival <= clocks[c.stage] {
				push(&b.here[c.stage], c.rank)
			} else {
				flight[kept] = c
				kept++
			}
		}
		b.flight = flight[:kept]
	}
	switch {
	case best.rank < 0:
		return -1
	case best.arrival <= clocks[best.stage]:
		pop(&b.here[best.stage])
	default:
		i := b.flightIndex(best.rank)
		b.flight = slices.Delete(b.flight, i, i+1)
	}
	return int(best.rank)
}

// candidate is a ready task as pick visits it: its rank, its stage and its
// first input's arrival, final once the task is ready (zero for a heap top,
// which starts at the stage clock).
type candidate struct {
	rank, stage int32
	arrival     float64
}

// flightIndex returns where rank r is, or belongs, in the flight list.
func (b *helixBuilder) flightIndex(r int32) int {
	i, _ := slices.BinarySearchFunc(b.flight, r, func(c candidate, r int32) int { return cmp.Compare(c.rank, r) })
	return i
}

// ready adds a task whose prerequisites all ran to the ready set.
func (b *helixBuilder) ready(r int) {
	t := &b.tasks[r]
	if a := b.inputArrival(t); a > b.clock[t.stage] {
		c := candidate{rank: int32(r), stage: t.stage, arrival: a}
		b.flight = slices.Insert(b.flight, b.flightIndex(c.rank), c)
		return
	}
	push(&b.here[t.stage], int32(r))
}

// release counts a task that ran off its dependents' prerequisites and
// readies those it was the last of: a unit forward feeds its attention
// forwards and its own backward, an attention forward the next unit's
// forward and its own backward, a unit backward the attention backwards of
// the layer below, and an attention backward its unit's backward.
func (b *helixBuilder) release(t *hTask) {
	fold := b.opt.Fold
	u, i := int(t.unit), int(t.idx)
	switch t.kind {
	case tUnitF:
		if u < b.cfg.Layers {
			for mb := i * fold; mb < (i+1)*fold; mb++ {
				b.done(b.attnF(u, mb))
			}
		}
		b.done(b.unitB(u, i))
	case tAttnF:
		b.done(b.unitF(u+1, i/fold))
		b.done(b.attnB(u, i))
	case tUnitB:
		if u > 0 {
			for mb := i * fold; mb < (i+1)*fold; mb++ {
				b.done(b.attnB(u-1, mb))
			}
		}
	default: // tAttnB
		b.done(b.unitB(u, i/fold))
	}
}

// done counts one prerequisite of task r as run.
func (b *helixBuilder) done(r int) {
	t := &b.tasks[r]
	if t.left--; t.left == 0 {
		b.ready(r)
	}
}

// push adds rank r to the min-heap h.
func push(h *[]int32, r int32) {
	a := append(*h, r)
	for i := len(a) - 1; i > 0; {
		up := (i - 1) / 2
		if a[up] <= a[i] {
			break
		}
		a[up], a[i] = a[i], a[up]
		i = up
	}
	*h = a
}

// pop removes the least rank from the min-heap h.
func pop(h *[]int32) {
	a := *h
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && a[l] < a[least] {
			least = l
		}
		if r := 2*i + 2; r < n && a[r] < a[least] {
			least = r
		}
		if least == i {
			break
		}
		a[i], a[least] = a[least], a[i]
		i = least
	}
	*h = a
}

// programLengths returns the op count of every stage program in closed form,
// so each is allocated once at its exact length. Per (layer, micro batch)
// the pre- and post-attention each run forward, backward-B, backward-W and,
// with recomputation, a recompute on their owners, and attention a forward
// and a backward-B on its stage; with p | L and fold·p | m every stage owns
// L·m/p of each, so (L·m/p)(8 + 2r) compute ops. Each of the four messages
// of a (layer, micro batch) costs a send on one end and a recv on the other,
// unless attention is co-located with the pre-owner (exactly when
// mb ≡ p−1 mod p) or with the post-owner (exactly when mb ≡ 0 mod p); that
// leaves every stage 8·(L/p)·(m/p)·(p−1) message ops. Stage 0 also runs the
// embedding forward and weight gradient and the head's two ops, four per
// micro batch. Fold reorders ops but adds none.
func programLengths(cfg sched.Config, opt Options) []int {
	L, m, p := cfg.Layers, cfg.MicroBatches, cfg.Stages
	r := 0
	if opt.Recompute {
		r = 1
	}
	n := make([]int, p)
	for s := range n {
		n[s] = L*m/p*(8+2*r) + 8*(L/p)*(m/p)*(p-1)
	}
	n[0] += 4 * m
	return n
}

// inputTag returns the message tag one micro-batch piece of the task
// consumes, and false for the pieces that consume none (the embedding
// forward and the head backward).
func (b *helixBuilder) inputTag(t *hTask, mb int) (sched.Tag, bool) {
	l := int(t.unit)
	switch t.kind {
	case tUnitF:
		return sched.Tag{MB: int32(mb), Layer: int32(l - 1), Bound: sched.BoundAttnPost}, l > 0
	case tAttnF:
		return sched.Tag{MB: int32(mb), Layer: int32(l), Bound: sched.BoundPreAttn}, true
	case tUnitB:
		return sched.Tag{MB: int32(mb), Layer: int32(l), Bound: sched.BoundPreAttn, Back: true}, l < b.cfg.Layers
	default: // tAttnB
		return sched.Tag{MB: int32(mb), Layer: int32(l), Bound: sched.BoundAttnPost, Back: true}, true
	}
}

// arrivalSlot indexes a helix message in the dense arrival table, by
// (micro batch, layer, boundary, direction).
func (b *helixBuilder) arrivalSlot(tag sched.Tag) int {
	slot := (int(tag.MB)*b.cfg.Layers+int(tag.Layer))*2 + int(tag.Bound-sched.BoundPreAttn)
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

// next returns the next op slot of a stage program, zeroed: the program
// was allocated zeroed and no slot is written twice. compute and message
// store an op's fields into it one by one, which builds the op in place
// where appending a composite literal would copy all of it.
func (b *helixBuilder) next(stage int) *sched.Op {
	ops := b.ops[stage]
	if len(ops) == cap(ops) {
		ops = append(ops, sched.Op{})
	} else {
		ops = ops[:len(ops)+1]
	}
	b.ops[stage] = ops
	return &ops[len(ops)-1]
}

// compute emits a compute op on a stage program.
func (b *helixBuilder) compute(stage int, kind sched.OpKind, mb, layer int, seg model.Segment, dur float64, alloc, free int64) {
	op := b.next(stage)
	op.Kind, op.MB, op.Layer, op.Seg, op.Dur, op.Alloc, op.Free = kind, int32(mb), int32(layer), seg, dur, alloc, free
}

// message emits a send or recv on a stage program.
func (b *helixBuilder) message(stage int, kind sched.OpKind, mb, peer int, tag sched.Tag, bytes int64, blocking bool) {
	op := b.next(stage)
	op.Kind, op.MB, op.Peer, op.Tag, op.Bytes, op.Blocking = kind, int32(mb), int32(peer), tag, bytes, blocking
}

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
	if stage := int(t.stage); from != stage {
		b.message(stage, sched.KRecv, mb, from, tag, 0, false)
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
	bytes := b.costs.MB(int(tag.MB)).BoundBytes[tag.Bound]
	b.message(stage, sched.KSend, mb, peer, tag, bytes, blocking)
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

// runUnitF runs a unit's forward over its fold group, lowest micro batch
// first.
func (b *helixBuilder) runUnitF(t *hTask) {
	L, p, fold := b.cfg.Layers, b.cfg.Stages, b.opt.Fold
	stage, u, g := int(t.stage), int(t.unit), int(t.idx)
	clock := b.clock[stage]
	for mb := g * fold; mb < (g+1)*fold; mb++ {
		c := b.costs.StageMB(stage, mb)
		if u > 0 {
			from := AttnStage(u-1, mb, p)
			clock = b.recvPiece(t, mb, from, clock)
			b.compute(stage, sched.KForward, mb, u-1, model.SegPost,
				c.Seg[model.SegPost][model.Forward], b.stashAlloc(mb, model.SegPost), 0)
			clock += c.Seg[model.SegPost][model.Forward]
		} else {
			b.compute(stage, sched.KForward, mb, sched.LayerEmbed, model.SegPre, c.EmbedF, 0, 0)
			clock += c.EmbedF
		}
		if u < L {
			b.compute(stage, sched.KForward, mb, u, model.SegPre,
				c.Seg[model.SegPre][model.Forward], b.stashAlloc(mb, model.SegPre), 0)
			clock += c.Seg[model.SegPre][model.Forward]
			clock = b.sendPiece(stage, mb, AttnStage(u, mb, p),
				sched.Tag{MB: int32(mb), Layer: int32(u), Bound: sched.BoundPreAttn}, clock)
		}
	}
	b.clock[stage] = clock
}

// runAttn runs one micro batch's attention forward or backward.
func (b *helixBuilder) runAttn(t *hTask, back bool) {
	p := b.cfg.Stages
	stage, l, mb := int(t.stage), int(t.unit), int(t.idx)
	c := b.costs.StageMB(stage, mb)
	clock := b.clock[stage]
	if back {
		clock = b.recvPiece(t, mb, PostOwner(l, p), clock)
		b.compute(stage, sched.KBackwardB, mb, l, model.SegAttn,
			c.Seg[model.SegAttn][model.BackwardB], 0, b.attnFree(mb))
		clock += c.Seg[model.SegAttn][model.BackwardB]
		clock = b.sendPiece(stage, mb, PreOwner(l, p),
			sched.Tag{MB: int32(mb), Layer: int32(l), Bound: sched.BoundPreAttn, Back: true}, clock)
	} else {
		clock = b.recvPiece(t, mb, PreOwner(l, p), clock)
		b.compute(stage, sched.KForward, mb, l, model.SegAttn,
			c.Seg[model.SegAttn][model.Forward], b.stashAlloc(mb, model.SegAttn), 0)
		clock += c.Seg[model.SegAttn][model.Forward]
		clock = b.sendPiece(stage, mb, PostOwner(l, p),
			sched.Tag{MB: int32(mb), Layer: int32(l), Bound: sched.BoundAttnPost}, clock)
	}
	b.clock[stage] = clock
}

// runUnitB runs a unit's backward over its fold group, highest micro batch
// first (first in, last out).
func (b *helixBuilder) runUnitB(t *hTask) {
	L, p, fold := b.cfg.Layers, b.cfg.Stages, b.opt.Fold
	stage, u, g := int(t.stage), int(t.unit), int(t.idx)
	clock := b.clock[stage]
	for mb := (g+1)*fold - 1; mb >= g*fold; mb-- {
		c := b.costs.StageMB(stage, mb)
		if u == L {
			// Deferred LM head: forward + loss + backward-B fused (4.6),
			// weight gradient immediately after (no ZB1P-style deferral).
			b.compute(stage, sched.KBackwardB, mb, sched.LayerHead, model.SegPre, c.HeadFB, c.EmbedGradStash, 0)
			b.compute(stage, sched.KBackwardW, mb, sched.LayerHead, model.SegPre, c.HeadW, 0, c.EmbedGradStash)
			clock += c.HeadFB + c.HeadW
		} else {
			from := AttnStage(u, mb, p)
			clock = b.recvPiece(t, mb, from, clock)
		}
		// Recompute the unit's discarded intermediates in forward order:
		// post-attention of layer unit-1, then pre-attention of layer unit.
		if b.opt.Recompute {
			if u > 0 {
				b.compute(stage, sched.KRecompute, mb, u-1, model.SegPost, c.SegRecompute[model.SegPost],
					c.SegStash[model.SegPost]-c.HelixSegStash[model.SegPost], 0)
				clock += c.SegRecompute[model.SegPost]
			}
			if u < L {
				b.compute(stage, sched.KRecompute, mb, u, model.SegPre, c.SegRecompute[model.SegPre],
					c.SegStash[model.SegPre]-c.HelixSegStash[model.SegPre], 0)
				clock += c.SegRecompute[model.SegPre]
			}
		}
		if u < L {
			b.compute(stage, sched.KBackwardB, mb, u, model.SegPre,
				c.Seg[model.SegPre][model.BackwardB], 0, c.SegStashBFree[model.SegPre])
			b.compute(stage, sched.KBackwardW, mb, u, model.SegPre,
				c.Seg[model.SegPre][model.BackwardW], 0, c.SegStashWFree[model.SegPre])
			clock += c.Seg[model.SegPre][model.BackwardB] + c.Seg[model.SegPre][model.BackwardW]
		}
		if u > 0 {
			b.compute(stage, sched.KBackwardB, mb, u-1, model.SegPost,
				c.Seg[model.SegPost][model.BackwardB], 0, c.SegStashBFree[model.SegPost])
			b.compute(stage, sched.KBackwardW, mb, u-1, model.SegPost,
				c.Seg[model.SegPost][model.BackwardW], 0, c.SegStashWFree[model.SegPost])
			clock += c.Seg[model.SegPost][model.BackwardB] + c.Seg[model.SegPost][model.BackwardW]
			clock = b.sendPiece(stage, mb, AttnStage(u-1, mb, p),
				sched.Tag{MB: int32(mb), Layer: int32(u - 1), Bound: sched.BoundAttnPost, Back: true}, clock)
		} else {
			b.compute(stage, sched.KBackwardW, mb, sched.LayerEmbed, model.SegPre, c.EmbedW, 0, 0)
			clock += c.EmbedW
		}
	}
	b.clock[stage] = clock
}

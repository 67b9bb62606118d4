package sim

// This file keeps the event engine exactly as it stood before only sends
// went through the ready heap and messages were indexed by the validator's
// slots: every op was one heap event, in-flight messages lived in a map keyed
// by (tag, from, to), and SMPenalty overlap binary-searched the pre-pass NIC
// timeline. It is the reference oracle of TestEngineMatchesReference. It
// differs from the original only in its names (a ref prefix on every type
// and function it declares), in sharing grow and the Result, Span, Options
// and LinkClassStats types with the package, in leaving out the pool hooks
// (newEngine, release), and in refRun, which runs the pre-pass and the
// reported pass as Runner.Run did, on fresh engines.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/sched"
)

// refRun simulates one iteration the way Runner.Run did: with a non-zero
// SMPenalty a penalty-free pre-pass records the NIC timeline first, and the
// reported pass resolves overlap against it. The result aliases the
// reported engine's buffers.
func refRun(plan *sched.Plan, opt Options) (*Result, error) {
	eng := &refEngine{}
	eng.reinit(plan, opt)
	if opt.SMPenalty > 0 {
		pre := &refEngine{}
		pre.reinit(plan, opt)
		pre.opt.SMPenalty = 0
		pre.opt.Trace = false
		pre.reset()
		if err := pre.run(); err != nil {
			return nil, err
		}
		eng.oracle = &pre.nic
	}
	eng.reset()
	if err := eng.run(); err != nil {
		return nil, err
	}
	var res Result
	eng.resultInto(&res)
	return &res, nil
}

// refMessage tracks one in-flight transfer.
type refMessage struct {
	arrival float64
}

// refTick is simulated time as an int64 the event loop orders stages by: the
// order-preserving bit pattern of the non-negative float64 second count
// (IEEE 754 ordering matches numeric ordering for non-negative values).
// Encoding time this way keeps heap comparisons branch-cheap integer
// compares while the engine's arithmetic stays in float64 seconds — no
// quantization, so results are bit-identical to float ordering.
type refTick int64

func refToTick(sec float64) refTick { return refTick(math.Float64bits(sec)) }

// refInterval is one NIC reservation. seq is the transfer's global initiation
// order: overlap sums accumulate in seq order so the floating-point result
// is independent of how the per-direction timelines are stored.
type refInterval struct {
	start, end float64
	seq        int32
}

// refNicLog is the per-stage NIC reservation timeline, split by direction.
// Within one direction the intervals are non-overlapping and sorted (each
// direction serializes its transfers), so overlap queries binary-search
// instead of scanning.
type refNicLog struct {
	send, recv [][]refInterval
}

type refEngine struct {
	plan *sched.Plan
	opt  Options

	pc    []int32
	clock []float64
	tick  []refTick

	// ready is the indexed min-heap of runnable stages ordered by
	// (tick, stage); pos[s] is s's heap index, -1 while s is parked on a
	// recv whose message is not in flight yet (or complete).
	ready []int32
	pos   []int32

	sendFree []float64 // NIC send-direction availability per stage
	recvFree []float64 // NIC recv-direction availability per stage
	nic      refNicLog
	seq      int32
	// oracle, when set, is the complete NIC timeline of a penalty-free
	// pre-pass; SMPenalty overlap is resolved against it so the stretch does
	// not depend on the engine's pick order.
	oracle *refNicLog

	inflight map[refMsgKey]refMessage
	// classStats aggregates transfers per link class under a topology.
	// Entries persist (zeroed) across reset so reruns stay allocation-free.
	classStats map[cluster.LinkClass]*LinkClassStats

	busy      []float64
	commStall []float64
	wait      []float64
	linkBusy  []float64
	sent      []int64
	stash     []int64
	peak      []int64

	idle    []float64
	classes []LinkClassStats

	spans []Span
}

type refMsgKey struct {
	tag      sched.Tag
	from, to int
}

// reinit rebinds the engine to a plan, resizing every per-stage buffer and
// keeping whatever capacity a previous binding left behind — the cold-start
// Run pool relies on this to avoid re-allocating the engine per call.
func (e *refEngine) reinit(plan *sched.Plan, opt Options) {
	p := plan.Stages
	e.plan = plan
	e.opt = opt
	e.oracle = nil
	e.pc = grow(e.pc, p)
	e.clock = grow(e.clock, p)
	e.tick = grow(e.tick, p)
	if cap(e.ready) < p {
		e.ready = make([]int32, 0, p)
	}
	e.ready = e.ready[:0]
	e.pos = grow(e.pos, p)
	e.sendFree = grow(e.sendFree, p)
	e.recvFree = grow(e.recvFree, p)
	e.nic.send = grow(e.nic.send, p)
	e.nic.recv = grow(e.nic.recv, p)
	if e.inflight == nil {
		e.inflight = map[refMsgKey]refMessage{}
	}
	if e.classStats == nil {
		e.classStats = map[cluster.LinkClass]*LinkClassStats{}
	}
	e.busy = grow(e.busy, p)
	e.commStall = grow(e.commStall, p)
	e.wait = grow(e.wait, p)
	e.linkBusy = grow(e.linkBusy, p)
	e.sent = grow(e.sent, p)
	e.stash = grow(e.stash, p)
	e.peak = grow(e.peak, p)
	e.idle = grow(e.idle, p)
	for s := range e.pos {
		e.pos[s] = -1
	}
	// Pre-size the NIC timelines and the span buffer exactly from the plan:
	// sends and receives per stage are known up front, so steady-state runs
	// never grow a buffer.
	sends := make([]int, p)
	recvs := make([]int, p)
	ops := 0
	for s := 0; s < p; s++ {
		ops += len(plan.Ops[s])
		for i := range plan.Ops[s] {
			if plan.Ops[s][i].Kind == sched.KSend {
				sends[s]++
				if peer := plan.Ops[s][i].Peer; peer >= 0 && int(peer) < p {
					recvs[peer]++
				}
			}
		}
	}
	for s := 0; s < p; s++ {
		if cap(e.nic.send[s]) < sends[s] {
			e.nic.send[s] = make([]refInterval, 0, sends[s])
		}
		e.nic.send[s] = e.nic.send[s][:0]
		if cap(e.nic.recv[s]) < recvs[s] {
			e.nic.recv[s] = make([]refInterval, 0, recvs[s])
		}
		e.nic.recv[s] = e.nic.recv[s][:0]
	}
	if opt.Trace && cap(e.spans) < ops {
		e.spans = make([]Span, 0, ops)
	}
	e.spans = e.spans[:0]
}

// reset rewinds the engine to the start of an iteration, keeping every
// buffer's capacity.
func (e *refEngine) reset() {
	p := e.plan.Stages
	for s := 0; s < p; s++ {
		e.pc[s] = 0
		e.clock[s] = 0
		e.tick[s] = 0
		e.pos[s] = -1
		e.sendFree[s] = 0
		e.recvFree[s] = 0
		e.nic.send[s] = e.nic.send[s][:0]
		e.nic.recv[s] = e.nic.recv[s][:0]
		e.busy[s] = 0
		e.commStall[s] = 0
		e.wait[s] = 0
		e.linkBusy[s] = 0
		e.sent[s] = 0
		e.stash[s] = 0
		e.peak[s] = 0
	}
	e.ready = e.ready[:0]
	e.seq = 0
	clear(e.inflight)
	for _, st := range e.classStats {
		*st = LinkClassStats{Class: st.Class}
	}
	e.classes = e.classes[:0]
	e.spans = e.spans[:0]
}

// heapLess orders ready stages by (tick, stage): the smallest clock runs
// first, ties to the lowest stage index — the same global pick order as a
// linear minimum scan, so schedules execute identically.
func (e *refEngine) heapLess(a, b int32) bool {
	if e.tick[a] != e.tick[b] {
		return e.tick[a] < e.tick[b]
	}
	return a < b
}

func (e *refEngine) heapPush(s int32) {
	e.ready = append(e.ready, s)
	i := int32(len(e.ready) - 1)
	e.pos[s] = i
	e.siftUp(i)
}

func (e *refEngine) heapPop() int32 {
	s := e.ready[0]
	last := int32(len(e.ready) - 1)
	e.ready[0] = e.ready[last]
	e.pos[e.ready[0]] = 0
	e.ready = e.ready[:last]
	if last > 0 {
		e.siftDown(0)
	}
	e.pos[s] = -1
	return s
}

func (e *refEngine) siftUp(i int32) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.heapLess(e.ready[i], e.ready[parent]) {
			return
		}
		e.ready[i], e.ready[parent] = e.ready[parent], e.ready[i]
		e.pos[e.ready[i]] = i
		e.pos[e.ready[parent]] = parent
		i = parent
	}
}

func (e *refEngine) siftDown(i int32) {
	n := int32(len(e.ready))
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && e.heapLess(e.ready[left], e.ready[smallest]) {
			smallest = left
		}
		if right < n && e.heapLess(e.ready[right], e.ready[smallest]) {
			smallest = right
		}
		if smallest == i {
			return
		}
		e.ready[i], e.ready[smallest] = e.ready[smallest], e.ready[i]
		e.pos[e.ready[i]] = i
		e.pos[e.ready[smallest]] = smallest
		i = smallest
	}
}

// runnable reports whether the stage's next op can execute now: anything but
// a recv, or a recv whose message is already in flight.
func (e *refEngine) runnable(s int32) bool {
	op := &e.plan.Ops[s][e.pc[s]]
	if op.Kind != sched.KRecv {
		return true
	}
	_, ok := e.inflight[refMsgKey{tag: op.Tag, from: int(op.Peer), to: int(s)}]
	return ok
}

// run advances stages in global time order until every program completes:
// the ready heap always pops the unblocked stage with the smallest clock, so
// NIC reservations happen in non-decreasing global time. Stages whose next
// op is a recv with no message in flight park outside the heap until their
// sender initiates (execSend wakes them), replacing the per-step rescan of
// every stage with one push.
func (e *refEngine) run() error {
	p := e.plan.Stages
	for s := 0; s < p; s++ {
		if len(e.plan.Ops[s]) == 0 {
			continue
		}
		if e.runnable(int32(s)) {
			e.heapPush(int32(s))
		}
	}
	for len(e.ready) > 0 {
		s := e.heapPop()
		e.step(s)
		if int(e.pc[s]) < len(e.plan.Ops[s]) && e.runnable(s) {
			e.heapPush(s)
		}
	}
	for s := 0; s < p; s++ {
		if int(e.pc[s]) < len(e.plan.Ops[s]) {
			return e.deadlockError()
		}
	}
	return nil
}

// step executes exactly one op on the given stage.
func (e *refEngine) step(s int32) {
	op := &e.plan.Ops[s][e.pc[s]]
	start := e.clock[s]
	switch op.Kind {
	case sched.KSend:
		e.execSend(s, op, start)
	case sched.KRecv:
		key := refMsgKey{tag: op.Tag, from: int(op.Peer), to: int(s)}
		msg := e.inflight[key]
		delete(e.inflight, key)
		end := msg.arrival
		if start > end {
			end = start
		}
		e.wait[s] += end - start
		e.setClock(s, end)
		e.record(s, op, start, end)
	default: // compute
		dur := op.Dur
		if e.opt.SMPenalty > 0 {
			overlap := e.nicOverlap(s, start, start+dur)
			dur += overlap * e.opt.SMPenalty
		}
		end := start + dur
		e.stash[s] += op.Alloc
		if e.stash[s] > e.peak[s] {
			e.peak[s] = e.stash[s]
		}
		e.stash[s] -= op.Free
		e.busy[s] += dur
		e.setClock(s, end)
		e.record(s, op, start, end)
	}
	e.pc[s]++
}

func (e *refEngine) setClock(s int32, v float64) {
	e.clock[s] = v
	e.tick[s] = refToTick(v)
}

// execSend reserves the NIC pair and computes the arrival time. Blocking
// sends additionally hold the compute stream until the message lands. If the
// receiver is parked on exactly this message, it wakes into the ready heap.
func (e *refEngine) execSend(s int32, op *sched.Op, start float64) {
	c := e.plan.Costs
	// The flat NIC parameters of the cost book, unless a topology resolves
	// this stage pair to a concrete link.
	bytesPerSec, latency := c.P2PBytesPerSec, c.P2PLatency
	if t := e.opt.Topology; t != nil {
		var class cluster.LinkClass
		bytesPerSec, latency, class = t.Link(int(s), int(op.Peer))
		st, ok := e.classStats[class]
		if !ok {
			st = &LinkClassStats{Class: string(class)}
			e.classStats[class] = st
		}
		st.Bytes += op.Bytes
		st.Transfers++
		if bytesPerSec > 0 {
			st.Seconds += float64(op.Bytes) / bytesPerSec
		}
	}
	launch := 0.0 // the engine charges no send-launch time
	xferStart := start + launch
	if e.sendFree[s] > xferStart {
		xferStart = e.sendFree[s]
	}
	if e.recvFree[op.Peer] > xferStart {
		xferStart = e.recvFree[op.Peer]
	}
	var wireDur float64
	if bytesPerSec > 0 {
		wireDur = float64(op.Bytes) / bytesPerSec
	}
	xferEnd := xferStart + wireDur
	arrival := xferEnd + latency
	e.sendFree[s] = xferEnd
	e.recvFree[op.Peer] = xferEnd
	iv := refInterval{start: xferStart, end: xferEnd, seq: e.seq}
	e.seq++
	e.nic.send[s] = append(e.nic.send[s], iv)
	e.nic.recv[op.Peer] = append(e.nic.recv[op.Peer], iv)
	e.linkBusy[s] += wireDur
	e.sent[s] += op.Bytes
	e.inflight[refMsgKey{tag: op.Tag, from: int(s), to: int(op.Peer)}] = refMessage{arrival: arrival}
	// Wake a receiver parked on exactly this message.
	if p := op.Peer; p != s && e.pos[p] < 0 && int(e.pc[p]) < len(e.plan.Ops[p]) {
		next := &e.plan.Ops[p][e.pc[p]]
		if next.Kind == sched.KRecv && next.Peer == s && next.Tag == op.Tag {
			e.heapPush(p)
		}
	}
	if op.Blocking {
		e.commStall[s] += arrival - start
		e.setClock(s, arrival)
		e.record(s, op, start, arrival)
		return
	}
	e.setClock(s, start+launch)
	e.record(s, op, start, start+launch)
}

// nicOverlap returns the total overlap of [start, end] with this stage's NIC
// transfer intervals: the penalty-free pre-pass oracle when one exists (the
// order-independent final set), the intervals recorded so far otherwise.
// Each direction's timeline is sorted and non-overlapping, so the
// overlapping run is found by binary search; the two runs are then merged in
// transfer-initiation (seq) order so the sum accumulates exactly as a single
// chronological scan would.
func (e *refEngine) nicOverlap(s int32, start, end float64) float64 {
	log := &e.nic
	if e.oracle != nil {
		log = e.oracle
	}
	sendRun := refOverlapRun(log.send[s], start, end)
	recvRun := refOverlapRun(log.recv[s], start, end)
	var total float64
	i, j := 0, 0
	for i < len(sendRun) && j < len(recvRun) {
		if sendRun[i].seq < recvRun[j].seq {
			total += refClampedOverlap(sendRun[i], start, end)
			i++
		} else {
			total += refClampedOverlap(recvRun[j], start, end)
			j++
		}
	}
	for ; i < len(sendRun); i++ {
		total += refClampedOverlap(sendRun[i], start, end)
	}
	for ; j < len(recvRun); j++ {
		total += refClampedOverlap(recvRun[j], start, end)
	}
	return total
}

// refOverlapRun returns the contiguous run of intervals overlapping [start,
// end] within one sorted, non-overlapping timeline.
func refOverlapRun(ivs []refInterval, start, end float64) []refInterval {
	// First interval that ends after the query starts (ends are
	// non-decreasing).
	lo := sort.Search(len(ivs), func(i int) bool { return ivs[i].end > start })
	hi := lo
	for hi < len(ivs) && ivs[hi].start < end {
		hi++
	}
	return ivs[lo:hi]
}

func refClampedOverlap(iv refInterval, start, end float64) float64 {
	lo, hi := iv.start, iv.end
	if start > lo {
		lo = start
	}
	if end < hi {
		hi = end
	}
	if hi > lo {
		return hi - lo
	}
	return 0
}

// deadlockError names every blocked stage and the (tag, peer) it waits on, so
// a bad generator can be debugged from the error alone.
func (e *refEngine) deadlockError() error {
	var b []byte
	for s := 0; s < e.plan.Stages; s++ {
		if int(e.pc[s]) >= len(e.plan.Ops[s]) {
			continue
		}
		op := e.plan.Ops[s][e.pc[s]]
		if len(b) > 0 {
			b = append(b, "; "...)
		}
		b = fmt.Appendf(b, "stage %d blocked at op %d/%d", s, e.pc[s], len(e.plan.Ops[s]))
		if op.Kind == sched.KRecv {
			b = fmt.Appendf(b, " waiting for tag %v from stage %d (send never initiated)", op.Tag, op.Peer)
		} else {
			b = fmt.Appendf(b, " (%v)", op)
		}
	}
	return fmt.Errorf("sim: deadlock — %s", b)
}

func (e *refEngine) record(s int32, op *sched.Op, start, end float64) {
	if e.opt.Trace {
		e.spans = append(e.spans, Span{Stage: int(s), Op: *op, Start: start, End: end})
	}
}

// resultInto fills the result from the engine's accumulators. The result's
// slices alias the engine's reusable buffers.
func (e *refEngine) resultInto(r *Result) {
	p := e.plan.Stages
	var iter float64
	for s := 0; s < p; s++ {
		if e.clock[s] > iter {
			iter = e.clock[s]
		}
	}
	for s := 0; s < p; s++ {
		e.idle[s] = iter - e.busy[s] - e.commStall[s]
		if e.idle[s] < 0 {
			e.idle[s] = 0
		}
	}
	if e.opt.Trace {
		sort.SliceStable(e.spans, func(i, j int) bool {
			if e.spans[i].Start != e.spans[j].Start {
				return e.spans[i].Start < e.spans[j].Start
			}
			return e.spans[i].Stage < e.spans[j].Stage
		})
	}
	for _, st := range e.classStats {
		if st.Transfers > 0 {
			e.classes = append(e.classes, *st)
		}
	}
	// Insertion sort by class name: the handful of link classes does not
	// justify sort.Slice's closure allocation on the steady-state path.
	for i := 1; i < len(e.classes); i++ {
		for j := i; j > 0 && e.classes[j].Class < e.classes[j-1].Class; j-- {
			e.classes[j], e.classes[j-1] = e.classes[j-1], e.classes[j]
		}
	}
	*r = Result{
		Method:           e.plan.Method,
		Stages:           p,
		IterationSeconds: iter,
		BusySeconds:      e.busy,
		CommStallSeconds: e.commStall,
		WaitSeconds:      e.wait,
		IdleSeconds:      e.idle,
		LinkBusySeconds:  e.linkBusy,
		PeakStashBytes:   e.peak,
		BytesSent:        e.sent,
		LinkClasses:      e.classes,
		Spans:            e.spans,
	}
	if len(e.classes) == 0 {
		r.LinkClasses = nil
	}
	if len(e.spans) == 0 {
		r.Spans = nil
	}
}

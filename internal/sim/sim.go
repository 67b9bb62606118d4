// Package sim is a deterministic discrete-event simulator for pipeline
// schedules. It executes a sched.Plan on a simulated cluster: one compute
// stream per stage, one full-duplex NIC per stage (node), and alpha-beta
// point-to-point links. It reports iteration time, per-stage busy/idle/wait
// breakdowns, communication statistics, peak stash memory, and an optional
// task timeline for rendering.
//
// The engine replaces the paper's 64-GPU testbeds: pipeline bubbles,
// comm/compute overlap and the FILO memory behaviour are all scheduling
// phenomena that the simulated task system reproduces exactly.
//
// The hot path is allocation-free in steady state: a Runner pre-sizes every
// per-stage buffer from the plan once and reuses it across Run calls. Only
// sends wait on the event loop's min-heap, keyed by int64 ticks: a send is
// the one op that touches state shared between stages, so each stage runs
// its compute and its recvs of messages already in flight in place, and a
// receiver whose message is not in flight parks until the send resumes it.
// Messages never hash: the validator matches every recv to its send's slot
// (sched.RecvSlots), and the engine indexes a flat arrival array by it.
package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Span records one executed operation for timeline rendering.
type Span struct {
	// Stage is the pipeline stage the op ran on.
	Stage int
	// Op is the executed operation.
	Op sched.Op
	// Start and End are the op's simulated time bounds in seconds. For
	// recvs, Start is when the stage began waiting and End when the message
	// arrived (End==Start for messages that were already there).
	Start, End float64
}

// Result summarises one simulated training iteration.
type Result struct {
	// Method is the simulated schedule.
	Method sched.Method
	// Stages is the pipeline size.
	Stages int
	// IterationSeconds is the makespan of one training iteration.
	IterationSeconds float64
	// BusySeconds is the per-stage compute-busy time (forward, backward,
	// recompute).
	BusySeconds []float64
	// CommStallSeconds is the per-stage time the compute stream spent
	// inside blocking sends (the naive FILO behaviour of Figure 6a).
	CommStallSeconds []float64
	// WaitSeconds is the per-stage time spent blocked in recvs waiting for
	// messages that had not arrived yet.
	WaitSeconds []float64
	// IdleSeconds is IterationSeconds minus busy and comm-stall time: the
	// pipeline bubble plus recv waiting.
	IdleSeconds []float64
	// LinkBusySeconds is the per-stage NIC busy time (max of the send and
	// receive directions).
	LinkBusySeconds []float64
	// PeakStashBytes is the per-stage peak activation stash
	// (sched.StashPeaks): a running sum over the stage's program order that
	// no timing changes.
	PeakStashBytes []int64
	// BytesSent is the per-stage outbound traffic.
	BytesSent []int64
	// LinkClasses breaks the iteration's communication down per link class
	// (nvlink, ib, ...), sorted by class name. Empty on runs without a
	// topology, where every transfer crosses the one flat NIC.
	LinkClasses []LinkClassStats
	// Spans is the executed-op timeline (only when Options.Trace is set).
	Spans []Span
}

// LinkClassStats aggregates the transfers that crossed one link class.
type LinkClassStats struct {
	// Class is the link class name ("nvlink", "ib", ...).
	Class string `json:"class"`
	// Bytes is the total volume carried by the class.
	Bytes int64 `json:"bytes"`
	// Seconds is the total wire (serialization) time spent on the class.
	Seconds float64 `json:"seconds"`
	// Transfers counts the messages.
	Transfers int `json:"transfers"`
}

// BubbleSeconds returns the mean per-stage idle time — the quantity the
// paper's Table 2 bubble formulas describe. A degenerate result with no
// per-stage breakdown has no bubble (0), not a NaN.
func (r *Result) BubbleSeconds() float64 {
	if len(r.IdleSeconds) == 0 {
		return 0
	}
	var sum float64
	for _, v := range r.IdleSeconds {
		sum += v
	}
	return sum / float64(len(r.IdleSeconds))
}

// MaxPeakStashBytes returns the largest per-stage stash peak (0 on a
// degenerate result with no per-stage breakdown).
func (r *Result) MaxPeakStashBytes() int64 {
	var peak int64
	for _, v := range r.PeakStashBytes {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// Throughput returns tokens-per-second given the tokens processed per
// iteration (the per-micro-batch token sum on variable-length workloads).
// A degenerate result with a non-positive makespan yields 0, not an Inf/NaN.
func (r *Result) Throughput(tokensPerIteration int64) float64 {
	if r.IterationSeconds <= 0 {
		return 0
	}
	return float64(tokensPerIteration) / r.IterationSeconds
}

// Clone returns a deep copy of the result that aliases no Runner buffer, so
// it stays valid after the Runner's next Run (or its return to the pool).
func (r *Result) Clone() *Result {
	out := *r
	out.BusySeconds = append([]float64(nil), r.BusySeconds...)
	out.CommStallSeconds = append([]float64(nil), r.CommStallSeconds...)
	out.WaitSeconds = append([]float64(nil), r.WaitSeconds...)
	out.IdleSeconds = append([]float64(nil), r.IdleSeconds...)
	out.LinkBusySeconds = append([]float64(nil), r.LinkBusySeconds...)
	out.PeakStashBytes = append([]int64(nil), r.PeakStashBytes...)
	out.BytesSent = append([]int64(nil), r.BytesSent...)
	out.LinkClasses = append([]LinkClassStats(nil), r.LinkClasses...)
	out.Spans = append([]Span(nil), r.Spans...)
	return &out
}

// Options tunes a simulation run.
type Options struct {
	// Trace records a Span per executed op.
	Trace bool
	// SMPenalty is the fraction of compute throughput lost while NIC
	// transfers overlap a compute op (NCCL steals SMs; paper section 5.3
	// observes the effect is marginal). Compute ops are stretched by
	// SMPenalty times their overlap with NIC busy intervals.
	SMPenalty float64
	// Topology, when set, replaces the plan's single flat NIC model: each
	// transfer's bandwidth and latency come from the link class between its
	// endpoints' placed devices. Compute is priced by the plan's
	// placement-resolved books (sched.NewCosts on the same topology), which
	// carry each stage's device generation and perturbation factors
	// (straggler, jitter); Run rejects a topology plan without one book per
	// stage.
	Topology *cluster.Topology
}

// Run simulates one training iteration of the plan and returns the result.
// Sends execute in global time order through a heap of waiting senders;
// every other op runs in place on its stage, and each recv finds its message
// by the slot Validate assigned it.
//
// With a non-zero SMPenalty the simulation runs twice: a penalty-free pass
// first records the complete NIC transfer timeline, then the reported pass
// stretches compute ops against that final interval set. Resolving overlap
// against the final set (instead of whatever transfers happened to be
// recorded before a compute op in the engine's global pick order) makes the
// penalty order-independent: identical plans always stretch identically,
// whatever the tie-breaking.
//
// Run draws a Runner from an internal pool and rebinds it to the plan, so
// cold starts reuse the per-stage buffers of earlier calls instead of
// reallocating them; the returned Result is a deep copy the caller owns. To
// re-simulate the same plan repeatedly (a benchmark steady state) build a
// Runner once and reuse it — reruns are then allocation-free.
func Run(plan *sched.Plan, opt Options) (*Result, error) {
	if err := check(plan, opt); err != nil {
		return nil, err
	}
	r := runnerPool.Get().(*Runner)
	poolGets.Inc()
	r.reinit(plan, opt)
	res, err := r.Run()
	if err != nil {
		putRunner(r)
		return nil, err
	}
	out := res.Clone()
	putRunner(r)
	return out, nil
}

// runnerPool recycles Runners across cold-start Run calls. A pooled Runner
// keeps its per-stage buffers; reinit resizes them to the next plan reusing
// their capacity.
var runnerPool = sync.Pool{New: func() any {
	poolCold.Inc()
	return &Runner{eng: &engine{}}
}}

// putRunner returns a Runner to the pool holding only its buffers: the plan,
// topology, message match and pre-pass oracle of its last run are dropped,
// so an idle pooled Runner never keeps a finished plan alive.
func putRunner(r *Runner) {
	r.eng.release()
	if r.pre != nil {
		r.pre.release()
	}
	runnerPool.Put(r)
	poolPuts.Inc()
}

// Pool traffic publishes to the default registry through package-level
// instruments resolved once at init: the gated hot paths stay
// allocation-free (Counter.Inc is one atomic add).
var (
	poolGets = obs.Default().Counter("helix_sim_runner_pool_gets_total")
	poolPuts = obs.Default().Counter("helix_sim_runner_pool_puts_total")
	poolCold = obs.Default().Counter("helix_sim_runner_pool_cold_inits_total")
)

// Runner is a reusable simulator for one plan: every per-stage buffer is
// allocated and pre-sized once, from the plan, and reused across Run calls.
// In steady state (second Run onward) a Runner performs zero heap
// allocations per run — the property the alloc-gate CI step pins. Only its
// senders wait on the event heap, and it reads the plan's message slots
// from the validator (sched.RecvSlots) rather than hashing messages.
//
// A Runner is not safe for concurrent use, and the Result it returns aliases
// its internal buffers: the result (including Spans) is valid only until the
// next Run call. Callers that need to keep a result across runs must copy it.
type Runner struct {
	eng *engine
	// pre is the penalty-free pre-pass engine of SMPenalty runs; its NIC
	// timeline is the oracle the reported pass resolves overlap against.
	pre *engine
	res Result
}

// NewRunner validates the plan against the options and returns a reusable
// simulator for it.
func NewRunner(plan *sched.Plan, opt Options) (*Runner, error) {
	if err := check(plan, opt); err != nil {
		return nil, err
	}
	return newRunner(plan, opt), nil
}

// check validates the plan, and under a topology that the topology was
// resolved for the plan's pipeline and the plan was built on its
// placement-resolved books: a topology run on flat books would price every
// stage as the flat cluster's device, whatever node it is placed on.
func check(plan *sched.Plan, opt Options) error {
	if err := sched.Validate(plan); err != nil {
		return fmt.Errorf("sim: invalid plan: %w", err)
	}
	if t := opt.Topology; t != nil {
		if err := t.CheckStages(plan.Stages); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		if len(plan.Costs.PerStage) != plan.Stages {
			return fmt.Errorf("sim: a topology run needs one placement-resolved cost book per stage, plan has %d for %d stages",
				len(plan.Costs.PerStage), plan.Stages)
		}
	}
	return nil
}

// newRunner builds the runner below the validator; crafted test plans enter
// here via runEngine. An unvalidated plan's recvs are matched to their sends
// by sched.RecvSlots' (tag, from, to) fallback, and a recv without a match
// never runs, so the engine reports the deadlock.
func newRunner(plan *sched.Plan, opt Options) *Runner {
	r := &Runner{eng: &engine{}}
	r.reinit(plan, opt)
	return r
}

// reinit rebinds the runner to a plan and options, reusing every buffer
// capacity left by the previous binding.
func (r *Runner) reinit(plan *sched.Plan, opt Options) {
	r.eng.reinit(plan, opt)
	if opt.SMPenalty > 0 {
		if r.pre == nil {
			r.pre = &engine{}
		}
		r.pre.reinit(plan, opt)
		r.pre.opt.SMPenalty = 0
		r.pre.opt.Trace = false
	} else {
		// A stale pre-pass engine would wrongly install its NIC oracle on the
		// reported pass; drop it until a penalized plan needs one again.
		r.pre = nil
	}
}

// runEngine simulates one iteration below the validator.
func runEngine(plan *sched.Plan, opt Options) (*Result, error) {
	return newRunner(plan, opt).Run()
}

// Run simulates one training iteration. The returned Result aliases the
// Runner's buffers and is valid until the next Run call.
func (r *Runner) Run() (*Result, error) {
	if r.pre != nil {
		r.pre.reset()
		if err := r.pre.run(); err != nil {
			return nil, err
		}
		r.eng.oracle = &r.pre.nic
	}
	r.eng.reset()
	if err := r.eng.run(); err != nil {
		return nil, err
	}
	r.eng.resultInto(&r.res)
	return &r.res, nil
}

// tick is simulated time as an int64 the event loop orders sends by: the
// order-preserving bit pattern of the non-negative float64 second count
// (IEEE 754 ordering matches numeric ordering for non-negative values).
// Encoding time this way keeps heap comparisons branch-cheap integer
// compares while the engine's arithmetic stays in float64 seconds — no
// quantization, so results are bit-identical to float ordering.
type tick int64

func toTick(sec float64) tick { return tick(math.Float64bits(sec)) }

// interval is one NIC reservation. seq is the transfer's global initiation
// order: overlap sums accumulate in seq order so the floating-point result
// is independent of how the per-direction timelines are stored.
type interval struct {
	start, end float64
	seq        int32
}

// nicLog is the per-stage NIC reservation timeline, split by direction.
// Within one direction the intervals are non-overlapping and sorted (each
// direction serializes its transfers), so overlap queries walk a cursor
// instead of scanning.
type nicLog struct {
	send, recv [][]interval
}

// waiting is a stage queued on the ready heap at its next send.
type waiting struct {
	at    tick
	stage int32
}

// nicCursor is one stage's position in each direction of the oracle: the
// first interval that ends after the stage's latest compute start.
type nicCursor struct {
	send, recv int32
}

type engine struct {
	plan *sched.Plan
	opt  Options

	pc    []int32
	clock []float64

	// ready is the min-heap of stages waiting at a send, ordered by the
	// send's (tick, stage). Sends are the only ops that touch state shared
	// between stages, so only they wait here; advance runs every other op
	// in place.
	ready []waiting

	// Message slots. A send's slot is its ordinal among the plan's sends in
	// stage-major order, and recvSlots[r] (sched.RecvSlots) is the slot of
	// the send the plan's r-th recv consumes, -1 for none. sendBase[s] and
	// recvBase[s] (sched.MessageBases, read-only) are the ordinals of stage
	// s's first send and recv, nsend[s] and nrecv[s] count the ones it has
	// executed: stage s's slot k is in flight once k < sendBase[s]+nsend[s],
	// and arrival[k] holds its arrival.
	recvSlots          []int32
	sendBase, recvBase []int32
	nsend, nrecv       []int32
	arrival            []float64

	sendFree []float64 // NIC send-direction availability per stage
	recvFree []float64 // NIC recv-direction availability per stage
	nic      nicLog
	seq      int32
	// oracle is the complete NIC timeline of the penalty-free pre-pass every
	// SMPenalty run makes; overlap is resolved against it so the stretch
	// does not depend on the engine's pick order. cursor[s] is stage s's
	// position in it.
	oracle *nicLog
	cursor []nicCursor

	// classStats aggregates transfers per link class under a topology.
	// Entries persist (zeroed) across reset so reruns stay allocation-free.
	classStats map[cluster.LinkClass]*LinkClassStats

	busy      []float64
	commStall []float64
	wait      []float64
	linkBusy  []float64
	sent      []int64
	peak      []int64

	idle    []float64
	classes []LinkClassStats

	spans []Span
}

func newEngine(plan *sched.Plan, opt Options) *engine {
	e := &engine{}
	e.reinit(plan, opt)
	return e
}

// grow returns s resized to length n, reusing its backing array when the
// capacity suffices. Retained elements may hold stale values from a previous
// binding; reset (which every Run begins with) rewrites them.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// reinit rebinds the engine to a plan, resizing every per-stage buffer and
// keeping whatever capacity a previous binding left behind — the cold-start
// Run pool relies on this to avoid re-allocating the engine per call.
func (e *engine) reinit(plan *sched.Plan, opt Options) {
	p := plan.Stages
	e.plan = plan
	e.opt = opt
	e.oracle = nil
	e.pc = grow(e.pc, p)
	e.clock = grow(e.clock, p)
	if cap(e.ready) < p {
		e.ready = make([]waiting, 0, p)
	}
	e.ready = e.ready[:0]
	e.nsend = grow(e.nsend, p)
	e.nrecv = grow(e.nrecv, p)
	e.sendFree = grow(e.sendFree, p)
	e.recvFree = grow(e.recvFree, p)
	e.nic.send = grow(e.nic.send, p)
	e.nic.recv = grow(e.nic.recv, p)
	e.cursor = grow(e.cursor, p)
	if e.classStats == nil {
		e.classStats = map[cluster.LinkClass]*LinkClassStats{}
	}
	e.busy = grow(e.busy, p)
	e.commStall = grow(e.commStall, p)
	e.wait = grow(e.wait, p)
	e.linkBusy = grow(e.linkBusy, p)
	e.sent = grow(e.sent, p)
	// The stash peaks do not depend on timing: the validator's walk fixes
	// them once per plan, and no run changes them.
	e.peak = grow(e.peak, p)
	copy(e.peak, sched.StashPeaks(plan))
	e.idle = grow(e.idle, p)
	// Number the messages by the validator's ordinals and pre-size the NIC
	// timelines, the arrivals and the span buffer exactly from the plan:
	// each stage's sends and recvs are known up front, so steady-state runs
	// never grow a buffer.
	e.sendBase, e.recvBase = sched.MessageBases(plan)
	for s := 0; s < p; s++ {
		if n := int(e.sendBase[s+1] - e.sendBase[s]); cap(e.nic.send[s]) < n {
			e.nic.send[s] = make([]interval, 0, n)
		}
		e.nic.send[s] = e.nic.send[s][:0]
		if n := int(e.recvBase[s+1] - e.recvBase[s]); cap(e.nic.recv[s]) < n {
			e.nic.recv[s] = make([]interval, 0, n)
		}
		e.nic.recv[s] = e.nic.recv[s][:0]
	}
	e.arrival = grow(e.arrival, int(e.sendBase[p]))
	e.recvSlots = sched.RecvSlots(plan)
	if ops := plan.NumOps(); opt.Trace && cap(e.spans) < ops {
		e.spans = make([]Span, 0, ops)
	}
	e.spans = e.spans[:0]
}

// release drops the engine's references to its plan, options, message
// match, message ordinals and oracle, keeping every buffer; reinit binds the
// next plan.
func (e *engine) release() {
	e.plan = nil
	e.opt = Options{}
	e.recvSlots, e.sendBase, e.recvBase = nil, nil, nil
	e.oracle = nil
}

// reset rewinds the engine to the start of an iteration, keeping every
// buffer's capacity.
func (e *engine) reset() {
	p := e.plan.Stages
	for s := 0; s < p; s++ {
		e.pc[s] = 0
		e.clock[s] = 0
		e.nsend[s] = 0
		e.nrecv[s] = 0
		e.sendFree[s] = 0
		e.recvFree[s] = 0
		e.nic.send[s] = e.nic.send[s][:0]
		e.nic.recv[s] = e.nic.recv[s][:0]
		e.cursor[s] = nicCursor{}
		e.busy[s] = 0
		e.commStall[s] = 0
		e.wait[s] = 0
		e.linkBusy[s] = 0
		e.sent[s] = 0
	}
	e.ready = e.ready[:0]
	e.seq = 0
	for _, st := range e.classStats {
		*st = LinkClassStats{Class: st.Class}
	}
	e.classes = e.classes[:0]
	e.spans = e.spans[:0]
}

// before orders the ready heap by (tick, stage): the earliest send runs
// first, ties to the lowest stage index.
func before(a, b waiting) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.stage < b.stage
}

func (e *engine) heapPush(w waiting) {
	e.ready = append(e.ready, w)
	for i := len(e.ready) - 1; i > 0; {
		parent := (i - 1) / 2
		if !before(e.ready[i], e.ready[parent]) {
			return
		}
		e.ready[i], e.ready[parent] = e.ready[parent], e.ready[i]
		i = parent
	}
}

func (e *engine) heapPop() int32 {
	s := e.ready[0].stage
	last := len(e.ready) - 1
	e.ready[0] = e.ready[last]
	e.ready = e.ready[:last]
	for i := 0; ; {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < last && before(e.ready[left], e.ready[smallest]) {
			smallest = left
		}
		if right < last && before(e.ready[right], e.ready[smallest]) {
			smallest = right
		}
		if smallest == i {
			return s
		}
		e.ready[i], e.ready[smallest] = e.ready[smallest], e.ready[i]
		i = smallest
	}
}

// run executes the sends of every stage in global time order until every
// program completes. The ready heap always pops the earliest waiting send,
// so NIC reservations, transfer numbering and link-class sums happen in
// non-decreasing global time; the ops between two sends touch only their
// own stage, so the order in which stages run them changes no result.
func (e *engine) run() error {
	p := e.plan.Stages
	for s := 0; s < p; s++ {
		e.advance(int32(s))
	}
	for len(e.ready) > 0 {
		s := e.heapPop()
		e.execSend(s)
		e.pc[s]++
		e.advance(s)
	}
	for s := 0; s < p; s++ {
		if int(e.pc[s]) < len(e.plan.Ops[s]) {
			return e.deadlockError()
		}
	}
	return nil
}

// advance runs stage s's ops in place — compute, and recvs whose message is
// already in flight — until the stage reaches a send, which queues it on
// the ready heap, a recv whose message is not in flight, which parks it
// until that message's send resumes it, or the end of its program.
func (e *engine) advance(s int32) {
	ops := e.plan.Ops[s]
	for int(e.pc[s]) < len(ops) {
		op := &ops[e.pc[s]]
		start := e.clock[s]
		switch op.Kind {
		case sched.KSend:
			e.heapPush(waiting{at: toTick(start), stage: s})
			return
		case sched.KRecv:
			k := e.recvSlots[e.recvBase[s]+e.nrecv[s]]
			if k < 0 || k >= e.sendBase[op.Peer]+e.nsend[op.Peer] {
				return
			}
			e.nrecv[s]++
			end := e.arrival[k]
			if start > end {
				end = start
			}
			e.wait[s] += end - start
			e.clock[s] = end
			e.record(s, op, start, end)
		default: // compute
			dur := op.Dur
			if e.opt.SMPenalty > 0 {
				overlap := e.nicOverlap(s, start, start+dur)
				dur += overlap * e.opt.SMPenalty
			}
			end := start + dur
			e.busy[s] += dur
			e.clock[s] = end
			e.record(s, op, start, end)
		}
		e.pc[s]++
	}
}

// execSend executes stage s's next op, a send: it reserves the NIC pair and
// computes the arrival time. Blocking sends additionally hold the compute
// stream until the message lands. A receiver parked on a recv resumes, in
// case this is its message.
func (e *engine) execSend(s int32) {
	op := &e.plan.Ops[s][e.pc[s]]
	start := e.clock[s]
	// The flat NIC parameters of the cost book, unless a topology resolves
	// this stage pair to a concrete link.
	bytesPerSec, latency := e.plan.Costs.P2PBytesPerSec, e.plan.Costs.P2PLatency
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
	xferStart := start
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
	iv := interval{start: xferStart, end: xferEnd, seq: e.seq}
	e.seq++
	e.nic.send[s] = append(e.nic.send[s], iv)
	e.nic.recv[op.Peer] = append(e.nic.recv[op.Peer], iv)
	e.linkBusy[s] += wireDur
	e.sent[s] += op.Bytes
	e.arrival[e.sendBase[s]+e.nsend[s]] = arrival
	e.nsend[s]++
	if op.Blocking {
		e.commStall[s] += arrival - start
		e.clock[s] = arrival
		e.record(s, op, start, arrival)
	} else {
		e.record(s, op, start, start)
	}
	if p := op.Peer; p != s && int(e.pc[p]) < len(e.plan.Ops[p]) && e.plan.Ops[p][e.pc[p]].Kind == sched.KRecv {
		e.advance(p)
	}
}

// nicOverlap returns the total overlap of [start, end] with this stage's
// NIC transfer intervals in the pre-pass oracle (the order-independent
// final set). The overlapping run of each direction starts at the stage's
// cursor; the two runs are then merged in transfer-initiation (seq) order so
// the sum accumulates exactly as a single chronological scan would.
func (e *engine) nicOverlap(s int32, start, end float64) float64 {
	cur := &e.cursor[s]
	sendRun := overlapping(e.oracle.send[s], &cur.send, start, end)
	recvRun := overlapping(e.oracle.recv[s], &cur.recv, start, end)
	var total float64
	i, j := 0, 0
	for i < len(sendRun) && j < len(recvRun) {
		if sendRun[i].seq < recvRun[j].seq {
			total += clampedOverlap(sendRun[i], start, end)
			i++
		} else {
			total += clampedOverlap(recvRun[j], start, end)
			j++
		}
	}
	for ; i < len(sendRun); i++ {
		total += clampedOverlap(sendRun[i], start, end)
	}
	for ; j < len(recvRun); j++ {
		total += clampedOverlap(recvRun[j], start, end)
	}
	return total
}

// overlapping returns the contiguous run of intervals overlapping [start,
// end] within one sorted, non-overlapping timeline, moving the cursor *lo to
// its first interval that ends after start (ends are non-decreasing). A
// stage's compute starts never decrease while link latencies are
// non-negative, so the cursor only walks forward; stepping back keeps the
// run exact for any query order.
func overlapping(ivs []interval, lo *int32, start, end float64) []interval {
	i := *lo
	for i > 0 && ivs[i-1].end > start {
		i--
	}
	for int(i) < len(ivs) && ivs[i].end <= start {
		i++
	}
	*lo = i
	hi := i
	for int(hi) < len(ivs) && ivs[hi].start < end {
		hi++
	}
	return ivs[i:hi]
}

func clampedOverlap(iv interval, start, end float64) float64 {
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
func (e *engine) deadlockError() error {
	var b []byte
	for s := 0; s < e.plan.Stages; s++ {
		if int(e.pc[s]) >= len(e.plan.Ops[s]) {
			continue
		}
		// Only a recv can block: every send is queued and executed.
		op := e.plan.Ops[s][e.pc[s]]
		if len(b) > 0 {
			b = append(b, "; "...)
		}
		b = fmt.Appendf(b, "stage %d blocked at op %d/%d waiting for tag %v from stage %d (send never initiated)",
			s, e.pc[s], len(e.plan.Ops[s]), op.Tag, op.Peer)
	}
	return fmt.Errorf("sim: deadlock — %s", b)
}

func (e *engine) record(s int32, op *sched.Op, start, end float64) {
	if e.opt.Trace {
		e.spans = append(e.spans, Span{Stage: int(s), Op: *op, Start: start, End: end})
	}
}

// resultInto fills the result from the engine's accumulators. The result's
// slices alias the engine's reusable buffers.
func (e *engine) resultInto(r *Result) {
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

// Package sched defines the schedule intermediate representation shared by
// every pipeline parallelism in this repository, and the generators for the
// layer-wise baselines (GPipe, 1F1B, interleaved 1F1B, ZB1P, AdaPipe).
// HelixPipe's attention-parallel plans are built by internal/core on top of
// the same IR.
//
// A Plan is a static program: for every pipeline stage, an ordered list of
// compute and communication operations. Two independent engines consume
// plans: internal/sim times them on a simulated cluster, and internal/exec
// runs them numerically on real tensors with one goroutine per stage. The
// IR is therefore purely structural — durations and byte volumes are
// annotations provided by a cost book at build time.
package sched

import (
	"fmt"

	"repro/internal/model"
)

// OpKind discriminates the operations of a plan. It is signed, so the
// validator's range check still rejects a negative kind on a hand-built op.
type OpKind int8

const (
	// KForward executes the forward pass of one target (a layer segment,
	// the embedding, or the LM head).
	KForward OpKind = iota
	// KBackwardB executes the input-gradient backward pass of one target.
	KBackwardB
	// KBackwardW executes the weight-gradient backward pass of one target.
	KBackwardW
	// KRecompute re-executes a forward target to regenerate discarded
	// intermediate activations before its backward pass.
	KRecompute
	// KSend initiates a point-to-point transfer to Op.Peer. Unless
	// Op.Blocking is set, the send only enqueues on the NIC and the stage
	// continues immediately.
	KSend
	// KRecv waits for the matching message from Op.Peer to arrive.
	KRecv
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case KForward:
		return "F"
	case KBackwardB:
		return "B"
	case KBackwardW:
		return "W"
	case KRecompute:
		return "R"
	case KSend:
		return "send"
	case KRecv:
		return "recv"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// IsCompute reports whether the op occupies the stage's compute resource
// with a model computation (as opposed to communication).
func (k OpKind) IsCompute() bool {
	return k == KForward || k == KBackwardB || k == KBackwardW || k == KRecompute
}

// Special layer indices for non-layer targets.
const (
	// LayerEmbed marks an op that targets the input embeddings.
	LayerEmbed = -1
	// LayerHead marks an op that targets the LM head and loss. With the
	// paper's section 4.6 optimization the head forward+loss runs inside
	// the backward pass, so plans usually contain only KBackwardB/W ops
	// for this target.
	LayerHead = -2
)

// Boundary identifies the kind of inter-stage activation boundary a message
// crosses, which determines its byte volume. Like OpKind it is a signed byte.
type Boundary int8

const (
	// BoundAct is the conventional layer-wise pipeline boundary: one
	// [s,b,h] activation or its gradient (1F1B, GPipe, ZB1P, AdaPipe).
	BoundAct Boundary = iota
	// BoundPreAttn is HelixPipe's pre-attention to attention boundary:
	// attention input plus residual plus shipped QKV weights (section 4.2).
	BoundPreAttn
	// BoundAttnPost is HelixPipe's attention to post-attention boundary:
	// attention output plus residual.
	BoundAttnPost
)

// String implements fmt.Stringer.
func (b Boundary) String() string {
	switch b {
	case BoundAct:
		return "act"
	case BoundPreAttn:
		return "pre>attn"
	case BoundAttnPost:
		return "attn>post"
	default:
		return fmt.Sprintf("Boundary(%d)", int(b))
	}
}

// Tag uniquely identifies a message within one iteration. A KSend and a
// KRecv match if and only if their tags are equal and their stages name each
// other as peers; Validate rejects a plan that sends the same (tag, from, to)
// twice.
type Tag struct {
	// MB is the micro batch index.
	MB int32
	// Layer is the layer the boundary belongs to. A layer-wise boundary
	// names the first layer of the chunk its activation enters, so tags
	// stay unique when a stage owns several chunks (interleaved 1F1B).
	Layer int32
	// Bound is the boundary kind.
	Bound Boundary
	// Back marks gradient (backward) traffic.
	Back bool
}

// String implements fmt.Stringer.
func (t Tag) String() string {
	dir := "f"
	if t.Back {
		dir = "b"
	}
	return fmt.Sprintf("%s/l%d/mb%d/%s", t.Bound, t.Layer, t.MB, dir)
}

// Op is one operation in a stage program.
//
// An op is one 64-byte cache line. Its fields run widest first: the four
// 8-byte fields, then the three int32 indices and the 12-byte Tag, then the
// three one-byte fields, so no field leaves a padding hole and the 59 bytes
// round up to 64 (TestOpLayout pins the size). Builders, the validator and
// both engines stream whole programs of ops, so this size is what every
// plan is zeroed, written and read in. int32 is enough for every index:
// micro batches are capped at costmodel.MaxMicroBatches (4,096), and the
// preset layer and stage counts are far smaller.
type Op struct {
	// Dur is the compute duration in seconds (compute kinds only).
	Dur float64
	// Alloc is the number of bytes of stash the compute op allocates. It
	// counts toward the stage's peak before the op's Free is released
	// (StashPeaks). Message ops carry no stash.
	Alloc int64
	// Free is the number of bytes of stash the compute op releases.
	Free int64
	// Bytes is the node-aggregate volume of a KSend (ignored on KRecv; the
	// matching send's volume governs the transfer).
	Bytes int64
	// MB is the micro batch index the op works on.
	MB int32
	// Layer is the target layer (or LayerEmbed / LayerHead).
	Layer int32
	// Peer is the other stage of a communication op.
	Peer int32
	// Tag identifies the message of a communication op.
	Tag Tag
	// Kind is the operation kind.
	Kind OpKind
	// Seg is the layer segment for layer targets.
	Seg model.Segment
	// Blocking marks a KSend that occupies the compute stream until the
	// transfer completes — the behaviour of the naive FILO schedule
	// (paper Figure 6a). Non-blocking sends only enqueue.
	Blocking bool
}

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o.Kind {
	case KSend, KRecv:
		return fmt.Sprintf("%v(%v->%d)", o.Kind, o.Tag, o.Peer)
	default:
		switch o.Layer {
		case LayerEmbed:
			return fmt.Sprintf("%v(embed,mb%d)", o.Kind, o.MB)
		case LayerHead:
			return fmt.Sprintf("%v(head,mb%d)", o.Kind, o.MB)
		default:
			return fmt.Sprintf("%v(l%d.%v,mb%d)", o.Kind, o.Layer, o.Seg, o.MB)
		}
	}
}

// Method names a pipeline parallelism.
type Method string

// The pipeline parallelisms implemented in this repository.
const (
	MethodGPipe            Method = "GPipe"
	Method1F1B             Method = "1F1B"
	MethodInterleaved      Method = "Interleaved1F1B"
	MethodZB1P             Method = "ZB1P"
	MethodZB2P             Method = "ZB2P"
	MethodAdaPipe          Method = "AdaPipe"
	MethodHelixNaive       Method = "HelixPipe-naive"
	MethodHelix            Method = "HelixPipe"
	MethodHelixNoRecompute Method = "HelixPipe-norecompute"
)

// Plan is a static pipeline schedule: one ordered op program per stage.
type Plan struct {
	// Method names the generating schedule.
	Method Method
	// Stages is the pipeline size p.
	Stages int
	// MicroBatches is the number of micro batches m per iteration.
	MicroBatches int
	// Layers is the transformer layer count L.
	Layers int
	// Ops holds the per-stage programs: Ops[stage] executes in order.
	Ops [][]Op
	// Costs is the cost book the plan was built with; the simulator uses
	// its link parameters to time communication.
	Costs Costs
	// Batch holds the per-micro-batch shapes of a variable-length workload.
	// Empty Shapes mean the legacy fixed-shape iteration. When set, its
	// length must equal MicroBatches (enforced by Validate).
	Batch model.BatchSpec
	// Placement optionally records the cluster device each stage was placed
	// on (internal/cluster's Placement.Devices). Empty means unplaced (the
	// flat one-hop NIC model). When set, its length must equal Stages and
	// its entries must be distinct (enforced by Validate).
	Placement []int

	// validated memoizes a successful Validate, so re-simulating the same
	// plan (a pooled sim.Run per sweep cell) does not re-walk the full token
	// dataflow every call. recvSlots is the message match that walk recorded
	// (RecvSlots), msgBases the per-stage message ordinals it numbered the
	// sends and recvs by (MessageBases), and stashPeaks the per-stage stash
	// peaks of its memory pass (StashPeaks). All four describe the Ops they
	// were computed on, and a copy of the plan carries them: code that
	// changes a validated plan's Ops must build a fresh Plan. In practice
	// plans are immutable once built.
	validated  bool
	recvSlots  []int32
	msgBases   []int32
	stashPeaks []int64

	// slab is the whole backing array Ops are carved from (NewPlan), at its
	// full capacity, which Recycle returns to the free list. It is nil on a
	// hand-built or recycled plan.
	slab []Op
}

// TrafficMatrix returns the per-(stage, peer) communication volume of the
// plan: m[s][p] is the bytes stage s sends stage p over one iteration,
// summed over the plan's KSend ops. This is the input the topology-aware
// placement search minimizes modeled P2P cost against.
func (p *Plan) TrafficMatrix() [][]int64 {
	m := make([][]int64, p.Stages)
	for s := range m {
		m[s] = make([]int64, p.Stages)
	}
	for s, ops := range p.Ops {
		for _, op := range ops {
			if op.Kind == KSend && op.Peer >= 0 && int(op.Peer) < p.Stages {
				m[s][op.Peer] += op.Bytes
			}
		}
	}
	return m
}

// carve returns len(lengths) empty slices with capacities lengths, sharing
// backing, which must hold their sum.
func carve[T any](lengths []int, backing []T) [][]T {
	out := make([][]T, len(lengths))
	for i, n := range lengths {
		out[i], backing = backing[:0:n], backing[n:]
	}
	return out
}

// NumOps returns the total operation count across all stages.
func (p *Plan) NumOps() int {
	n := 0
	for _, ops := range p.Ops {
		n += len(ops)
	}
	return n
}

// ComputeSeconds returns the total compute time summed over all stages
// (the lower bound on p * iteration time with zero bubble).
func (p *Plan) ComputeSeconds() float64 {
	var total float64
	for _, ops := range p.Ops {
		for _, op := range ops {
			if op.Kind.IsCompute() {
				total += op.Dur
			}
		}
	}
	return total
}

// StageComputeSeconds returns the compute time of one stage's program.
func (p *Plan) StageComputeSeconds(stage int) float64 {
	var total float64
	for _, op := range p.Ops[stage] {
		if op.Kind.IsCompute() {
			total += op.Dur
		}
	}
	return total
}

// Config carries the schedule-independent build parameters shared by all
// generators.
type Config struct {
	// Stages is the pipeline size p. The paper maps one stage to one node.
	Stages int
	// MicroBatches is the number of micro batches m per iteration. The
	// paper uses m = 2p ("the global batch size was set to double the
	// pipeline size", section 5.1).
	MicroBatches int
	// Layers is the transformer layer count; must be divisible by Stages.
	Layers int
	// Batch optionally records the per-micro-batch shapes of a
	// variable-length workload; generators copy it onto the plan. When set,
	// its length must equal MicroBatches. The shapes themselves do not steer
	// scheduling — the per-micro-batch cost book does — but engines and
	// reports read them off the plan.
	Batch model.BatchSpec
}

// Validate reports an error when the configuration cannot be scheduled.
func (c Config) Validate() error {
	switch {
	case c.Stages <= 0:
		return fmt.Errorf("sched: Stages must be positive, got %d", c.Stages)
	case c.MicroBatches <= 0:
		return fmt.Errorf("sched: MicroBatches must be positive, got %d", c.MicroBatches)
	case c.Layers <= 0:
		return fmt.Errorf("sched: Layers must be positive, got %d", c.Layers)
	case c.Layers%c.Stages != 0:
		return fmt.Errorf("sched: Layers (%d) must be divisible by Stages (%d)", c.Layers, c.Stages)
	}
	if n := len(c.Batch.Shapes); n > 0 {
		if n != c.MicroBatches {
			return fmt.Errorf("sched: batch spec has %d shapes for %d micro batches", n, c.MicroBatches)
		}
		if err := c.Batch.Validate(); err != nil {
			return err
		}
	}
	return nil
}

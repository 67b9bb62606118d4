package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sched"
)

// mirrorPlan relabels the plan's stages s -> p-1-s (programs and peers). A
// mirrored plan is the same schedule under a different stage naming, so any
// correct simulator must produce mirrored results. It is a fresh plan, not a
// copy: a copy would carry the original's validation memo and message match.
func mirrorPlan(p *sched.Plan) *sched.Plan {
	out := sched.Plan{Method: p.Method, Stages: p.Stages, MicroBatches: p.MicroBatches, Layers: p.Layers,
		Costs: p.Costs, Batch: p.Batch}
	out.Ops = make([][]sched.Op, p.Stages)
	for s, ops := range p.Ops {
		ms := p.Stages - 1 - s
		out.Ops[ms] = make([]sched.Op, len(ops))
		for i, op := range ops {
			if op.Kind == sched.KSend || op.Kind == sched.KRecv {
				op.Peer = int32(p.Stages) - 1 - op.Peer
			}
			out.Ops[ms][i] = op
		}
	}
	return &out
}

// TestSMPenaltyOrderIndependence pins the second-pass overlap resolution:
// before it, nicOverlap only saw NIC intervals recorded earlier in the
// engine's global pick order, so relabeling the stages of an identical plan
// could change which compute ops got stretched. Mirrored plans must now get
// mirrored results, busy second for busy second.
func TestSMPenaltyOrderIndependence(t *testing.T) {
	cfg := sched.Config{Stages: 2, MicroBatches: 4, Layers: 4}
	// Comm time comparable to compute so transfers overlap compute windows.
	costs := sched.UnitCosts(0.5)
	for name, build := range map[string]func() (*sched.Plan, error){
		"1F1B": func() (*sched.Plan, error) { return sched.OneFOneB(cfg, costs) },
		"ZB1P": func() (*sched.Plan, error) { return sched.ZB1P(cfg, costs) },
	} {
		plan, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opt := Options{SMPenalty: 0.5}
		r, err := Run(plan, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := Run(mirrorPlan(plan), opt)
		if err != nil {
			t.Fatalf("%s mirrored: %v", name, err)
		}
		if math.Abs(r.IterationSeconds-m.IterationSeconds) > 1e-9 {
			t.Errorf("%s: iteration %g vs mirrored %g", name, r.IterationSeconds, m.IterationSeconds)
		}
		for s := 0; s < plan.Stages; s++ {
			ms := plan.Stages - 1 - s
			if math.Abs(r.BusySeconds[s]-m.BusySeconds[ms]) > 1e-9 {
				t.Errorf("%s: stage %d busy %g vs mirrored stage %d busy %g",
					name, s, r.BusySeconds[s], ms, m.BusySeconds[ms])
			}
		}
	}
}

// TestSMPenaltyStretchIsOrderIndependent pins the bug directly at the engine
// level: a compute op and a peer's transfer begin at the same instant, so
// which executes first in the engine's pick order is pure stage-index
// tie-breaking. Before the pre-pass oracle, the compute was stretched only
// when the sender's index let the transfer record first; the mirrored naming
// of the same plan changed the result. Both orientations must now stretch.
func TestSMPenaltyStretchIsOrderIndependent(t *testing.T) {
	const wire, dur, penalty = 5.0, 10.0, 0.5
	// computeFirst: stage 0 computes while stage 1 sends to it at t=0.
	// Stage-index tie-breaking executes the compute before the send records
	// its NIC interval. (The plan skips the validator's token semantics on
	// purpose; runEngine is the post-validation entry point.)
	mk := func(computeStage, sendStage int) *sched.Plan {
		ops := make([][]sched.Op, 2)
		ops[computeStage] = []sched.Op{{Kind: sched.KForward, MB: 0, Layer: 0, Dur: dur}}
		ops[sendStage] = []sched.Op{{Kind: sched.KSend, MB: 0, Peer: int32(computeStage),
			Tag: sched.Tag{MB: 0}, Bytes: 1}}
		return &sched.Plan{Method: "crafted", Stages: 2, MicroBatches: 1, Layers: 2,
			Ops: ops, Costs: sched.Costs{P2PBytesPerSec: 1 / wire}}
	}
	want := dur + wire*penalty
	for name, plan := range map[string]*sched.Plan{
		"compute-on-0": mk(0, 1),
		"compute-on-1": mk(1, 0),
	} {
		r, err := runEngine(plan, Options{SMPenalty: penalty})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var busy float64
		for _, b := range r.BusySeconds {
			busy += b
		}
		if math.Abs(busy-want) > 1e-9 {
			t.Errorf("%s: busy %g, want %g (stretch must not depend on stage order)",
				name, busy, want)
		}
	}
}

// TestSMPenaltySeesLaterTransfers checks the oracle covers transfers that
// begin while a compute op is already running: the penalized makespan must
// not be shorter than the penalty-free one, and with overlapping traffic on
// a comm-heavy plan it must be strictly longer.
func TestSMPenaltySeesLaterTransfers(t *testing.T) {
	cfg := sched.Config{Stages: 2, MicroBatches: 4, Layers: 4}
	costs := sched.UnitCosts(1.0)
	plan, err := sched.OneFOneB(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pen, err := Run(plan, Options{SMPenalty: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if pen.IterationSeconds < base.IterationSeconds {
		t.Errorf("penalty shortened the iteration: %g < %g",
			pen.IterationSeconds, base.IterationSeconds)
	}
	var busyBase, busyPen float64
	for s := range base.BusySeconds {
		busyBase += base.BusySeconds[s]
		busyPen += pen.BusySeconds[s]
	}
	if !(busyPen > busyBase) {
		t.Errorf("penalty did not stretch compute: %g vs %g", busyPen, busyBase)
	}
}

// TestDegenerateResultGuards pins the divide-by-zero guards on an empty
// Result.
func TestDegenerateResultGuards(t *testing.T) {
	var r Result
	if got := r.BubbleSeconds(); got != 0 || math.IsNaN(got) {
		t.Errorf("BubbleSeconds on empty result = %v, want 0", got)
	}
	if got := r.MaxPeakStashBytes(); got != 0 {
		t.Errorf("MaxPeakStashBytes on empty result = %d, want 0", got)
	}
	if got := r.Throughput(1000); got != 0 || math.IsInf(got, 1) {
		t.Errorf("Throughput on empty result = %v, want 0", got)
	}
}

// TestDeadlockErrorNamesBlockage drives the engine (below the validator)
// into a cross recv deadlock and checks the error names each blocked stage
// and the (tag, peer) it waits on.
func TestDeadlockErrorNamesBlockage(t *testing.T) {
	tagA := sched.Tag{MB: 0, Layer: 1, Bound: sched.BoundAct}
	tagB := sched.Tag{MB: 1, Layer: 2, Bound: sched.BoundAct, Back: true}
	plan := &sched.Plan{
		Method: "broken", Stages: 2, MicroBatches: 2, Layers: 2,
		Ops: [][]sched.Op{
			{{Kind: sched.KRecv, MB: 0, Peer: 1, Tag: tagA}},
			{{Kind: sched.KRecv, MB: 1, Peer: 0, Tag: tagB}},
		},
	}
	e := newEngine(plan, Options{})
	err := e.run()
	if err == nil {
		t.Fatal("cross recvs must deadlock")
	}
	msg := err.Error()
	for _, want := range []string{
		"stage 0 blocked", "stage 1 blocked",
		tagA.String(), tagB.String(),
		"from stage 1", "from stage 0",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock error %q misses %q", msg, want)
		}
	}
}

// TestVariableLengthSimulation runs a variable-length plan end to end and
// checks the timing accounting holds per stage.
func TestVariableLengthSimulation(t *testing.T) {
	cfg := sched.Config{Stages: 2, MicroBatches: 4, Layers: 4}
	costs := sched.UnitBatchCosts(0.25, []float64{1, 4, 1, 4})
	plan, err := sched.OneFOneB(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < plan.Stages; s++ {
		if want := plan.StageComputeSeconds(s); math.Abs(r.BusySeconds[s]-want) > 1e-9 {
			t.Errorf("stage %d busy %g, want compute total %g", s, r.BusySeconds[s], want)
		}
		if r.IterationSeconds < r.BusySeconds[s] {
			t.Errorf("stage %d busy exceeds makespan", s)
		}
	}
}

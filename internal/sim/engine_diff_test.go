package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/sched"
)

// diffBook is one cost book of the differential grid with the topology its
// runs need (nil for the flat NIC).
type diffBook struct {
	name  string
	costs sched.Costs
	topo  *cluster.Topology
}

// diffBooks returns the books the engine grid simulates p stages on: flat,
// placed on DGX-A800x4 and on the PCIe box, and placed on DGX-A800x4 under a
// straggler, a degraded InfiniBand and compute jitter.
func diffBooks(t *testing.T, p int) []diffBook {
	t.Helper()
	w := costmodel.NewWorkload(model.Model3B(), costmodel.A800Cluster(), model.Shape{B: 1, S: 16384})
	placed := func(c cluster.Cluster, perturb cluster.Perturb) (sched.Costs, *cluster.Topology) {
		devices := make([]int, p)
		for s := range devices {
			devices[s] = s * (c.Devices() / p)
		}
		if perturb.SlowFactor > 0 {
			perturb.SlowDevice = devices[p/2]
		}
		topo, err := cluster.Resolve(c, cluster.Placement{Devices: devices}, perturb)
		if err != nil {
			t.Fatal(err)
		}
		return sched.NewCosts(w, model.BatchSpec{}, topo), topo
	}
	none := cluster.Perturb{SlowDevice: -1}
	a800, a800Topo := placed(cluster.DGXA800x4(), none)
	pcie, pcieTopo := placed(cluster.PCIeBox(), none)
	perturbed, perturbedTopo := placed(cluster.DGXA800x4(), cluster.Perturb{SlowFactor: 1.5,
		DegradeClass: cluster.ClassIB, DegradeFactor: 0.5, Jitter: 0.1, Seed: 7})
	return []diffBook{
		{"flat", sched.NewCosts(w, model.BatchSpec{}, nil), nil},
		{"DGX-A800x4", a800, a800Topo},
		{"PCIe-box", pcie, pcieTopo},
		{"perturbed", perturbed, perturbedTopo},
	}
}

// sameBits reports whether two float vectors are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// resultDiff names the first field where two results differ bit for bit,
// or returns "" when they are identical: the makespan, every per-stage
// vector, the link classes and the spans in order.
func resultDiff(got, want *Result) string {
	floats := []struct {
		name      string
		got, want []float64
	}{
		{"IterationSeconds", []float64{got.IterationSeconds}, []float64{want.IterationSeconds}},
		{"BusySeconds", got.BusySeconds, want.BusySeconds},
		{"CommStallSeconds", got.CommStallSeconds, want.CommStallSeconds},
		{"WaitSeconds", got.WaitSeconds, want.WaitSeconds},
		{"IdleSeconds", got.IdleSeconds, want.IdleSeconds},
		{"LinkBusySeconds", got.LinkBusySeconds, want.LinkBusySeconds},
	}
	for _, f := range floats {
		if !sameBits(f.got, f.want) {
			return fmt.Sprintf("%s %v, want %v", f.name, f.got, f.want)
		}
	}
	ints := []struct {
		name      string
		got, want []int64
	}{
		{"PeakStashBytes", got.PeakStashBytes, want.PeakStashBytes},
		{"BytesSent", got.BytesSent, want.BytesSent},
	}
	for _, f := range ints {
		if fmt.Sprint(f.got) != fmt.Sprint(f.want) {
			return fmt.Sprintf("%s %v, want %v", f.name, f.got, f.want)
		}
	}
	if got.Method != want.Method || got.Stages != want.Stages {
		return fmt.Sprintf("header %s/%d, want %s/%d", got.Method, got.Stages, want.Method, want.Stages)
	}
	if len(got.LinkClasses) != len(want.LinkClasses) {
		return fmt.Sprintf("LinkClasses %+v, want %+v", got.LinkClasses, want.LinkClasses)
	}
	for i, c := range got.LinkClasses {
		w := want.LinkClasses[i]
		if c.Class != w.Class || c.Bytes != w.Bytes || c.Transfers != w.Transfers ||
			math.Float64bits(c.Seconds) != math.Float64bits(w.Seconds) {
			return fmt.Sprintf("LinkClasses[%d] %+v, want %+v", i, c, w)
		}
	}
	if len(got.Spans) != len(want.Spans) {
		return fmt.Sprintf("%d spans, want %d", len(got.Spans), len(want.Spans))
	}
	for i, sp := range got.Spans {
		w := want.Spans[i]
		if sp.Stage != w.Stage || sp.Op != w.Op || math.Float64bits(sp.Op.Dur) != math.Float64bits(w.Op.Dur) ||
			math.Float64bits(sp.Start) != math.Float64bits(w.Start) || math.Float64bits(sp.End) != math.Float64bits(w.End) {
			return fmt.Sprintf("span %d %+v, want %+v", i, sp, w)
		}
	}
	return ""
}

// diffRun simulates the plan on both engines and reports the first
// difference, or an error either engine returned.
func diffRun(plan *sched.Plan, opt Options) (string, error) {
	want, err := refRun(plan, opt)
	if err != nil {
		return "", fmt.Errorf("reference: %w", err)
	}
	got, err := Run(plan, opt)
	if err != nil {
		return "", err
	}
	return resultDiff(got, want), nil
}

// TestEngineMatchesReference proves the engine against the one-heap-event-
// per-op engine it replaced (engine_ref_test.go): every registered method,
// p in {1,2,3,4,8}, m in {p,2p,3p}, flat, placed (DGX-A800x4, PCIe box) and
// perturbed books, SMPenalty in {0, 0.03, 0.3}, tracing on and off. To keep
// the -race run short the grid is thinned: every third (p, method, m, book)
// cell runs, with one of the six (penalty, trace) settings in rotation, so
// each method still meets every book and every book every setting. Results
// must match bit for bit, spans in order. Geometries a method rejects are
// skipped.
func TestEngineMatchesReference(t *testing.T) {
	type setting struct {
		penalty float64
		trace   bool
	}
	var settings []setting
	for _, penalty := range []float64{0, 0.03, 0.3} {
		for _, trace := range []bool{false, true} {
			settings = append(settings, setting{penalty, trace})
		}
	}
	cell, ran := 0, 0
	for _, p := range []int{1, 2, 3, 4, 8} {
		books := diffBooks(t, p)
		for _, method := range sched.Methods() {
			for _, m := range []int{p, 2 * p, 3 * p} {
				for _, book := range books {
					cell++
					if cell%3 != 0 {
						continue
					}
					set := settings[cell/3%len(settings)]
					cfg := sched.Config{Stages: p, MicroBatches: m, Layers: 2 * p}
					plan, err := sched.Build(method, cfg, book.costs, sched.BuildParams{})
					if err != nil {
						continue
					}
					name := fmt.Sprintf("%s p=%d m=%d %s penalty=%g trace=%v", method, p, m, book.name, set.penalty, set.trace)
					diff, err := diffRun(plan, Options{SMPenalty: set.penalty, Trace: set.trace, Topology: book.topo})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if diff != "" {
						t.Fatalf("%s: %s", name, diff)
					}
					ran++
				}
			}
		}
	}
	t.Logf("%d of %d cells ran", ran, cell/3)
	if ran < cell/6 {
		t.Fatalf("only %d of %d cells built a plan: the grid exercises too little", ran, cell/3)
	}
}

// TestEngineMatchesReferenceOnMutants drops, duplicates or swaps one op of
// a two-stage plan of every registered method (m=4, L=4), at every position,
// and runs each mutant Validate accepts on both engines, placed across two
// DGX-A800x4 nodes with a large SM penalty: each must complete on both and
// match bit for bit. The link-class sums accumulate in send order, so a
// send run out of order shows even on two stages.
func TestEngineMatchesReferenceOnMutants(t *testing.T) {
	book := diffBooks(t, 2)[1]
	accepted := 0
	for _, method := range sched.Methods() {
		cfg := sched.Config{Stages: 2, MicroBatches: 4, Layers: 4}
		plan, err := sched.Build(method, cfg, book.costs, sched.BuildParams{})
		if err != nil {
			continue
		}
		for s, ops := range plan.Ops {
			for i := range ops {
				variants := map[string][]sched.Op{
					"drop": append(append([]sched.Op(nil), ops[:i]...), ops[i+1:]...),
					"dup":  append(append([]sched.Op(nil), ops[:i+1]...), ops[i:]...),
				}
				if i+1 < len(ops) {
					swapped := append([]sched.Op(nil), ops...)
					swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
					variants["swap"] = swapped
				}
				for kind, mutated := range variants {
					progs := append([][]sched.Op(nil), plan.Ops...)
					progs[s] = mutated
					bad := &sched.Plan{Method: plan.Method, Stages: plan.Stages, MicroBatches: plan.MicroBatches,
						Layers: plan.Layers, Ops: progs, Costs: plan.Costs, Placement: plan.Placement}
					if sched.Validate(bad) != nil {
						continue
					}
					accepted++
					name := fmt.Sprintf("%s %s s%d op%d", method, kind, s, i)
					diff, err := diffRun(bad, Options{SMPenalty: 0.3, Trace: true, Topology: book.topo})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if diff != "" {
						t.Fatalf("%s: %s", name, diff)
					}
				}
			}
		}
	}
	t.Logf("%d mutants accepted", accepted)
	if accepted == 0 {
		t.Fatal("Validate accepted no mutant: the test exercises nothing")
	}
}

// overlaps counts the intervals of one stage's oracle timeline, in each
// direction, that overlap the window [start, end].
func overlaps(nic *nicLog, s int, start, end float64) (sends, recvs int) {
	for _, iv := range nic.send[s] {
		if iv.start < end && iv.end > start {
			sends++
		}
	}
	for _, iv := range nic.recv[s] {
		if iv.start < end && iv.end > start {
			recvs++
		}
	}
	return sends, recvs
}

// TestEngineOverlapEdgesMatchReference runs the engine on the edges of its
// SM-penalty overlap sum, bit for bit against refRun at SMPenalty 0.3 with
// tracing on and off, below the validator on two crafted two-stage plans
// without link latency, and on a placed plan:
//   - stage 0 sends, computes briefly, sends again and then computes long,
//     while stage 1 sends twice: the long window overlaps four oracle
//     intervals whose seq alternates between the two directions, which sum
//     in seq order, and the brief one two;
//   - at one byte per second, stage 1 receives a message and computes two
//     ops that fill the gap before the next transfer exactly (every edge an
//     exact binary fraction): the first starts on the end of the interval
//     before the gap, the second ends on the start of the one after it;
//   - HelixPipe on four DGX-A800x4 nodes at p=8, two stages per node, whose
//     stage pairs cross both NVLink and InfiniBand, so the link-class sums
//     split.
func TestEngineOverlapEdgesMatchReference(t *testing.T) {
	msg := func(kind sched.OpKind, peer, layer int, bytes int64) sched.Op {
		return sched.Op{Kind: kind, Peer: int32(peer), Bytes: bytes, Tag: sched.Tag{Layer: int32(layer)}}
	}
	compute := func(dur float64) sched.Op { return sched.Op{Kind: sched.KForward, Dur: dur} }
	crafted := func(bytesPerSec float64, progs ...[]sched.Op) *sched.Plan {
		return &sched.Plan{Method: "crafted", Stages: len(progs), Ops: progs,
			Costs: sched.Costs{P2PBytesPerSec: bytesPerSec}}
	}
	// Transfers of one and two thirds of a second: the four overlap terms
	// round, and summed sends first they lose the last bit of the makespan.
	interleaved := crafted(3,
		[]sched.Op{msg(sched.KSend, 1, 0, 1), compute(0.0625), msg(sched.KSend, 1, 1, 2), compute(5),
			msg(sched.KRecv, 1, 2, 0), msg(sched.KRecv, 1, 3, 0)},
		[]sched.Op{msg(sched.KSend, 0, 2, 1), compute(0.03125), msg(sched.KSend, 0, 3, 1),
			msg(sched.KRecv, 0, 0, 0), msg(sched.KRecv, 0, 1, 0)},
	)
	gap := crafted(1,
		[]sched.Op{msg(sched.KSend, 1, 0, 1), compute(3), msg(sched.KSend, 1, 1, 1)},
		[]sched.Op{msg(sched.KRecv, 0, 0, 0), compute(1), compute(1), msg(sched.KRecv, 0, 1, 0), compute(1), compute(1)},
	)
	placedBook := diffBooks(t, 8)[1]
	cfg := sched.Config{Stages: 8, MicroBatches: 16, Layers: 16}
	placed, err := sched.Build(sched.MethodHelix, cfg, placedBook.costs, sched.BuildParams{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		plan  *sched.Plan
		topo  *cluster.Topology
		check func(*Runner, *Result) string
	}{
		{"interleaved overlaps", interleaved, nil, func(r *Runner, res *Result) string {
			for _, sp := range res.Spans {
				if sp.Stage == 0 && sp.Op.Kind == sched.KForward && sp.Op.Dur == 5 {
					if sends, recvs := overlaps(&r.pre.nic, 0, sp.Start, sp.Start+sp.Op.Dur); sends < 2 || recvs < 2 {
						return fmt.Sprintf("the long window overlaps %d send and %d recv intervals", sends, recvs)
					}
					if seqs := []int32{r.pre.nic.send[0][0].seq, r.pre.nic.recv[0][0].seq, r.pre.nic.recv[0][1].seq,
						r.pre.nic.send[0][1].seq}; !slices.IsSorted(seqs) {
						return fmt.Sprintf("seqs send, recv, recv, send = %v do not alternate", seqs)
					}
					return ""
				}
			}
			return "no long compute span on stage 0"
		}},
		{"gap edges", gap, nil, func(r *Runner, res *Result) string {
			recv := r.pre.nic.recv[1]
			var starts, ends int
			for _, sp := range res.Spans {
				if sp.Stage == 1 && sp.Op.Kind == sched.KForward {
					if sp.Start == recv[0].end {
						starts++
					}
					if sp.End == recv[1].start {
						ends++
					}
				}
			}
			if starts == 0 || ends == 0 {
				return fmt.Sprintf("%d windows start on the gap's low edge and %d end on its high edge", starts, ends)
			}
			return ""
		}},
		{"two link classes", placed, placedBook.topo, func(_ *Runner, res *Result) string {
			if len(res.LinkClasses) != 2 {
				return fmt.Sprintf("link classes %+v, want nvlink and ib", res.LinkClasses)
			}
			return ""
		}},
	}
	for _, c := range cases {
		for _, trace := range []bool{false, true} {
			opt := Options{SMPenalty: 0.3, Trace: trace, Topology: c.topo}
			want, err := refRun(c.plan, opt)
			if err != nil {
				t.Fatalf("%s: reference: %v", c.name, err)
			}
			r := newRunner(c.plan, opt)
			got, err := r.Run()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if diff := resultDiff(got, want); diff != "" {
				t.Fatalf("%s trace=%v: %s", c.name, trace, diff)
			}
			if trace {
				if msg := c.check(r, got); msg != "" {
					t.Errorf("%s: %s", c.name, msg)
				}
			}
		}
	}
}

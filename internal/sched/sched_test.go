package sched

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/costmodel"
	"repro/internal/model"
)

func testCfg(p, m, layers int) Config { return Config{Stages: p, MicroBatches: m, Layers: layers} }

func realCosts(t *testing.T) Costs {
	t.Helper()
	w := costmodel.NewWorkload(model.Model7B(), costmodel.H20Cluster(), model.Shape{B: 1, S: 32768})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewCosts(w, model.BatchSpec{}, nil)
}

// TestOpLayout pins the op to one 64-byte cache line and its tag to 12
// bytes. Builders, the validator and both engines stream whole programs of
// ops, so a field that widens or a reorder that opens a padding hole costs
// every plan's bytes.
func TestOpLayout(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 64 {
		t.Errorf("sched.Op is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(Tag{}); got != 12 {
		t.Errorf("sched.Tag is %d bytes, want 12", got)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testCfg(4, 8, 16).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Stages: 0, MicroBatches: 1, Layers: 4},
		{Stages: 2, MicroBatches: 0, Layers: 4},
		{Stages: 2, MicroBatches: 2, Layers: 0},
		{Stages: 3, MicroBatches: 2, Layers: 4}, // indivisible
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
}

// TestGeneratorsProduceValidPlans is the core schedule test: every generator
// under several pipeline shapes must produce a plan that passes the token
// dataflow machine, exact op counting, and stash conservation.
func TestGeneratorsProduceValidPlans(t *testing.T) {
	costs := realCosts(t)
	shapes := []struct{ p, m, layers int }{
		{2, 4, 8},
		{4, 8, 16},
		{8, 16, 32},
		{4, 4, 8},  // m == p
		{2, 8, 2},  // single layer per stage
		{4, 12, 8}, // m not a multiple of 2p
	}
	type gen struct {
		name  string
		build func(Config) (*Plan, error)
	}
	gens := []gen{
		{"GPipe", func(c Config) (*Plan, error) { return GPipe(c, costs) }},
		{"1F1B", func(c Config) (*Plan, error) { return OneFOneB(c, costs) }},
		{"ZB1P", func(c Config) (*Plan, error) { return ZB1P(c, costs) }},
		{"AdaPipe-loose", func(c Config) (*Plan, error) { return AdaPipe(c, costs, 0) }},
		{"AdaPipe-tight", func(c Config) (*Plan, error) {
			full := costs.SegStash[0] + costs.SegStash[1] + costs.SegStash[2]
			budget := int64(c.Stages) * int64(c.Layers/c.Stages) * full / 2
			return AdaPipe(c, costs, budget)
		}},
		{"Interleaved", func(c Config) (*Plan, error) { return Interleaved(c, costs) }},
	}
	for _, g := range gens {
		for _, sh := range shapes {
			cfg := testCfg(sh.p, sh.m, sh.layers)
			if g.name == "Interleaved" && cfg.Layers%(cfg.Stages*2) != 0 {
				continue
			}
			plan, err := g.build(cfg)
			if err != nil {
				t.Errorf("%s %+v: %v", g.name, sh, err)
				continue
			}
			if err := Validate(plan); err != nil {
				t.Errorf("%s %+v: %v", g.name, sh, err)
			}
		}
	}
}

// TestComputeTotalsAgree verifies that schedules performing identical work
// report identical total compute seconds: GPipe == 1F1B == ZB1P (reordering
// changes nothing), while AdaPipe with recomputation is strictly larger.
func TestComputeTotalsAgree(t *testing.T) {
	costs := realCosts(t)
	cfg := testCfg(4, 8, 16)
	gp, err := GPipe(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := OneFOneB(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	zb, err := ZB1P(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	if d := gp.ComputeSeconds() - ob.ComputeSeconds(); d > 1e-9 || d < -1e-9 {
		t.Errorf("GPipe and 1F1B compute totals differ by %g", d)
	}
	if d := zb.ComputeSeconds() - ob.ComputeSeconds(); d > 1e-9 || d < -1e-9 {
		t.Errorf("ZB1P and 1F1B compute totals differ by %g", d)
	}
	full := costs.SegStash[0] + costs.SegStash[1] + costs.SegStash[2]
	tight := int64(cfg.Stages) * int64(cfg.Layers/cfg.Stages) * full / 2
	ap, err := AdaPipe(cfg, costs, tight)
	if err != nil {
		t.Fatal(err)
	}
	if ap.ComputeSeconds() <= ob.ComputeSeconds() {
		t.Error("AdaPipe under memory pressure must pay recomputation time")
	}
}

// Test1F1BSteadyState verifies the canonical 1F1B structure: after warmup,
// the last stage strictly alternates forward and backward micro batches.
func Test1F1BSteadyState(t *testing.T) {
	costs := realCosts(t)
	cfg := testCfg(4, 8, 8)
	plan, err := OneFOneB(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	last := plan.Ops[cfg.Stages-1]
	var steps []string
	for _, op := range last {
		switch {
		case op.Kind == KRecv && !op.Tag.Back:
			steps = append(steps, "F") // one forward step begins per input recv
		case op.Kind == KBackwardB && op.Layer == LayerHead:
			steps = append(steps, "B")
		}
	}
	// Stage p-1 has no warmup: F B F B ... F B.
	for i, s := range steps {
		want := "F"
		if i%2 == 1 {
			want = "B"
		}
		if s != want {
			t.Fatalf("last stage step %d = %s, want %s (steps %v)", i, s, want, steps)
		}
	}
	if len(steps) != 2*cfg.MicroBatches {
		t.Fatalf("last stage has %d F/B steps, want %d", len(steps), 2*cfg.MicroBatches)
	}
}

// TestGPipeIsFILO verifies GPipe's first-in-last-out backward order.
func TestGPipeIsFILO(t *testing.T) {
	costs := realCosts(t)
	cfg := testCfg(2, 4, 4)
	plan, err := GPipe(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	for s, ops := range plan.Ops {
		lastF, firstB := -1, len(ops)
		var fOrder, bOrder []int
		for i, op := range ops {
			if op.Layer < 0 {
				continue
			}
			if op.Kind == KForward {
				if i > lastF {
					lastF = i
				}
				if op.Seg == model.SegPre && op.Layer == plan.Ops[s][1].Layer {
					fOrder = append(fOrder, int(op.MB))
				}
			}
			if op.Kind == KBackwardB {
				if i < firstB {
					firstB = i
				}
				if op.Seg == model.SegPre {
					bOrder = append(bOrder, int(op.MB))
				}
			}
		}
		if lastF > firstB {
			t.Errorf("stage %d: forward op at %d after backward op at %d", s, lastF, firstB)
		}
		for i := 1; i < len(bOrder); i++ {
			if bOrder[i] > bOrder[i-1] {
				t.Errorf("stage %d: backward micro batches not in FILO order: %v", s, bOrder)
				break
			}
		}
		_ = fOrder
	}
}

// TestZB1PDefersW verifies the defining ZB1P property: on the first stage,
// at least one weight-gradient op executes after the last backward-B
// (filling the drain bubble), and backward-B ops never wait for W of the
// same micro batch (B and W are decoupled).
func TestZB1PDefersW(t *testing.T) {
	costs := realCosts(t)
	cfg := testCfg(4, 8, 16)
	plan, err := ZB1P(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	ops := plan.Ops[0]
	lastB, lastW := -1, -1
	for i, op := range ops {
		if op.Kind == KBackwardB && op.Layer >= 0 {
			lastB = i
		}
		if op.Kind == KBackwardW {
			lastW = i
		}
	}
	if lastW < lastB {
		t.Error("ZB1P stage 0 should finish with deferred weight gradients after the last backward-B")
	}
	// Count W ops strictly after the last B: the drain bubble filler.
	deferred := 0
	for i := lastB + 1; i < len(ops); i++ {
		if ops[i].Kind == KBackwardW {
			deferred++
		}
	}
	if deferred == 0 {
		t.Error("ZB1P deferred no weight gradients into the drain phase")
	}
}

// TestZB1PHoldsEmbedGradStash verifies the section 5.4 observation: the last
// stage accumulates fp32 embedding-gradient stashes across micro batches
// because the head backward-W is deferred. The running stash balance at the
// last stage must exceed what 1F1B (immediate W) ever holds.
func TestZB1PHoldsEmbedGradStash(t *testing.T) {
	costs := realCosts(t)
	cfg := testCfg(4, 8, 16)
	peakOf := func(p *Plan, stage int) int64 {
		var bal, peak int64
		for _, op := range p.Ops[stage] {
			bal += op.Alloc - op.Free
			if bal > peak {
				peak = bal
			}
		}
		return peak
	}
	zb, err := ZB1P(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := OneFOneB(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	last := cfg.Stages - 1
	if peakOf(zb, last) <= peakOf(ob, last) {
		t.Errorf("ZB1P last-stage stash peak (%d) should exceed 1F1B (%d)",
			peakOf(zb, last), peakOf(ob, last))
	}
}

// TestAdaPipeAdaptsToBudget verifies the two AdaPipe behaviours: with a
// loose budget it reduces to an even, recompute-free 1F1B; with a tight
// budget it recomputes on the early (memory-pressured) stages.
func TestAdaPipeAdaptsToBudget(t *testing.T) {
	costs := realCosts(t)
	cfg := testCfg(4, 8, 16)
	loose, err := AdaPipe(cfg, costs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ops := range loose.Ops {
		for _, op := range ops {
			if op.Kind == KRecompute {
				t.Fatal("AdaPipe with unlimited memory should not recompute")
			}
		}
	}
	full := costs.SegStash[0] + costs.SegStash[1] + costs.SegStash[2]
	// Budget fits stage 0's 1F1B residency only if half the layers recompute.
	budget := int64(cfg.Stages) * int64(cfg.Layers/cfg.Stages) * full / 2
	tight, err := AdaPipe(cfg, costs, budget)
	if err != nil {
		t.Fatal(err)
	}
	recomputes := 0
	for _, op := range tight.Ops[0] {
		if op.Kind == KRecompute {
			recomputes++
		}
	}
	if recomputes == 0 {
		t.Error("AdaPipe under memory pressure should recompute on stage 0")
	}
	if err := Validate(tight); err != nil {
		t.Fatal(err)
	}
}

// TestAdaPipeInfeasible verifies the error path when no partition fits.
func TestAdaPipeInfeasible(t *testing.T) {
	costs := realCosts(t)
	if _, err := AdaPipe(testCfg(4, 8, 16), costs, 1); err == nil {
		t.Error("1-byte budget must be infeasible")
	}
}

// TestBuildDispatch exercises the registry-driven method dispatcher.
func TestBuildDispatch(t *testing.T) {
	costs := realCosts(t)
	cfg := testCfg(4, 8, 16)
	for _, m := range []Method{MethodGPipe, Method1F1B, MethodZB1P, MethodAdaPipe, MethodInterleaved} {
		plan, err := Build(m, cfg, costs, BuildParams{})
		if err != nil {
			t.Errorf("Build(%s): %v", m, err)
			continue
		}
		if plan.Method != m {
			t.Errorf("Build(%s) produced method %s", m, plan.Method)
		}
	}
	// Helix methods are registered by internal/core, which this package
	// does not (and must not) import: unlinked methods are unknown here.
	if _, err := Build(MethodHelix, cfg, costs, BuildParams{}); err == nil {
		t.Error("helix methods must not be buildable without internal/core linked")
	}
	// Lookup is case-insensitive.
	if _, ok := Lookup("zb1p"); !ok {
		t.Error("Lookup must resolve method names case-insensitively")
	}
	if _, ok := Lookup("no-such-method"); ok {
		t.Error("Lookup must reject unknown names")
	}
}

// TestUnitCosts checks the didactic 1:3:2 cost book used by the figure
// experiments.
func TestUnitCosts(t *testing.T) {
	c := UnitCosts(0)
	if c.Seg[model.SegPre][model.Forward] != 1 ||
		c.Seg[model.SegAttn][model.Forward] != 3 ||
		c.Seg[model.SegPost][model.Forward] != 2 {
		t.Error("UnitCosts must encode the paper's 1:3:2 ratio")
	}
	for _, seg := range model.Segments {
		f := c.Seg[seg][model.Forward]
		bw := c.Seg[seg][model.BackwardB] + c.Seg[seg][model.BackwardW]
		if diff := bw - f; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("segment %v: backward time %g != forward %g (figures draw them equal)", seg, bw, f)
		}
	}
	if c.SegStashBFree[model.SegAttn] != c.SegStash[model.SegAttn] {
		t.Error("attention stash must be fully released by backward-B")
	}
}

// TestValidatorCatchesCorruption corrupts a valid plan in several ways and
// expects the validator to object to each.
func TestValidatorCatchesCorruption(t *testing.T) {
	costs := realCosts(t)
	cfg := testCfg(2, 4, 4)
	fresh := func() *Plan {
		p, err := OneFOneB(cfg, costs)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := fresh()
	if err := Validate(base); err != nil {
		t.Fatal(err)
	}

	// Drop a compute op: count violation.
	p := fresh()
	for i, op := range p.Ops[0] {
		if op.Kind == KBackwardB && op.Layer >= 0 {
			p.Ops[0] = append(p.Ops[0][:i], p.Ops[0][i+1:]...)
			break
		}
	}
	if err := Validate(p); err == nil {
		t.Error("validator missed a dropped backward op")
	}

	// Swap a recv before... rather: remove a send: deadlock.
	p = fresh()
	for i, op := range p.Ops[0] {
		if op.Kind == KSend {
			p.Ops[0] = append(p.Ops[0][:i], p.Ops[0][i+1:]...)
			break
		}
	}
	if err := Validate(p); err == nil {
		t.Error("validator missed a dropped send")
	}

	// Reorder forward before its input recv on stage 1: missing token.
	p = fresh()
	ops := p.Ops[1]
	if ops[0].Kind == KRecv && ops[1].Kind == KForward {
		ops[0], ops[1] = ops[1], ops[0]
	}
	if err := Validate(p); err == nil {
		t.Error("validator missed compute before its input recv")
	}

	// Leak stash bytes.
	p = fresh()
	for i := range p.Ops[0] {
		if p.Ops[0][i].Kind == KForward && p.Ops[0][i].Alloc > 0 {
			p.Ops[0][i].Alloc += 1024
			break
		}
	}
	if err := Validate(p); err == nil {
		t.Error("validator missed a stash leak")
	}

	// Ops outside the plan's geometry: rejected with an error naming the op,
	// never an index panic in the dense tables.
	first := func(p *Plan, kind OpKind) *Op {
		for i := range p.Ops[0] {
			if op := &p.Ops[0][i]; op.Kind == kind && (kind != KForward || op.Layer >= 0) {
				return op
			}
		}
		t.Fatalf("stage 0 has no %v op", kind)
		return nil
	}
	outside := []struct {
		name    string
		kind    OpKind
		corrupt func(*Op)
	}{
		{"compute micro batch", KForward, func(op *Op) { op.MB = int32(cfg.MicroBatches) }},
		{"compute layer past the last", KForward, func(op *Op) { op.Layer = int32(cfg.Layers) }},
		{"compute layer below the head", KForward, func(op *Op) { op.Layer = LayerHead - 1 }},
		{"compute segment", KForward, func(op *Op) { op.Seg = model.Segment(len(model.Segments)) }},
		{"negative compute segment", KForward, func(op *Op) { op.Seg = -1 }},
		{"send tag micro batch", KSend, func(op *Op) { op.Tag.MB = int32(cfg.MicroBatches) }},
		{"recv tag micro batch", KRecv, func(op *Op) { op.Tag.MB = -1 }},
		{"send tag layer", KSend, func(op *Op) { op.Tag.Layer = int32(cfg.Layers + 1) }},
		{"recv tag layer", KRecv, func(op *Op) { op.Tag.Layer = -1 }},
		{"send tag boundary", KSend, func(op *Op) { op.Tag.Bound = BoundAttnPost + 1 }},
		{"recv tag boundary", KRecv, func(op *Op) { op.Tag.Bound = BoundAct - 1 }},
		{"op kind past recv", KForward, func(op *Op) { op.Kind = KRecv + 1 }},
		{"negative op kind", KForward, func(op *Op) { op.Kind = KForward - 1 }},
	}
	for _, c := range outside {
		p := fresh()
		op := first(p, c.kind)
		c.corrupt(op)
		err := Validate(p)
		if err == nil {
			t.Errorf("validator missed a %s outside the plan", c.name)
			continue
		}
		if !strings.Contains(err.Error(), op.String()) {
			t.Errorf("%s: error %q does not name the op %v", c.name, err, *op)
		}
	}
	// A message op carrying stash, balanced on the stage's compute ops so
	// the running balance stays sound: the engine applies Alloc and Free on
	// compute only, so the memory walk and the simulated peak would differ.
	for _, c := range []struct {
		name        string
		kind        OpKind
		alloc, free int64
	}{
		{"send with Alloc", KSend, 1 << 40, 0},
		{"recv with Free", KRecv, 0, 1 << 40},
	} {
		p := fresh()
		op := first(p, c.kind)
		op.Alloc, op.Free = c.alloc, c.free
		ops := p.Ops[0]
		ops[0].Alloc += c.free
		ops[len(ops)-1].Free += c.alloc
		err := Validate(p)
		if err == nil {
			t.Errorf("validator accepted a %s", c.name)
			continue
		}
		if !strings.Contains(err.Error(), op.String()) {
			t.Errorf("%s: error %q does not name the op %v", c.name, err, *op)
		}
	}
	// An op of unknown kind appended to a valid plan passes every count and
	// token check, and the engine used to simulate it as compute.
	p = fresh()
	p.Ops[0] = append(p.Ops[0], Op{Kind: OpKind(9), Dur: -1e9})
	if err := Validate(p); err == nil || !strings.Contains(err.Error(), "unknown op kind") {
		t.Errorf("validator accepted an op of unknown kind: %v", err)
	}
	// A geometry the ops cannot fill is rejected before any table is sized.
	for _, g := range []struct{ mbs, layers int }{{-1, 4}, {4, -1}, {1 << 40, 1 << 40}} {
		if err := Validate(&Plan{MicroBatches: g.mbs, Layers: g.layers}); err == nil {
			t.Errorf("validator accepted an empty plan of %d micro batches and %d layers", g.mbs, g.layers)
		}
	}
}

// TestValidatorRejectsRepeatedMessage sends the same (tag, from, to) twice,
// with a matching second recv: the token machine alone accepts it, and the
// engine used to overwrite the first in-flight copy and report a deadlock on
// a send "never initiated". The validator must name the repeated send.
func TestValidatorRejectsRepeatedMessage(t *testing.T) {
	p, err := GPipe(testCfg(2, 3, 2), UnitCosts(0.1))
	if err != nil {
		t.Fatal(err)
	}
	second := func(ops []Op, kind OpKind) int {
		n := 0
		for i, op := range ops {
			if op.Kind == kind && !op.Tag.Back {
				if n++; n == 2 {
					return i
				}
			}
		}
		t.Fatalf("no second forward %v", kind)
		return -1
	}
	dup := func(ops []Op, i int) []Op { return append(append([]Op(nil), ops[:i+1]...), ops[i:]...) }
	send, recv := second(p.Ops[0], KSend), second(p.Ops[1], KRecv)
	p.Ops[0], p.Ops[1] = dup(p.Ops[0], send), dup(p.Ops[1], recv)
	err = Validate(p)
	if want := "sched: stage 0 sends act/l1/mb1/f to stage 1 twice"; err == nil || err.Error() != want {
		t.Fatalf("Validate = %v, want %q", err, want)
	}
}

// TestRecvSlots pins the message match: a validated plan's recvs each take
// the slot of the one send with their (tag, from, to), and an unvalidated
// plan gets the same match from the (tag, from, to) fallback. The slots
// count from each stage's message ordinals (MessageBases), which the
// validator records and an unvalidated plan is walked for.
func TestRecvSlots(t *testing.T) {
	p, err := OneFOneB(testCfg(2, 4, 4), UnitCosts(0.1))
	if err != nil {
		t.Fatal(err)
	}
	fallback := RecvSlots(p)
	walkedSends, walkedRecvs := MessageBases(p)
	if err := Validate(p); err != nil {
		t.Fatal(err)
	}
	slots := RecvSlots(p)
	if fmt.Sprint(slots) != fmt.Sprint(fallback) {
		t.Fatalf("validated match %v differs from the fallback's %v", slots, fallback)
	}
	sendBase, recvBase := MessageBases(p)
	if !slices.Equal(sendBase, walkedSends) || !slices.Equal(recvBase, walkedRecvs) {
		t.Fatalf("validated ordinals %v %v differ from the walk's %v %v", sendBase, recvBase, walkedSends, walkedRecvs)
	}
	for s, ops := range p.Ops {
		var n [2]int32
		for _, op := range ops {
			switch op.Kind {
			case KSend:
				n[0]++
			case KRecv:
				n[1]++
			}
		}
		if sendBase[s+1]-sendBase[s] != n[0] || recvBase[s+1]-recvBase[s] != n[1] {
			t.Fatalf("stage %d runs %d sends and %d recvs, ordinals %v %v", s, n[0], n[1], sendBase, recvBase)
		}
	}
	var sends []Op
	var sendStage []int
	for s, ops := range p.Ops {
		for _, op := range ops {
			if op.Kind == KSend {
				sends, sendStage = append(sends, op), append(sendStage, s)
			}
		}
	}
	r := 0
	for s, ops := range p.Ops {
		for _, op := range ops {
			if op.Kind != KRecv {
				continue
			}
			k := slots[r]
			if k < 0 || sends[k].Tag != op.Tag || sendStage[k] != int(op.Peer) || int(sends[k].Peer) != s {
				t.Fatalf("recv %d (%v on stage %d) matched slot %d", r, op, s, k)
			}
			r++
		}
	}
	if r != len(slots) || r != len(sends) {
		t.Fatalf("%d recvs, %d slots, %d sends", r, len(slots), len(sends))
	}
}

// TestRecvSlotsSharedTag sends one tag from stage 0 to two peers, which no
// builder does: the validator's table then chains two sends under one tag,
// and the recv on stage 1 walks past the later send to stage 2 to find its
// own. Every recv must take its own send's slot, the fallback's match.
func TestRecvSlotsSharedTag(t *testing.T) {
	act := Tag{Bound: BoundAct}
	grad := Tag{Bound: BoundAct, Back: true}
	f := func(layer int32, seg model.Segment) Op { return Op{Kind: KForward, Layer: layer, Seg: seg} }
	b := func(layer int32, seg model.Segment) Op { return Op{Kind: KBackwardB, Layer: layer, Seg: seg} }
	w := func(layer int32, seg model.Segment) Op { return Op{Kind: KBackwardW, Layer: layer, Seg: seg} }
	p := &Plan{Method: "crafted", Stages: 3, MicroBatches: 1, Layers: 1, Ops: [][]Op{
		{ // embedding; A(0) to stages 1 and 2 under one tag; its gradient back
			f(LayerEmbed, model.SegPre),
			{Kind: KSend, Peer: 1, Tag: act, Bytes: 1},
			{Kind: KSend, Peer: 2, Tag: act, Bytes: 1},
			{Kind: KRecv, Peer: 1, Tag: grad},
			w(LayerEmbed, model.SegPre),
		},
		{ // the layer and the head, forward and backward
			{Kind: KRecv, Peer: 0, Tag: act},
			f(0, model.SegPre), f(0, model.SegAttn), f(0, model.SegPost),
			b(LayerHead, model.SegPre), w(LayerHead, model.SegPre),
			b(0, model.SegPost), w(0, model.SegPost), b(0, model.SegAttn), b(0, model.SegPre), w(0, model.SegPre),
			{Kind: KSend, Peer: 0, Tag: grad, Bytes: 1},
		},
		{ // a second copy of A(0), received and left unused
			{Kind: KRecv, Peer: 0, Tag: act},
		},
	}}
	fallback := RecvSlots(p)
	if err := Validate(p); err != nil {
		t.Fatal(err)
	}
	// Sends are numbered stage-major: 0->1 is slot 0, 0->2 slot 1 and the
	// gradient 1->0 slot 2; recvs run stage-major too.
	want := "[2 0 1]"
	if got := fmt.Sprint(RecvSlots(p)); got != want || fmt.Sprint(fallback) != want {
		t.Fatalf("validated match %s, fallback %v, want %s", got, fallback, want)
	}
}

// TestPlanAccessors covers the small accessor helpers.
func TestPlanAccessors(t *testing.T) {
	costs := realCosts(t)
	plan, err := OneFOneB(testCfg(2, 2, 4), costs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumOps() <= 0 {
		t.Error("NumOps must be positive")
	}
	sum := plan.StageComputeSeconds(0) + plan.StageComputeSeconds(1)
	if d := sum - plan.ComputeSeconds(); d > 1e-12 || d < -1e-12 {
		t.Error("stage compute seconds must sum to plan total")
	}
	if BoundAct.String() == "" || KForward.String() == "" || KSend.String() == "" {
		t.Error("stringers must not be empty")
	}
	if len(Methods()) < 6 {
		t.Error("Methods() should list all implemented schedules")
	}
}

// TestInterleavedNeedsTwoStages pins the one-stage rejection: every chunk
// boundary of a one-stage interleaved plan would be a send to the stage
// itself, so the builder and its traffic function refuse it up front, while
// the other layer-wise baselines, which send nothing at p=1, still build.
func TestInterleavedNeedsTwoStages(t *testing.T) {
	cfg := testCfg(1, 4, 8)
	costs := realCosts(t)
	const want = "sched: interleaved 1F1B needs at least 2 stages, got 1"
	if _, err := Build(MethodInterleaved, cfg, costs, BuildParams{}); err == nil || err.Error() != want {
		t.Errorf("Build(Interleaved, p=1) = %v, want %q", err, want)
	}
	if _, err := Traffic(MethodInterleaved, cfg, costs, BuildParams{}); err == nil || err.Error() != want {
		t.Errorf("Traffic(Interleaved, p=1) = %v, want %q", err, want)
	}
	for _, m := range []Method{MethodGPipe, Method1F1B, MethodZB1P, MethodZB2P, MethodAdaPipe} {
		plan, err := Build(m, cfg, costs, BuildParams{})
		if err != nil {
			t.Errorf("Build(%s, p=1): %v", m, err)
			continue
		}
		if err := Validate(plan); err != nil {
			t.Errorf("%s at p=1: %v", m, err)
		}
		traffic, err := Traffic(m, cfg, costs, BuildParams{})
		if err != nil || len(traffic) != 1 || traffic[0][0] != 0 {
			t.Errorf("Traffic(%s, p=1) = %v, %v; want [[0]]", m, traffic, err)
		}
	}
}

// TestStashPeaks pins the one stash-peak rule: a stage's peak is the largest
// running sum of its ops' Alloc and Free in program order, an op's Alloc
// counting before its Free. Validate memoizes the walk, and a plan not yet
// validated is walked on demand to the same peaks.
func TestStashPeaks(t *testing.T) {
	crafted := &Plan{Stages: 2, Ops: [][]Op{
		{{Kind: KForward, Alloc: 5}, {Kind: KForward, Alloc: 3, Free: 5}, {Kind: KBackwardB, Free: 3}},
		{{Kind: KForward, Alloc: 2, Free: 2}},
	}}
	if got := StashPeaks(crafted); !slices.Equal(got, []int64{8, 2}) {
		t.Errorf("crafted plan peaks %v, want [8 2]", got)
	}
	costs := realCosts(t)
	for _, method := range Methods() {
		plan, err := Build(method, testCfg(4, 8, 8), costs, BuildParams{})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		walked := StashPeaks(plan)
		if err := Validate(plan); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if memo := StashPeaks(plan); !slices.Equal(memo, walked) || len(memo) != plan.Stages {
			t.Errorf("%s: validated peaks %v, walked %v", method, memo, walked)
		}
		if slices.Max(walked) <= 0 {
			t.Errorf("%s: no stage stashes anything: %v", method, walked)
		}
	}
}

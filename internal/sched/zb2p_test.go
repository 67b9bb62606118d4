package sched

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// TestZB2PValidAndDeeper verifies the ZB2P extension: plans validate, the
// doubled in-flight window lets stages run further ahead than ZB1P, and the
// peak stash grows accordingly (the paper's footnote: ZB2P "costs more
// memory").
func TestZB2PValidAndDeeper(t *testing.T) {
	costs := realCosts(t)
	cfg := testCfg(4, 16, 16)
	zb1, err := ZB1P(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	zb2, err := ZB2P(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(zb2); err != nil {
		t.Fatal(err)
	}
	if zb2.Method != MethodZB2P {
		t.Errorf("method = %s", zb2.Method)
	}
	peak := func(p *Plan, stage int) int64 {
		var bal, pk int64
		for _, op := range p.Ops[stage] {
			bal += op.Alloc - op.Free
			if bal > pk {
				pk = bal
			}
		}
		return pk
	}
	// Stage 0 may now hold up to 2p in-flight forwards.
	if peak(zb2, 0) <= peak(zb1, 0) {
		t.Errorf("ZB2P stage-0 stash (%d) should exceed ZB1P (%d)", peak(zb2, 0), peak(zb1, 0))
	}
	// Identical total work.
	if d := zb2.ComputeSeconds() - zb1.ComputeSeconds(); d > 1e-9 || d < -1e-9 {
		t.Errorf("ZB2P compute total differs from ZB1P by %g", d)
	}
}

// TestGeneratorPropertyRandomShapes is a property test over random pipeline
// shapes: every layer-wise generator must produce a validating plan for any
// (p, m, L) with p | L and m >= 1 (2p | L for interleaved 1F1B), and each
// stage's program must hold exactly m·Σ(4 + 8·n + 3·r) ops over the chunks it
// runs, n being a chunk's layer count and r its recomputed layers. Per micro
// batch and chunk that is the input recv or embedding plus the output send
// or head backward and weight gradient, the embedding's weight gradient or
// the gradient send, three forward, three backward-B and two backward-W ops
// per layer, and three recompute ops per recomputed layer.
func TestGeneratorPropertyRandomShapes(t *testing.T) {
	costs := UnitCosts(0)
	full := costs.SegStash[model.SegPre] + costs.SegStash[model.SegAttn] + costs.SegStash[model.SegPost]
	check := func(pRaw, mRaw, lRaw uint8) bool {
		p := int(pRaw)%7 + 2         // 2..8
		m := int(mRaw)%12 + 1        // 1..12
		layersPer := int(lRaw)%8 + 1 // 1..8
		cfg := Config{Stages: p, MicroBatches: m, Layers: p * layersPer}
		builds := map[string]func() (*Plan, error){
			"GPipe":         func() (*Plan, error) { return GPipe(cfg, costs) },
			"1F1B":          func() (*Plan, error) { return OneFOneB(cfg, costs) },
			"ZB1P":          func() (*Plan, error) { return ZB1P(cfg, costs) },
			"ZB2P":          func() (*Plan, error) { return ZB2P(cfg, costs) },
			"AdaPipe":       func() (*Plan, error) { return AdaPipe(cfg, costs, 0) },
			"AdaPipe-tight": func() (*Plan, error) { return AdaPipe(cfg, costs, int64(cfg.Layers)*full/2) },
		}
		if layersPer%2 == 0 {
			builds["Interleaved"] = func() (*Plan, error) { return Interleaved(cfg, costs) }
		}
		ok := true
		for name, build := range builds {
			plan, err := build()
			if err == nil {
				err = Validate(plan)
			}
			if err == nil {
				err = checkProgramLengths(plan)
			}
			if err != nil {
				t.Errorf("%s p=%d m=%d L=%d: %v", name, p, m, cfg.Layers, err)
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// checkProgramLengths checks each stage program's length against
// m·Σ(4 + 8·n + 3·r) over the stage's chunks: interleaved 1F1B runs two
// chunks per stage, every other layer-wise method one. A stage's layers and
// recomputed layers are the distinct layers of its forward and recompute
// ops. Each program must also be exactly full, its capacity its length: the
// builders allocate it once from the same closed form, so spare capacity
// means the formula over-allocates and a regrown slice means it fell short.
func checkProgramLengths(plan *Plan) error {
	chunks := 1
	if plan.Method == MethodInterleaved {
		chunks = 2
	}
	for s, ops := range plan.Ops {
		layers, recomputed := map[int]bool{}, map[int]bool{}
		for _, op := range ops {
			switch {
			case op.Kind == KForward && op.Layer >= 0:
				layers[int(op.Layer)] = true
			case op.Kind == KRecompute:
				recomputed[int(op.Layer)] = true
			}
		}
		want := plan.MicroBatches * (4*chunks + 8*len(layers) + 3*len(recomputed))
		if len(ops) != want {
			return fmt.Errorf("stage %d holds %d ops, want %d (%d chunks, %d layers, %d recomputed)",
				s, len(ops), want, chunks, len(layers), len(recomputed))
		}
		if cap(ops) != len(ops) {
			return fmt.Errorf("stage %d program has len %d, cap %d", s, len(ops), cap(ops))
		}
	}
	return nil
}

// TestStashSplitsSumToFull is a property of the cost book: per segment, the
// backward-B and backward-W stash releases always sum to the full stash.
func TestStashSplitsSumToFull(t *testing.T) {
	costs := realCosts(t)
	for _, seg := range model.Segments {
		if costs.SegStashBFree[seg]+costs.SegStashWFree[seg] != costs.SegStash[seg] {
			t.Errorf("segment %v: BFree %d + WFree %d != full %d", seg,
				costs.SegStashBFree[seg], costs.SegStashWFree[seg], costs.SegStash[seg])
		}
	}
	if costs.SegStashWFree[model.SegAttn] != 0 {
		t.Error("attention must release everything at backward-B")
	}
}

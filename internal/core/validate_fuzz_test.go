package core

import (
	"testing"

	"repro/internal/model"
	"repro/internal/sched"
)

// editBytes is the length of one fuzzed plan edit: its kind, stage, a
// two-byte position and two argument bytes.
const editBytes = 6

// maxEdits bounds the edits one input applies, so a plan keeps far more ops
// than the validator's too-few-ops floor, a rule refValidate never had.
const maxEdits = 12

// applyEdit applies one fuzzed edit to progs, a plan of m micro batches and
// layers layers: drop, duplicate or swap an op with its successor, move it
// to another stage, retag it (a message op's tag, a compute op's micro
// batch, layer and segment, all inside the plan's ranges) or re-peer a
// message op. Every field stays in the ranges both validators share, so
// they must agree on the result.
func applyEdit(progs [][]sched.Op, m, layers int, e []byte) {
	p := len(progs)
	s := int(e[1]) % p
	ops := progs[s]
	if len(ops) == 0 {
		return
	}
	i := (int(e[2])<<8 | int(e[3])) % len(ops)
	a, b := int(e[4]), int(e[5])
	switch e[0] % 6 {
	case 0:
		progs[s] = append(ops[:i:i], ops[i+1:]...)
	case 1:
		progs[s] = append(append(ops[:i+1:i+1], ops[i]), ops[i+1:]...)
	case 2:
		if i+1 < len(ops) {
			ops[i], ops[i+1] = ops[i+1], ops[i]
		}
	case 3:
		d := a % p
		op := ops[i]
		progs[s] = append(ops[:i:i], ops[i+1:]...)
		j := b % (len(progs[d]) + 1)
		progs[d] = append(append(progs[d][:j:j], op), progs[d][j:]...)
	case 4:
		op := &ops[i]
		if op.Kind == sched.KSend || op.Kind == sched.KRecv {
			op.Tag = sched.Tag{MB: int32(a % m), Layer: int32(b % (layers + 1)),
				Bound: sched.Boundary(a >> 5 % 3), Back: a&16 != 0}
			return
		}
		op.MB, op.Layer, op.Seg = int32(a%m), int32(b%(layers+2))+sched.LayerHead, model.Segment(a>>5%3)
	case 5:
		if op := &ops[i]; op.Kind == sched.KSend || op.Kind == sched.KRecv {
			op.Peer = int32(a % p)
		}
	}
}

// FuzzValidate builds a plan from a fuzzed method, pipeline size, micro
// batch count and cost book, applies a fuzzed list of edits, and requires
// sched.Validate and the map-based refValidate (validate_ref_test.go) to
// give the same verdict without a panic. Several edits make plans with
// several faults, where the one walk's replay must still pick the fault the
// round-robin token machine meets first.
func FuzzValidate(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), []byte{})
	f.Add(uint8(1), uint8(1), uint8(1), uint8(2), []byte{0, 0, 0, 3, 0, 0, 2, 1, 0, 7, 0, 0})
	f.Add(uint8(6), uint8(2), uint8(0), uint8(1), []byte{3, 0, 0, 9, 1, 4, 4, 1, 0, 2, 200, 3, 5, 1, 0, 5, 0, 0})
	f.Add(uint8(7), uint8(0), uint8(1), uint8(3), []byte{1, 1, 0, 40, 0, 0, 2, 0, 0, 11, 0, 0, 0, 1, 0, 17, 0, 0})
	builds := diffBuilds()
	f.Fuzz(func(t *testing.T, method, stages, loops, book uint8, edits []byte) {
		b := builds[int(method)%len(builds)]
		p := []int{2, 3, 4}[stages%3]
		m := b.fold * p * (1 + int(loops)%2)
		books := diffBooks(t, p, m)
		bk := books[int(book)%len(books)]
		cfg := sched.Config{Stages: p, MicroBatches: m, Layers: 2 * p, Batch: bk.batch}
		plan, err := sched.Build(b.method, cfg, bk.costs, b.params)
		if err != nil {
			return
		}
		progs := make([][]sched.Op, p)
		for s := range progs {
			progs[s] = append([]sched.Op(nil), plan.Ops[s]...)
		}
		for n := 0; n < maxEdits && len(edits) >= editBytes; n++ {
			applyEdit(progs, m, cfg.Layers, edits[:editBytes])
			edits = edits[editBytes:]
		}
		bad := withOps(plan, 0, progs[0])
		bad.Ops = progs
		if got, want := sched.Validate(bad), refValidate(bad); !sameVerdict(got, want) {
			t.Fatalf("%s %+v p=%d m=%d %s: Validate = %v, reference = %v", b.method, b.params, p, m, bk.name, got, want)
		}
	})
}

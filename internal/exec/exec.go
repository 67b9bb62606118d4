// Package exec runs pipeline schedules numerically: one goroutine per
// pipeline stage, channels as the interconnect, real tensors flowing over
// the same message tags the simulator times. It validates the paper's
// section 4.1 claim — HelixPipe preserves the per-micro-batch computation
// order, so its gradients equal those of 1F1B and of a single device.
//
// Workers interpret a sched.Plan with the token-value semantics that
// sched.Validate specifies abstractly: every compute op reads named value
// tokens from the stage-local store and writes its outputs back; sends and
// recvs move token values between stages.
//
// Gradient accumulation is bufferered per (parameter, micro batch) and
// reduced in canonical micro-batch order at the end, so every schedule —
// whatever order it visits micro batches in — produces bit-identical
// gradients to the sequential reference (nn.ReferenceStep).
package exec

import (
	"fmt"
	"sync"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// Value is a token payload: one or two tensors. HelixPipe's boundaries
// carry two activations (residual plus attention input/output, the 2bsh of
// section 4.2); layer-wise boundaries carry one.
type Value struct {
	X *tensor.Tensor
	Y *tensor.Tensor
}

// Result is the outcome of one numerically executed training iteration.
type Result struct {
	// Loss is the mean micro-batch loss.
	Loss float64
	// Grads holds every parameter gradient, merged across stages in
	// canonical order.
	Grads *nn.Grads
}

// Run executes one training iteration of plan on the model with the given
// micro batches (len must equal plan.MicroBatches).
func Run(plan *sched.Plan, m *nn.Model, batches []nn.MicroBatch) (*Result, error) {
	if err := sched.Validate(plan); err != nil {
		return nil, fmt.Errorf("exec: invalid plan: %w", err)
	}
	if len(batches) != plan.MicroBatches {
		return nil, fmt.Errorf("exec: %d batches for %d micro batches", len(batches), plan.MicroBatches)
	}
	if plan.Layers != m.Cfg.Layers {
		return nil, fmt.Errorf("exec: plan has %d layers, model %d", plan.Layers, m.Cfg.Layers)
	}
	// A variable-length plan names each micro batch's shape; the supplied
	// data must match it, or the schedule's costs describe different tensors
	// than the ones that flow. (sched.Validate already guarantees the spec's
	// length equals MicroBatches and hence len(batches).)
	for i, sh := range plan.Batch.Shapes {
		b := len(batches[i].Ids)
		s := 0
		if b > 0 {
			s = len(batches[i].Ids[0])
		}
		if b != sh.B || s != sh.S {
			return nil, fmt.Errorf("exec: micro batch %d is [%d x %d] but the plan expects [%d x %d]",
				i, b, s, sh.B, sh.S)
		}
	}

	// Channels per (tag, from, to), capacity 1: tags are unique within an
	// iteration, so sends never block and valid plans cannot deadlock.
	type chKey struct {
		tag      sched.Tag
		from, to int
	}
	chans := map[chKey]chan Value{}
	for s, ops := range plan.Ops {
		for _, op := range ops {
			if op.Kind == sched.KSend {
				chans[chKey{op.Tag, s, int(op.Peer)}] = make(chan Value, 1)
			}
		}
	}

	// The recompute set: segments whose forward stash is dropped and
	// regenerated by KRecompute ops (helix: pre/post only — recomputation
	// without attention; AdaPipe: all three segments of selected layers).
	type segKey struct {
		layer int
		seg   int
	}
	dropped := map[segKey]bool{}
	for _, ops := range plan.Ops {
		for _, op := range ops {
			if op.Kind == sched.KRecompute {
				dropped[segKey{int(op.Layer), int(op.Seg)}] = true
			}
		}
	}

	lossByMB := make([]float64, plan.MicroBatches)
	gradsByStage := make([][]*nn.Grads, plan.Stages)
	errs := make([]error, plan.Stages)
	// done is closed when any worker fails so that peers blocked in recvs
	// unwind instead of deadlocking the iteration.
	done := make(chan struct{})
	var cancel sync.Once
	var wg sync.WaitGroup
	for s := 0; s < plan.Stages; s++ {
		gradsByStage[s] = make([]*nn.Grads, plan.MicroBatches)
		wg.Add(1)
		go func(stage int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if errs[stage] == nil {
						errs[stage] = fmt.Errorf("exec: stage %d panicked: %v", stage, r)
					}
					cancel.Do(func() { close(done) })
				}
			}()
			w := &worker{
				plan: plan, model: m, batches: batches, stage: stage,
				store:   map[token]Value{},
				preCtx:  map[[2]int]*nn.PreCtx{},
				attnCtx: map[[2]int]*nn.AttnCtx{},
				postCtx: map[[2]int]*nn.PostCtx{},
				preW:    map[[2]int]*nn.PreWCtx{},
				postW:   map[[2]int]*nn.PostWCtx{},
				headW:   map[int]*nn.HeadWCtx{},
				grads:   gradsByStage[stage],
				loss:    lossByMB,
				dropped: func(layer int, seg int) bool { return dropped[segKey{layer, seg}] },
				send: func(tag sched.Tag, to int, v Value) {
					chans[chKey{tag, stage, to}] <- v
				},
				recv: func(tag sched.Tag, from int) Value {
					select {
					case v := <-chans[chKey{tag, from, stage}]:
						return v
					case <-done:
						errs[stage] = fmt.Errorf("exec: stage %d canceled waiting for %v", stage, tag)
						panic("canceled")
					}
				},
			}
			errs[stage] = w.run()
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	total := nn.NewGrads(m)
	for mb := 0; mb < plan.MicroBatches; mb++ {
		for s := 0; s < plan.Stages; s++ {
			if g := gradsByStage[s][mb]; g != nil {
				total.Add(g)
			}
		}
	}
	var loss float64
	for _, l := range lossByMB {
		loss += l
	}
	return &Result{Loss: loss / float64(plan.MicroBatches), Grads: total}, nil
}

// token mirrors the abstract tokens of sched.Validate with real payloads.
type token struct {
	kind  int // 0=A 1=Q 2=O 3=GA 4=GO 5=GQ
	mb    int
	layer int
}

const (
	tokA = iota
	tokQ
	tokO
	tokGA
	tokGO
	tokGQ
)

func tokenOfTag(t sched.Tag) token {
	var kind int
	switch {
	case t.Bound == sched.BoundAct && !t.Back:
		kind = tokA
	case t.Bound == sched.BoundPreAttn && !t.Back:
		kind = tokQ
	case t.Bound == sched.BoundAttnPost && !t.Back:
		kind = tokO
	case t.Bound == sched.BoundAct:
		kind = tokGA
	case t.Bound == sched.BoundPreAttn:
		kind = tokGQ
	default:
		kind = tokGO
	}
	return token{kind: kind, mb: int(t.MB), layer: int(t.Layer)}
}

type worker struct {
	plan    *sched.Plan
	model   *nn.Model
	batches []nn.MicroBatch
	stage   int

	store   map[token]Value
	preCtx  map[[2]int]*nn.PreCtx
	attnCtx map[[2]int]*nn.AttnCtx
	postCtx map[[2]int]*nn.PostCtx
	preW    map[[2]int]*nn.PreWCtx
	postW   map[[2]int]*nn.PostWCtx
	headW   map[int]*nn.HeadWCtx

	grads   []*nn.Grads
	loss    []float64
	dropped func(layer, seg int) bool
	send    func(tag sched.Tag, to int, v Value)
	recv    func(tag sched.Tag, from int) Value
}

func (w *worker) gradsFor(mb int) *nn.Grads {
	if w.grads[mb] == nil {
		w.grads[mb] = nn.NewGrads(w.model)
	}
	return w.grads[mb]
}

func (w *worker) get(tok token) Value {
	v, ok := w.store[tok]
	if !ok {
		panic(fmt.Sprintf("stage %d: missing token %+v", w.stage, tok))
	}
	return v
}

func (w *worker) run() error {
	for _, op := range w.plan.Ops[w.stage] {
		switch op.Kind {
		case sched.KSend:
			w.send(op.Tag, int(op.Peer), w.get(tokenOfTag(op.Tag)))
		case sched.KRecv:
			w.store[tokenOfTag(op.Tag)] = w.recv(op.Tag, int(op.Peer))
		case sched.KForward:
			w.forward(op)
		case sched.KRecompute:
			w.recompute(op)
		case sched.KBackwardB:
			w.backwardB(op)
		case sched.KBackwardW:
			w.backwardW(op)
		}
	}
	return nil
}

func (w *worker) forward(op sched.Op) {
	mb, layer := int(op.MB), int(op.Layer)
	switch layer {
	case sched.LayerEmbed:
		x := nn.EmbedForward(w.model.Embed, w.batches[mb].Ids)
		w.store[token{tokA, mb, 0}] = Value{X: x}
		return
	case sched.LayerHead:
		return // the head runs fused in backward (section 4.6)
	}
	key := [2]int{mb, layer}
	lp := w.model.Layers[layer]
	switch op.Seg {
	case model.SegPre:
		in := w.get(token{tokA, mb, layer})
		qkv, ctx := nn.PreForward(lp, in.X)
		if !w.dropped(layer, int(op.Seg)) {
			w.preCtx[key] = ctx
		}
		w.store[token{tokQ, mb, layer}] = Value{X: in.X, Y: qkv}
	case model.SegAttn:
		in := w.get(token{tokQ, mb, layer})
		out, ctx := nn.AttnForward(w.model.Cfg, in.Y)
		if !w.dropped(layer, int(op.Seg)) {
			w.attnCtx[key] = ctx
		}
		w.store[token{tokO, mb, layer}] = Value{X: in.X, Y: out}
	default: // post
		in := w.get(token{tokO, mb, layer})
		y, ctx := nn.PostForward(lp, in.X, in.Y)
		if !w.dropped(layer, int(op.Seg)) {
			w.postCtx[key] = ctx
		}
		w.store[token{tokA, mb, layer + 1}] = Value{X: y}
	}
}

// recompute regenerates a dropped segment stash from retained inputs —
// recomputation without attention (4.4.1) for helix plans, full-layer
// recomputation for AdaPipe plans.
func (w *worker) recompute(op sched.Op) {
	mb, layer := int(op.MB), int(op.Layer)
	key := [2]int{mb, layer}
	lp := w.model.Layers[layer]
	switch op.Seg {
	case model.SegPre:
		in := w.get(token{tokA, mb, layer})
		qkv, ctx := nn.PreForward(lp, in.X)
		w.preCtx[key] = ctx
		w.store[token{tokQ, mb, layer}] = Value{X: in.X, Y: qkv}
	case model.SegAttn:
		in := w.get(token{tokQ, mb, layer})
		out, ctx := nn.AttnForward(w.model.Cfg, in.Y)
		w.attnCtx[key] = ctx
		w.store[token{tokO, mb, layer}] = Value{X: in.X, Y: out}
	default: // post
		in := w.get(token{tokO, mb, layer})
		w.postCtx[key] = nn.RecomputePost(lp, in.X, in.Y)
	}
}

func (w *worker) backwardB(op sched.Op) {
	mb, layer := int(op.MB), int(op.Layer)
	switch layer {
	case sched.LayerHead:
		in := w.get(token{tokA, mb, w.plan.Layers})
		scale := float32(1) / float32(w.plan.MicroBatches)
		loss, dx, wctx := nn.HeadFusedBackward(w.model.Head, in.X, w.batches[mb].Targets, scale)
		w.loss[mb] = loss
		w.headW[mb] = wctx
		w.store[token{tokGA, mb, w.plan.Layers}] = Value{X: dx}
		return
	case sched.LayerEmbed:
		return
	}
	key := [2]int{mb, layer}
	lp := w.model.Layers[layer]
	switch op.Seg {
	case model.SegPost:
		ctx, ok := w.postCtx[key]
		if !ok {
			panic(fmt.Sprintf("stage %d: post stash for mb %d layer %d missing (recompute not scheduled?)", w.stage, mb, layer))
		}
		in := w.get(token{tokGA, mb, layer + 1})
		dAttnOut, dResid, wctx := nn.PostBackwardB(lp, ctx, in.X)
		w.postW[key] = wctx
		w.store[token{tokGO, mb, layer}] = Value{X: dAttnOut, Y: dResid}
	case model.SegAttn:
		ctx, ok := w.attnCtx[key]
		if !ok {
			panic(fmt.Sprintf("stage %d: attention stash for mb %d layer %d missing", w.stage, mb, layer))
		}
		in := w.get(token{tokGO, mb, layer})
		dqkv := nn.AttnBackward(ctx, in.X)
		w.store[token{tokGQ, mb, layer}] = Value{X: dqkv, Y: in.Y}
	default: // pre
		ctx, ok := w.preCtx[key]
		if !ok {
			panic(fmt.Sprintf("stage %d: pre stash for mb %d layer %d missing (recompute not scheduled?)", w.stage, mb, layer))
		}
		in := w.get(token{tokGQ, mb, layer})
		dx, wctx := nn.PreBackwardB(lp, ctx, in.X, in.Y)
		w.preW[key] = wctx
		w.store[token{tokGA, mb, layer}] = Value{X: dx}
	}
}

func (w *worker) backwardW(op sched.Op) {
	mb, layer := int(op.MB), int(op.Layer)
	g := w.gradsFor(mb)
	switch layer {
	case sched.LayerHead:
		nn.HeadBackwardW(w.model.Head, w.headW[mb], g.Head)
		return
	case sched.LayerEmbed:
		in := w.get(token{tokGA, mb, 0})
		nn.EmbedBackwardW(w.model.Embed, w.batches[mb].Ids, in.X, g.Embed)
		return
	}
	key := [2]int{mb, layer}
	lp := w.model.Layers[layer]
	if op.Seg == model.SegPost {
		nn.PostBackwardW(lp, w.postW[key], g.Layers[layer])
	} else {
		nn.PreBackwardW(lp, w.preW[key], g.Layers[layer])
	}
}

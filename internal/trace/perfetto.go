package trace

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Perfetto appends a traced simulation result to the trace builder as one
// process: one thread lane per pipeline stage, a complete event per
// executed op, and a flow event pair (send → recv) linking every
// cross-stage transfer. The output loads in ui.perfetto.dev (or
// chrome://tracing); span times convert from the simulator's seconds to
// the format's microseconds.
//
// Flow arrows need anchors on both lanes, so — unlike the ASCII/SVG
// renderers, which drop them — recv waits are emitted as slices on the
// receiving lane (category "recv", spanning wait-begin to arrival) and
// async sends as zero-duration slices on the sender.
func Perfetto(t *obs.Trace, res *sim.Result, pid int, name string) {
	t.ProcessName(pid, name)
	t.ProcessSortIndex(pid, pid)
	for s := 0; s < res.Stages; s++ {
		t.ThreadName(pid, s, fmt.Sprintf("stage %d", s))
	}

	// A send and its recv pair on (tag, sender, receiver) — the simulator's
	// own message identity. Ids are assigned to sends in span order
	// (deterministic for a deterministic sim), scoped per process so
	// multi-cell traces never cross-link.
	type pairKey struct {
		tag      sched.Tag
		from, to int
	}
	flowIDs := make(map[pairKey]uint64)
	for _, sp := range res.Spans {
		if sp.Op.Kind == sched.KSend {
			k := pairKey{sp.Op.Tag, sp.Stage, int(sp.Op.Peer)}
			if _, ok := flowIDs[k]; !ok {
				flowIDs[k] = uint64(pid)<<32 | uint64(len(flowIDs)+1)
			}
		}
	}

	for _, sp := range res.Spans {
		ts := sp.Start * 1e6
		dur := (sp.End - sp.Start) * 1e6
		op := sp.Op
		switch op.Kind {
		case sched.KSend:
			args := map[string]any{
				"tag":      op.Tag.String(),
				"peer":     op.Peer,
				"bytes":    op.Bytes,
				"blocking": op.Blocking,
			}
			t.Complete(pid, sp.Stage, "send "+op.Tag.String(), "send", ts, dur, args)
			if id, ok := flowIDs[pairKey{op.Tag, sp.Stage, int(op.Peer)}]; ok {
				t.FlowStart(pid, sp.Stage, "xfer "+op.Tag.String(), "transfer", ts, id)
			}
		case sched.KRecv:
			args := map[string]any{"tag": op.Tag.String(), "peer": op.Peer}
			t.Complete(pid, sp.Stage, "recv "+op.Tag.String(), "recv", ts, dur, args)
			if id, ok := flowIDs[pairKey{op.Tag, int(op.Peer), sp.Stage}]; ok {
				// Bind the arrow head at the arrival edge, inside the recv
				// slice (bp:"e" attaches to the enclosing slice).
				t.FlowEnd(pid, sp.Stage, "xfer "+op.Tag.String(), "transfer", sp.End*1e6, id)
			}
		default:
			t.Complete(pid, sp.Stage, perfettoName(op), perfettoCat(op), ts, dur,
				map[string]any{"layer": layerLabel(op), "seg": op.Seg.String(), "mb": op.MB})
		}
	}
}

// perfettoName labels a compute slice: the op class plus micro batch, with
// the layer target — short enough to read at sweep zoom, unique enough to
// search.
func perfettoName(op sched.Op) string {
	return fmt.Sprintf("%s mb%d %s", opClass(op), op.MB, layerLabel(op))
}

// perfettoCat buckets compute ops into searchable categories.
func perfettoCat(op sched.Op) string {
	switch op.Kind {
	case sched.KForward:
		return "forward"
	case sched.KBackwardB:
		return "backward"
	case sched.KBackwardW:
		return "weight-grad"
	case sched.KRecompute:
		return "recompute"
	default:
		return "other"
	}
}

func layerLabel(op sched.Op) string {
	switch op.Layer {
	case sched.LayerEmbed:
		return "embed"
	case sched.LayerHead:
		return "head"
	default:
		return fmt.Sprintf("l%d.%s", op.Layer, op.Seg)
	}
}

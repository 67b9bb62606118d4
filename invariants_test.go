package helixpipe

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
)

// TestSimInvariants re-runs every run and sweep spec under examples/, plus
// every registered method on 7B/H20 and on a perturbed greedy placement,
// with tracing on, and checks the engine's accounting on each cell:
//
//   - per stage, spans never overlap: each op starts no earlier than the
//     previous one ends, the first no earlier than 0, and the latest span
//     ends exactly at IterationSeconds;
//   - the compute spans sum to BusySeconds, within 1e-9 of the iteration
//     time;
//   - IdleSeconds = IterationSeconds - BusySeconds - CommStallSeconds,
//     within 1e-9 s;
//   - every recv ends no earlier than its matching send starts (the send of
//     the same tag from the recv's peer to its stage), and on a flat cell
//     no earlier than that start plus the message's wire time,
//     bytes/P2PBytesPerSec + P2PLatency.
//
// The cells run through Execute, so their plans are built into recycled
// program slabs.
func TestSimInvariants(t *testing.T) {
	paths, err := filepath.Glob("examples/*/*.json")
	if err != nil {
		t.Fatal(err)
	}
	var specs []*ExperimentSpec
	for _, path := range paths {
		if strings.HasSuffix(path, ".golden.json") || strings.HasSuffix(path, ".trace.json") {
			continue
		}
		spec, err := ParseSpecFile(path)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	specs = append(specs,
		&ExperimentSpec{Model: "7B", Cluster: "H20", SeqLen: 131072, Stages: 8, Methods: []string{"all"}},
		&ExperimentSpec{Model: "3B", Cluster: "DGX-A800x4", SeqLen: 32768, Stages: 8, Methods: []string{"all"},
			Placement: "greedy", Perturb: "link=ibx0.5"})
	cells := 0
	for _, spec := range specs {
		spec.Trace = true
		session, rs, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if rs.Kind != RunKindRun && rs.Kind != RunKindSweep {
			continue
		}
		// Every cell of a spec shares its cluster's flat link parameters.
		flat := session.Costs()
		for r, err := range session.Execute(spec) {
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s %s seq=%d p=%d", r.Cluster, r.Method, r.SeqLen, r.Stages)
			link := &flat
			if len(r.Placement) > 0 {
				link = nil
			}
			if err := checkSimInvariants(r.SimResult(), link); err != nil {
				t.Errorf("%s: %v", label, err)
			}
			cells++
		}
	}
	if cells < 36 {
		t.Fatalf("checked %d cells, want at least 36", cells)
	}
	t.Logf("checked %d cells", cells)
}

// checkSimInvariants returns the first accounting invariant a traced
// simulation result violates, or nil. A non-nil link is the flat cost book
// whose NIC parameters price every transfer of the run.
func checkSimInvariants(res *SimResult, link *sched.Costs) error {
	if res == nil || len(res.Spans) == 0 {
		return fmt.Errorf("no traced spans")
	}
	iter := res.IterationSeconds
	type msg struct {
		tag      sched.Tag
		from, to int
	}
	type send struct {
		start float64
		bytes int64
	}
	sends := map[msg]send{}
	for _, sp := range res.Spans {
		if sp.Op.Kind == sched.KSend {
			sends[msg{sp.Op.Tag, sp.Stage, int(sp.Op.Peer)}] = send{sp.Start, sp.Op.Bytes}
		}
	}
	prevEnd := make([]float64, res.Stages)
	compute := make([]float64, res.Stages)
	last := 0.0
	for _, sp := range res.Spans {
		s := sp.Stage
		if sp.Start < prevEnd[s] || sp.End < sp.Start {
			return fmt.Errorf("stage %d: %v spans [%g, %g], overlapping the previous op's end %g",
				s, sp.Op, sp.Start, sp.End, prevEnd[s])
		}
		prevEnd[s] = sp.End
		last = max(last, sp.End)
		switch sp.Op.Kind {
		case sched.KSend:
		case sched.KRecv:
			snd, ok := sends[msg{sp.Op.Tag, int(sp.Op.Peer), s}]
			if !ok {
				return fmt.Errorf("stage %d: %v has no matching send", s, sp.Op)
			}
			if sp.End < snd.start {
				return fmt.Errorf("stage %d: %v ends at %g, before its send starts at %g", s, sp.Op, sp.End, snd.start)
			}
			if link != nil {
				// The transfer starts no earlier than its send and lands
				// wire + latency later, summed in the engine's order.
				landed := snd.start
				if link.P2PBytesPerSec > 0 {
					landed += float64(snd.bytes) / link.P2PBytesPerSec
				}
				landed += link.P2PLatency
				if sp.End < landed {
					return fmt.Errorf("stage %d: %v ends at %g, before its %d bytes can land at %g",
						s, sp.Op, sp.End, snd.bytes, landed)
				}
			}
		default:
			compute[s] += sp.End - sp.Start
		}
	}
	if last != iter {
		return fmt.Errorf("the latest span ends at %g, not at the iteration time %g", last, iter)
	}
	for s := 0; s < res.Stages; s++ {
		if d := math.Abs(compute[s] - res.BusySeconds[s]); d > 1e-9*iter {
			return fmt.Errorf("stage %d: compute spans sum to %g, busy %g (off by %g)", s, compute[s], res.BusySeconds[s], d)
		}
		want := iter - res.BusySeconds[s] - res.CommStallSeconds[s]
		if d := math.Abs(res.IdleSeconds[s] - want); d > 1e-9 {
			return fmt.Errorf("stage %d: idle %g, want iteration - busy - comm stall = %g", s, res.IdleSeconds[s], want)
		}
	}
	return nil
}

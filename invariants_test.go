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
//     the same tag from the recv's peer to its stage).
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
		for r, err := range session.Execute(spec) {
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s %s seq=%d p=%d", r.Cluster, r.Method, r.SeqLen, r.Stages)
			if err := checkSimInvariants(r.SimResult()); err != nil {
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
// simulation result violates, or nil.
func checkSimInvariants(res *SimResult) error {
	if res == nil || len(res.Spans) == 0 {
		return fmt.Errorf("no traced spans")
	}
	iter := res.IterationSeconds
	type msg struct {
		tag      sched.Tag
		from, to int
	}
	sendStart := map[msg]float64{}
	for _, sp := range res.Spans {
		if sp.Op.Kind == sched.KSend {
			sendStart[msg{sp.Op.Tag, sp.Stage, sp.Op.Peer}] = sp.Start
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
			start, ok := sendStart[msg{sp.Op.Tag, sp.Op.Peer, s}]
			if !ok {
				return fmt.Errorf("stage %d: %v has no matching send", s, sp.Op)
			}
			if sp.End < start {
				return fmt.Errorf("stage %d: %v ends at %g, before its send starts at %g", s, sp.Op, sp.End, start)
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

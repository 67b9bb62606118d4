package helixpipe

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// varlenSession builds a tiny 2-stage session over a mixed-length workload,
// including a b=2 micro batch.
func varlenSession(t *testing.T) (*Session, BatchSpec) {
	t.Helper()
	spec := BatchSpec{Shapes: []Shape{
		{B: 1, S: 8}, {B: 2, S: 16}, {B: 1, S: 12}, {B: 1, S: 16},
	}}
	s, err := NewSession(TinyModel(), H20Cluster(), WithStages(2), WithWorkload(spec))
	if err != nil {
		t.Fatal(err)
	}
	return s, spec
}

func TestWithWorkloadGeometry(t *testing.T) {
	s, spec := varlenSession(t)
	if s.MicroBatches() != 4 {
		t.Errorf("MicroBatches = %d, want the spec's 4", s.MicroBatches())
	}
	if s.SeqLen() != 16 || s.MicroBatchSize() != 2 {
		t.Errorf("SeqLen/MicroBatchSize = %d/%d, want maxima 16/2", s.SeqLen(), s.MicroBatchSize())
	}
	if got := s.TokensPerIteration(); got != spec.TotalTokens() {
		t.Errorf("TokensPerIteration = %d, want %d", got, spec.TotalTokens())
	}
	if !s.Costs().Variable() {
		t.Error("session costs must carry per-micro-batch books")
	}
	if len(s.Batch().Shapes) != 4 {
		t.Error("Batch accessor lost the spec")
	}
	if _, err := NewSession(TinyModel(), H20Cluster(), WithStages(2),
		WithWorkload(BatchSpec{Shapes: []Shape{{B: 0, S: 8}}})); err == nil {
		t.Error("invalid workload accepted")
	}
}

// TestWorkloadGeometryPrecedence pins the option-ordering contract: a later
// fixed-shape option replaces the workload (so a cell derived at a fixed
// sequence length never silently keeps it), and an empty WithWorkload
// restores the fixed-shape geometry.
func TestWorkloadGeometryPrecedence(t *testing.T) {
	s, _ := varlenSession(t)

	fixed, err := s.With(WithSeqLen(32))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed.Batch().Shapes) != 0 {
		t.Error("WithSeqLen must clear the workload")
	}
	if fixed.SeqLen() != 32 || fixed.MicroBatches() != 2*fixed.Stages() {
		t.Errorf("fixed geometry = seq %d m %d, want 32 / %d",
			fixed.SeqLen(), fixed.MicroBatches(), 2*fixed.Stages())
	}

	cleared, err := s.With(WithWorkload(BatchSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(cleared.Batch().Shapes) != 0 || cleared.MicroBatches() != 2*cleared.Stages() {
		t.Errorf("empty WithWorkload left geometry %d micro batches", cleared.MicroBatches())
	}

	// Cells derived at fixed sequence lengths from a workload session
	// simulate fixed shapes: the two cells must differ.
	var reports []*Report
	for _, seq := range []int{16, 32} {
		cell, err := s.With(WithSeqLen(seq))
		if err != nil {
			t.Fatal(err)
		}
		r, err := cell.Simulate(Method1F1B)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
	}
	if reports[0].SeqLen == reports[1].SeqLen {
		t.Errorf("cells share seq_len %d — the fixed shape was ignored", reports[0].SeqLen)
	}
	for _, r := range reports {
		if len(r.MicroBatchTokens) != 0 {
			t.Error("fixed-shape cell carries variable-length fields")
		}
	}
}

// TestWorkloadEndToEndBothEngines is the acceptance check: a mixed-length
// workload runs through Session on both engines — the simulator reports
// per-micro-batch token counts and a length histogram, and the numeric
// engine's gradients are bit-identical to the sequential reference.
func TestWorkloadEndToEndBothEngines(t *testing.T) {
	s, spec := varlenSession(t)
	for _, method := range []Method{Method1F1B, MethodHelix} {
		rep, err := s.Simulate(method)
		if err != nil {
			t.Fatalf("%s sim: %v", method, err)
		}
		if rep.Sim == nil || rep.Sim.IterationSeconds <= 0 {
			t.Fatalf("%s: no sim metrics", method)
		}
		if len(rep.MicroBatchTokens) != 4 {
			t.Errorf("%s: MicroBatchTokens = %v", method, rep.MicroBatchTokens)
		}
		if len(rep.SeqLenHistogram) == 0 {
			t.Errorf("%s: missing length histogram", method)
		}
		if rep.TokensPerIteration != spec.TotalTokens() {
			t.Errorf("%s: tokens %d, want %d", method, rep.TokensPerIteration, spec.TotalTokens())
		}
		if rep.Sim.TokensPerSecond <= 0 {
			t.Errorf("%s: no throughput", method)
		}

		eng := s.NumericEngine(7)
		nrep, err := s.Run(eng, method)
		if err != nil {
			t.Fatalf("%s numeric: %v", method, err)
		}
		refLoss, refGrads := ReferenceStep(eng.Model, eng.Batches)
		if nrep.Numeric.Loss != refLoss {
			t.Errorf("%s: loss %v != reference %v", method, nrep.Numeric.Loss, refLoss)
		}
		if d := GradDiff(nrep.NumericResult().Grads, refGrads); d != 0 {
			t.Errorf("%s: gradients differ from reference by %g", method, d)
		}
	}
}

func TestWorkloadReportSerialization(t *testing.T) {
	s, _ := varlenSession(t)
	rep, err := s.Simulate(Method1F1B)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"micro_batch_tokens", "seq_len_histogram"} {
		if !strings.Contains(string(data), key) {
			t.Errorf("JSON misses %q: %s", key, data)
		}
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.MicroBatchTokens) != 4 || len(back.SeqLenHistogram) == 0 {
		t.Error("round trip lost the variable-length fields")
	}

	var buf bytes.Buffer
	if err := WriteReportsCSV(&buf, []*Report{rep}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "mb_tokens") || !strings.Contains(lines[0], "seq_len_hist") {
		t.Errorf("CSV header misses variable-length columns: %q", lines[0])
	}
	if !strings.Contains(lines[1], ";") {
		t.Errorf("CSV row misses joined per-micro-batch values: %q", lines[1])
	}
}

// TestAutotuneVariableLength checks the autotuner ranks methods on a
// length-distribution workload and returns a best pick for it.
func TestAutotuneVariableLength(t *testing.T) {
	wl, err := SyntheticWorkload(DistBimodal, 24, 8, 64, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(TinyModel(), H20Cluster(), WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Autotune(TuneSpec{
		Methods:   []Method{Method1F1B, MethodGPipe, MethodHelix},
		Workloads: []TuneWorkload{{Name: "bimodal", Batch: wl}},
		Stages:    []int{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated == 0 {
		t.Fatalf("nothing evaluated: pruned %v, errors %v", res.Pruned, res.Errors)
	}
	if len(res.Best) != 1 || res.Best[0].Workload != "bimodal" {
		t.Fatalf("Best = %+v, want one bimodal pick", res.Best)
	}
	if res.Best[0].TokensPerSecond <= 0 {
		t.Error("best pick has no throughput")
	}

	// A variable-length session tunes its own workload by default.
	vs, _ := varlenSession(t)
	res2, err := vs.Autotune(TuneSpec{Methods: []Method{Method1F1B}, Stages: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Best) != 1 || res2.Best[0].Workload != "session" {
		t.Fatalf("session workload default missing: %+v", res2.Best)
	}
}

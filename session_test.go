package helixpipe

import (
	"bytes"
	"encoding/json"
	"errors"
	"iter"
	"strings"
	"testing"
)

// tinySession returns a session every registered method can run: the tiny
// model on two stages with eight micro batches (a multiple of every
// schedule's loop size).
func tinySession(t *testing.T, opts ...Option) *Session {
	t.Helper()
	base := []Option{WithSeqLen(8), WithStages(2), WithMicroBatches(8)}
	s, err := NewSession(TinyModel(), H20Cluster(), append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSessionValidation checks that NewSession validates eagerly.
func TestSessionValidation(t *testing.T) {
	if _, err := NewSession(TinyModel(), H20Cluster()); err == nil {
		t.Error("tiny model on the default 8 stages must fail (4 layers)")
	}
	if _, err := NewSession(TinyModel(), H20Cluster(), WithStages(2), WithSeqLen(0)); err == nil {
		t.Error("zero sequence length must fail")
	}
	if _, err := NewSession(TinyModel(), H20Cluster(), WithStages(2), WithMicroBatches(-1)); err == nil {
		t.Error("negative micro batches must fail")
	}
	if _, err := NewSession(ModelConfig{}, H20Cluster(), WithStages(2)); err == nil {
		t.Error("zero model must fail")
	}
	s := tinySession(t)
	if s.MicroBatches() != 8 || s.Stages() != 2 || s.SeqLen() != 8 {
		t.Errorf("session geometry wrong: %d stages, %d mb, %d seq",
			s.Stages(), s.MicroBatches(), s.SeqLen())
	}
	// Default m = 2p tracks stage overrides in With; explicit m is kept.
	d, err := NewSession(TinyModel(), H20Cluster(), WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	if d.MicroBatches() != 4 {
		t.Errorf("default micro batches: want 2p=4, got %d", d.MicroBatches())
	}
	d2, err := d.With(WithStages(4))
	if err != nil {
		t.Fatal(err)
	}
	if d2.MicroBatches() != 8 {
		t.Errorf("derived default micro batches: want 2p=8, got %d", d2.MicroBatches())
	}
	if d.Stages() != 2 {
		t.Error("With must not mutate the receiver")
	}
}

// TestSessionRoundTrip runs every registered method through both engines on
// a tiny model and checks that each Report's JSON survives an unmarshal
// round-trip.
func TestSessionRoundTrip(t *testing.T) {
	s := tinySession(t)
	if len(Methods()) < 9 {
		t.Fatalf("registry incomplete: %v", Methods())
	}
	for _, method := range Methods() {
		engines := []Engine{s.SimEngine(), s.NumericEngine(7)}
		for _, engine := range engines {
			report, err := s.Run(engine, method)
			if err != nil {
				t.Fatalf("%s/%s: %v", method, engine.Name(), err)
			}
			if report.Method != method {
				t.Errorf("%s/%s: report names method %s", method, engine.Name(), report.Method)
			}
			if report.Engine != engine.Name() {
				t.Errorf("%s: engine label %q", method, report.Engine)
			}
			switch engine.Name() {
			case EngineSim:
				if report.Sim == nil || report.Sim.IterationSeconds <= 0 {
					t.Errorf("%s/sim: missing or non-positive sim metrics", method)
				}
				if report.Numeric != nil {
					t.Errorf("%s/sim: unexpected numeric metrics", method)
				}
			case EngineNumeric:
				if report.Numeric == nil || report.Numeric.Loss <= 0 {
					t.Errorf("%s/numeric: missing or non-positive loss", method)
				}
				if report.NumericResult() == nil || report.NumericResult().Grads == nil {
					t.Errorf("%s/numeric: raw result not retained", method)
				}
			}

			// JSON round trip: marshal, unmarshal, re-marshal, compare.
			first, err := json.Marshal(report)
			if err != nil {
				t.Fatalf("%s/%s: marshal: %v", method, engine.Name(), err)
			}
			var decoded Report
			if err := json.Unmarshal(first, &decoded); err != nil {
				t.Fatalf("%s/%s: unmarshal: %v", method, engine.Name(), err)
			}
			second, err := json.Marshal(&decoded)
			if err != nil {
				t.Fatalf("%s/%s: re-marshal: %v", method, engine.Name(), err)
			}
			if !bytes.Equal(first, second) {
				t.Errorf("%s/%s: JSON round trip not stable:\n%s\nvs\n%s",
					method, engine.Name(), first, second)
			}
		}
	}
}

// TestNumericEnginesAgree checks that every method's numeric run produces
// the same loss: the paper's semantics claim through the Session API.
func TestNumericEnginesAgree(t *testing.T) {
	s := tinySession(t)
	var wantLoss float64
	for i, method := range Methods() {
		report, err := s.Run(s.NumericEngine(99), method)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if i == 0 {
			wantLoss = report.Numeric.Loss
			continue
		}
		if report.Numeric.Loss != wantLoss {
			t.Errorf("%s: loss %v differs from %v — schedules must be semantics-preserving",
				method, report.Numeric.Loss, wantLoss)
		}
	}
}

// collectReports drains a report stream the way a caller collecting a grid
// does: the reports of the cells that succeeded, in grid order, and the
// joined error of every cell that failed.
func collectReports(stream iter.Seq2[*Report, error]) ([]*Report, error) {
	var reports []*Report
	var errs []error
	for r, err := range stream {
		if err != nil {
			errs = append(errs, err)
			continue
		}
		reports = append(reports, r)
	}
	return reports, errors.Join(errs...)
}

// executeSpec resolves the spec, derives its session with opts, and
// collects what Execute streams for the spec.
func executeSpec(tb testing.TB, spec *ExperimentSpec, opts ...Option) ([]*Report, error) {
	tb.Helper()
	session, _, err := spec.Resolve()
	if err != nil {
		tb.Fatal(err)
	}
	if session, err = session.With(opts...); err != nil {
		tb.Fatal(err)
	}
	return collectReports(session.Execute(spec))
}

// tinySweep is a sweep spec on the tiny model (4 layers) at seq 8 on two
// stages, with the paper default m = 2p.
func tinySweep(methods []string, sw SpecSweep) *ExperimentSpec {
	return &ExperimentSpec{Model: "tiny", Cluster: "H20", SeqLen: 8, Stages: 2,
		Methods: methods, Sweep: &sw}
}

// TestSessionSweep fans a small grid out through Execute and checks order
// and geometry.
func TestSessionSweep(t *testing.T) {
	methods := []Method{Method1F1B, MethodHelix}
	names := []string{"1F1B", "HelixPipe"}
	seqLens := []int{8, 16}
	stages := []int{2, 4}
	reports, err := executeSpec(t, tinySweep(names, SpecSweep{SeqLens: seqLens, Stages: stages}))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(methods) * len(seqLens) * len(stages); len(reports) != want {
		t.Fatalf("want %d reports, got %d", want, len(reports))
	}
	i := 0
	for _, seq := range seqLens {
		for _, p := range stages {
			for _, m := range methods {
				r := reports[i]
				i++
				if r.Method != m || r.SeqLen != seq || r.Stages != p {
					t.Errorf("report %d: got (%s, seq=%d, p=%d), want (%s, seq=%d, p=%d)",
						i-1, r.Method, r.SeqLen, r.Stages, m, seq, p)
				}
				// Default m = 2p must follow the grid's stage count.
				if r.MicroBatches != 2*p {
					t.Errorf("report %d: micro batches %d, want %d", i-1, r.MicroBatches, 2*p)
				}
			}
		}
	}
	// A grid containing an invalid cell reports the failure but still
	// returns the valid cells.
	reports, err = executeSpec(t, tinySweep(names, SpecSweep{Stages: []int{2, 3}}))
	if err == nil {
		t.Error("stages=3 does not divide 4 layers: the run must report it")
	}
	if len(reports) != len(methods) {
		t.Errorf("valid cells must survive a partial failure: got %d reports", len(reports))
	}
}

// dupSweep is a 3B/A800 sweep spec whose repeated seqlen makes exact
// duplicate cells: 2 methods x (2+1 seqlens) x 2 stages = 12 cells, 4 of
// them duplicates.
func dupSweep() *ExperimentSpec {
	return &ExperimentSpec{Model: "3B", Cluster: "A800",
		Methods: []string{"1F1B", "HelixPipe"},
		Sweep:   &SpecSweep{SeqLens: []int{8192, 8192, 16384}, Stages: []int{2, 4}}}
}

// TestExecuteSimulatesDuplicateCells pins that Execute caches nothing: each
// duplicate cell of dupSweep simulates again, into a report of its own, and
// yields the same bytes as the cell it repeats.
func TestExecuteSimulatesDuplicateCells(t *testing.T) {
	reports, err := executeSpec(t, dupSweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 12 {
		t.Fatalf("got %d reports, want 12", len(reports))
	}
	// Grid order is seqlen-major: cells 4-7 repeat cells 0-3.
	for i := 0; i < 4; i++ {
		first, again := reports[i], reports[i+4]
		if first == again {
			t.Errorf("cell %d shares the report of cell %d: one simulation yielded twice", i+4, i)
		}
		var a, b bytes.Buffer
		if err := WriteReportsJSON(&a, []*Report{first}); err != nil {
			t.Fatal(err)
		}
		if err := WriteReportsJSON(&b, []*Report{again}); err != nil {
			t.Fatal(err)
		}
		if first.SeqLen != 8192 || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("cell %d (%s seq=%d p=%d) does not repeat cell %d byte for byte",
				i+4, again.Method, again.SeqLen, again.Stages, i)
		}
	}
}

// failingSweep is a grid on the tiny model whose cells fail in both ways a
// cell can: p=3 cannot divide the 4 layers (the derived session is
// invalid), and AdaPipe at a 1-byte memory budget builds no plan. Only the
// 1F1B cells on two stages succeed.
func failingSweep() *ExperimentSpec {
	spec := tinySweep([]string{"1F1B", "AdaPipe"}, SpecSweep{SeqLens: []int{8, 16}, Stages: []int{2, 3}})
	spec.MemoryBudgetGB = 1e-9
	return spec
}

// TestSweepErrorAggregation pins the contract a grid collector leans on:
// every failing cell is reported in the joined error, and no failure — at
// derivation or at plan build — loses the reports of the other cells or
// their grid order.
func TestSweepErrorAggregation(t *testing.T) {
	reports, err := executeSpec(t, failingSweep())
	if err == nil {
		t.Fatal("failing cells must surface in the joined error")
	}
	// Both methods fail at p=3, and AdaPipe at p=2, for each of 2 seqlens.
	if n := strings.Count(err.Error(), "p=3"); n != 4 {
		t.Errorf("joined error names %d p=3 failures, want 4: %v", n, err)
	}
	if n := strings.Count(err.Error(), "found no partition of 4 layers over 2 stages within 1 bytes"); n != 2 {
		t.Errorf("joined error names %d AdaPipe build failures, want 2: %v", n, err)
	}
	if len(reports) != 2 {
		t.Fatalf("valid cells lost: got %d reports, want 2", len(reports))
	}
	for i, seq := range []int{8, 16} {
		if r := reports[i]; r.Method != Method1F1B || r.SeqLen != seq || r.Stages != 2 {
			t.Errorf("report %d = (%s, seq=%d, p=%d), want (1F1B, seq=%d, p=2)",
				i, r.Method, r.SeqLen, r.Stages, seq)
		}
	}
}

// TestSessionAutotune checks the autotuner's session front door: spec axes
// default from the session, the frontier is non-empty on the paper's A800
// testbed under a 64GB budget, nothing returned exceeds the budget, and
// memoization keeps cost-model evaluations strictly below the grid size.
func TestSessionAutotune(t *testing.T) {
	s, err := NewSession(Model3B(), A800Cluster(), WithSeqLen(65536), WithStages(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Autotune(TuneSpec{
		SeqLens:           []int{32768, 65536},
		Stages:            []int{2, 4, 8},
		MemoryBudgetBytes: 64 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("expected a non-empty Pareto frontier")
	}
	if res.CostModelEvals >= res.GridSize {
		t.Errorf("memoization ineffective: %d cost evals on a grid of %d",
			res.CostModelEvals, res.GridSize)
	}
	for _, p := range res.Points {
		if p.PeakBytes > res.MemoryBudgetBytes {
			t.Errorf("%s seq=%d p=%d: peak %d exceeds budget %d",
				p.Method, p.SeqLen, p.Stages, p.PeakBytes, res.MemoryBudgetBytes)
		}
	}

	// Empty axes fall back to the session's geometry.
	res, err = s.Autotune(TuneSpec{Methods: []Method{Method1F1B}})
	if err != nil {
		t.Fatal(err)
	}
	if res.GridSize != 1 || res.Evaluated != 1 {
		t.Fatalf("session-default spec: grid %d evaluated %d, want 1/1", res.GridSize, res.Evaluated)
	}
	p := res.Points[0]
	if p.SeqLen != s.SeqLen() || p.Stages != s.Stages() || p.MicroBatchSize != s.MicroBatchSize() {
		t.Errorf("defaults not taken from session: %+v", p.Candidate)
	}

	// The serialization plumbing round-trips through the root package.
	var buf bytes.Buffer
	if err := WriteTuneResultJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var decoded TuneResult
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.GridSize != res.GridSize {
		t.Error("tune JSON round trip lost the grid size")
	}
	buf.Reset()
	if err := WriteTuneResultCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(buf.String()), "\n"); len(lines) != res.Evaluated+1 {
		t.Errorf("tune CSV rows = %d, want %d", len(lines), res.Evaluated+1)
	}
}

// TestSweepNumericEngine runs a numeric-engine spec through Execute.
func TestSweepNumericEngine(t *testing.T) {
	reports, err := executeSpec(t, &ExperimentSpec{Model: "tiny", Cluster: "H20", SeqLen: 8,
		Stages: 2, MicroBatches: 8, Methods: []string{"1F1B", "HelixPipe"},
		Engine: SpecEngineNumeric, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("want 2 reports, got %d", len(reports))
	}
	if reports[0].Numeric == nil || reports[1].Numeric == nil {
		t.Fatal("numeric runs must carry numeric metrics")
	}
	if reports[0].Numeric.Loss != reports[1].Numeric.Loss {
		t.Error("1F1B and HelixPipe must train identically")
	}
}

// TestReportTimelines checks the renderers hang off traced reports.
func TestReportTimelines(t *testing.T) {
	s := tinySession(t, WithTrace())
	report, err := s.Simulate(MethodHelix)
	if err != nil {
		t.Fatal(err)
	}
	if out := report.TimelineASCII(100); !strings.Contains(out, "P0") {
		t.Error("traced report must render an ASCII timeline")
	}
	if out := report.TimelineSVG(800); !strings.Contains(out, "<svg") {
		t.Error("traced report must render an SVG timeline")
	}
	// Untraced reports render nothing rather than panicking.
	plain, err := tinySession(t).Simulate(MethodHelix)
	if err != nil {
		t.Fatal(err)
	}
	if plain.TimelineASCII(100) != "" || plain.TimelineSVG(800) != "" {
		t.Error("untraced report must render empty timelines")
	}
}

// TestReportCSV checks the CSV surface.
func TestReportCSV(t *testing.T) {
	s := tinySession(t)
	sim, err := s.Simulate(Method1F1B)
	if err != nil {
		t.Fatal(err)
	}
	num, err := s.Run(s.NumericEngine(1), Method1F1B)
	if err != nil {
		t.Fatal(err)
	}
	header := ReportCSVHeader()
	for _, r := range []*Report{sim, num} {
		if got := len(r.CSVRow()); got != len(header) {
			t.Errorf("CSV row has %d columns, header %d", got, len(header))
		}
	}
	var buf bytes.Buffer
	if err := WriteReportsCSV(&buf, []*Report{sim, num}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Errorf("want header + 2 rows, got %d lines", len(lines))
	}
}

// TestMethodRegistry checks the registry-driven lookups.
func TestMethodRegistry(t *testing.T) {
	if len(MethodInfos()) != len(Methods()) {
		t.Error("MethodInfos and Methods must agree")
	}
	for _, info := range MethodInfos() {
		if info.Description == "" {
			t.Errorf("%s: empty description", info.Name)
		}
	}
	if m, ok := LookupMethod("helixpipe"); !ok || m != MethodHelix {
		t.Errorf("case-insensitive lookup failed: %v %v", m, ok)
	}
	if _, ok := LookupMethod("nope"); ok {
		t.Error("unknown method must not resolve")
	}
	// Baselines first, as the paper lists them.
	if ms := Methods(); ms[0] != MethodGPipe || ms[len(ms)-1] != MethodHelixNoRecompute {
		t.Errorf("registry order wrong: %v", ms)
	}
}

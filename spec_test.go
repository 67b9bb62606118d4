package helixpipe

import (
	"bytes"
	"encoding/json"
	"iter"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fullSpec returns a spec exercising every field, matching
// testdata/spec_full.json.
func fullSpec() *ExperimentSpec {
	return &ExperimentSpec{
		Model:          "3B",
		Cluster:        "DGX-A800x4",
		SeqLen:         65536,
		Stages:         4,
		MicroBatchSize: 2,
		MicroBatches:   8,
		MemoryBudgetGB: 60,
		Methods:        []string{"1F1B", "HelixPipe"},
		Engine:         SpecEngineSim,
		Seed:           7,
		Trace:          true,
		Workload: &SpecWorkload{
			Dist:   "bimodal",
			Docs:   32,
			MinSeq: 4096,
			MaxSeq: 65536,
			Seed:   9,
			Order:  "balanced",
		},
		Placement:     "greedy",
		PlacementSeed: 3,
		Perturb:       "slow=1x1.5,jitter=0.05,seed=11",
		// A workload spec sweeps stages only; a seq_lens axis would discard
		// the workload and is rejected (TestSpecInvalid).
		Sweep:  &SpecSweep{Stages: []int{2, 4}},
		Output: &SpecOutput{JSON: true, CSV: "points.csv", Timeline: true, SVG: "out.svg"},
	}
}

// TestSpecRoundTripGolden proves every field survives Write -> Parse and
// that the wire format matches the committed golden file.
func TestSpecRoundTripGolden(t *testing.T) {
	spec := fullSpec()
	var buf bytes.Buffer
	if err := WriteSpec(&buf, spec); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/spec_full.json")
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(golden) {
		t.Errorf("WriteSpec drifted from testdata/spec_full.json:\n%s", buf.String())
	}
	parsed, err := ParseSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, spec) {
		t.Errorf("round trip lost fields:\n got %+v\nwant %+v", parsed, spec)
	}
	// And the round-tripped spec resolves: every field is consumable.
	if _, _, err := parsed.Resolve(); err != nil {
		t.Fatalf("round-tripped spec does not resolve: %v", err)
	}
}

// TestSpecResolvedReproduces proves the -emit-spec contract: the resolved
// spec re-resolves to an identical RunSet, and resolving is idempotent.
func TestSpecResolvedReproduces(t *testing.T) {
	for name, spec := range map[string]*ExperimentSpec{
		"full": fullSpec(),
		"minimal": {
			Model:   "tiny",
			Cluster: "H20",
			SeqLen:  64,
			Stages:  2,
			Methods: []string{"1f1b"},
		},
		"tune": {
			Model:   "3B",
			Cluster: "A800",
			Methods: []string{"HelixPipe", "ZB1P"},
			Tune: &SpecTune{
				SeqLens:   []int{32768},
				Stages:    []int{2, 4},
				BudgetGB:  64,
				Objective: TuneObjectiveLatencyPerToken,
				Budget:    0.001,
			},
		},
	} {
		_, rs1, err := spec.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resolved, err := spec.Resolved()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, rs2, err := resolved.Resolve()
		if err != nil {
			t.Fatalf("%s: resolved spec does not resolve: %v", name, err)
		}
		if !reflect.DeepEqual(rs1, rs2) {
			t.Errorf("%s: resolved spec changes the RunSet:\n got %+v\nwant %+v", name, rs2, rs1)
		}
		again, err := resolved.Resolved()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(resolved, again) {
			t.Errorf("%s: Resolved is not idempotent", name)
		}
	}
}

// TestSpecResolvedCanonicalizes checks name canonicalization: lower-case
// method spellings come back in registry casing, defaults become explicit.
func TestSpecResolvedCanonicalizes(t *testing.T) {
	spec := &ExperimentSpec{Model: "tiny", Cluster: "H20", SeqLen: 64, Stages: 2,
		Methods: []string{"helixpipe", "zb1p"}}
	resolved, err := spec.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resolved.Methods, []string{"HelixPipe", "ZB1P"}) {
		t.Errorf("methods = %v, want canonical casing", resolved.Methods)
	}
	if resolved.Engine != SpecEngineSim || resolved.MicroBatchSize != 1 {
		t.Errorf("defaults not filled: engine=%q b=%d", resolved.Engine, resolved.MicroBatchSize)
	}
}

// TestSpecRunSetShape pins the RunSet enumeration: kinds, cell order, and
// method expansion.
func TestSpecRunSetShape(t *testing.T) {
	spec := &ExperimentSpec{
		Model: "tiny", Cluster: "H20", SeqLen: 64, Stages: 2,
		Methods: []string{"1F1B", "GPipe"},
		Sweep:   &SpecSweep{SeqLens: []int{64, 128}, Stages: []int{2}},
	}
	_, rs, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Kind != RunKindSweep {
		t.Errorf("kind = %q, want sweep", rs.Kind)
	}
	want := []RunCell{
		{Method: "1F1B", SeqLen: 64, Stages: 2},
		{Method: "GPipe", SeqLen: 64, Stages: 2},
		{Method: "1F1B", SeqLen: 128, Stages: 2},
		{Method: "GPipe", SeqLen: 128, Stages: 2},
	}
	if !reflect.DeepEqual(rs.Cells, want) {
		t.Errorf("cells = %+v, want %+v", rs.Cells, want)
	}

	all := &ExperimentSpec{Model: "tiny", Cluster: "H20", SeqLen: 64, Stages: 2,
		Methods: []string{"all"}}
	_, rsAll, err := all.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if rsAll.Kind != RunKindRun || len(rsAll.Cells) != len(Methods()) {
		t.Errorf("kind=%q cells=%d, want run with %d cells", rsAll.Kind, len(rsAll.Cells), len(Methods()))
	}
}

// TestSpecInvalid checks that bad specs fail eagerly with actionable
// messages — including the shared cluster listing (the one ResolveCluster
// code path every tool now goes through).
func TestSpecInvalid(t *testing.T) {
	cases := []struct {
		name string
		spec ExperimentSpec
		want string
	}{
		{"no model", ExperimentSpec{Cluster: "H20"}, "names no model"},
		{"unknown model", ExperimentSpec{Model: "70B", Cluster: "H20"}, "unknown model"},
		{"unknown cluster", ExperimentSpec{Model: "7B", Cluster: "B200"}, "DGX-A800x4"},
		{"unknown method", ExperimentSpec{Model: "7B", Cluster: "H20", Methods: []string{"pipedream"}}, "registered methods"},
		{"unknown engine", ExperimentSpec{Model: "7B", Cluster: "H20", Engine: "fpga"}, "unknown engine"},
		{"bad order", ExperimentSpec{Model: "7B", Cluster: "H20",
			Workload: &SpecWorkload{Dist: "uniform", Order: "random"}}, "unknown micro-batch order"},
		{"bad dist", ExperimentSpec{Model: "7B", Cluster: "H20",
			Workload: &SpecWorkload{Dist: "zipf"}}, "unknown length distribution"},
		{"workload without dist", ExperimentSpec{Model: "7B", Cluster: "H20",
			Workload: &SpecWorkload{}}, "dist or explicit shapes"},
		{"placement on flat cluster", ExperimentSpec{Model: "7B", Cluster: "H20",
			Placement: "greedy"}, "requires a topology cluster"},
		{"perturb on flat cluster", ExperimentSpec{Model: "7B", Cluster: "H20",
			Perturb: "slow=0x2.0"}, "requires a topology cluster"},
		{"infinite slow factor", ExperimentSpec{Model: "7B", Cluster: "DGX-H20x2",
			Perturb: "slow=0xInf"}, "perturb slow factor must be finite"},
		{"NaN jitter", ExperimentSpec{Model: "7B", Cluster: "DGX-H20x2",
			Perturb: "jitter=NaN"}, "perturb jitter factor must be finite"},
		{"bad placement strategy", ExperimentSpec{Model: "7B", Cluster: "DGX-H20x2",
			Placement: "hilbert"}, "unknown placement strategy"},
		{"sweep and tune", ExperimentSpec{Model: "7B", Cluster: "H20",
			Sweep: &SpecSweep{}, Tune: &SpecTune{}}, "pick one"},
		{"workload with seqlen sweep", ExperimentSpec{Model: "7B", Cluster: "H20",
			Workload: &SpecWorkload{Dist: "uniform"},
			Sweep:    &SpecSweep{SeqLens: []int{32768, 65536}}}, "discard the spec's workload"},
		{"tune orders without workload", ExperimentSpec{Model: "7B", Cluster: "H20",
			Tune: &SpecTune{Orders: []string{"longest"}}}, "without a workload"},
		{"tune placements on flat cluster", ExperimentSpec{Model: "7B", Cluster: "H20",
			Tune: &SpecTune{Placements: []string{"greedy"}}}, "without a cluster topology"},
		{"tune negative seqlen", ExperimentSpec{Model: "7B", Cluster: "H20",
			Tune: &SpecTune{SeqLens: []int{-1}}}, "non-positive sequence length"},
		{"tune bad objective", ExperimentSpec{Model: "7B", Cluster: "H20",
			Tune: &SpecTune{Objective: "goodput"}}, "unknown tune objective"},
		{"tune negative budget", ExperimentSpec{Model: "7B", Cluster: "H20",
			Tune: &SpecTune{Budget: -1}}, "non-negative"},
		{"numeric tune", ExperimentSpec{Model: "7B", Cluster: "H20", Engine: "numeric",
			Tune: &SpecTune{}}, "engine must be"},
		{"indivisible layers", ExperimentSpec{Model: "7B", Cluster: "H20", Stages: 5}, "divisible"},
		// Geometries whose token or byte counts overflow int64 used to run
		// and report zero tokens and stash, or fail as a negative stash.
		{"overflowing seq_len tokens", ExperimentSpec{Model: "7B", Cluster: "H20", SeqLen: 1 << 62, Stages: 2,
			Methods: []string{"1F1B", "HelixPipe", "ZB1P"}}, "token count (4 micro batches of 1 x 4611686018427387904 tokens) overflows int64"},
		{"overflowing micro batch tokens", ExperimentSpec{Model: "7B", Cluster: "H20", MicroBatchSize: 1 << 62, Stages: 2,
			Methods: []string{"1F1B", "HelixPipe", "ZB1P"}}, "token count (4 micro batches of 4611686018427387904 x 131072 tokens) overflows int64"},
		{"overflowing stash", ExperimentSpec{Model: "7B", Cluster: "H20", SeqLen: 1 << 50, Stages: 2,
			Methods: []string{"1F1B", "HelixPipe", "ZB1P"}}, "stash bound (4 micro batches x 32 layers"},
		// Plan builds allocate every stage program up front: a million
		// micro batches used to resolve and then run out of memory in the
		// build, and a million documents kept Resolve packing for minutes.
		{"micro batches past the cap", ExperimentSpec{Model: "7B", Cluster: "H20", SeqLen: 1, Stages: 2,
			MicroBatches: 1 << 20, Methods: []string{"1F1B"}}, "micro batches must be at most 4096, got 1048576"},
		{"tune run past the micro-batch cap", ExperimentSpec{Model: "7B", Cluster: "H20", SeqLen: 1, Stages: 2,
			MicroBatches: 1 << 20, Methods: []string{"1F1B"},
			Tune: &SpecTune{Stages: []int{2}, MicroBatches: []int{1 << 20}, BudgetGB: 80}}, "micro batches must be at most 4096"},
		{"packed micro batches past the cap", ExperimentSpec{Model: "7B", Cluster: "H20", Stages: 2, Methods: []string{"1F1B"},
			Workload: &SpecWorkload{Dist: "uniform", Docs: 16384, MinSeq: 1, MaxSeq: 4096}}, "micro batches must be at most 4096"},
		{"docs past the cap", ExperimentSpec{Model: "7B", Cluster: "H20", Stages: 2, Methods: []string{"1F1B"},
			Workload: &SpecWorkload{Dist: "uniform", Docs: 80000, MinSeq: 1, MaxSeq: 4096}}, "workload docs must be at most 16384, got 80000"},
		{"a million docs", ExperimentSpec{Model: "7B", Cluster: "H20", Stages: 2, Methods: []string{"1F1B"},
			Workload: &SpecWorkload{Dist: "uniform", Docs: 1000000, MinSeq: 1, MaxSeq: 4096}}, "workload docs must be at most 16384"},
		// Memory budgets in GB convert to int64 bytes: a negative one ran as
		// if unset, one past int64 wrapped to a negative (unlimited or
		// rejected late) byte count, and NaN passed every comparison.
		{"negative memory budget", ExperimentSpec{Model: "7B", Cluster: "H20", MemoryBudgetGB: -5},
			"memory_budget_gb must be a non-negative number, got -5"},
		{"memory budget past int64", ExperimentSpec{Model: "7B", Cluster: "H20", MemoryBudgetGB: 1e10},
			"memory_budget_gb 1e+10 does not fit int64 bytes"},
		{"NaN memory budget", ExperimentSpec{Model: "7B", Cluster: "H20", MemoryBudgetGB: math.NaN()},
			"memory_budget_gb must be a non-negative number, got NaN"},
		{"infinite memory budget", ExperimentSpec{Model: "7B", Cluster: "H20", MemoryBudgetGB: math.Inf(1)},
			"memory_budget_gb +Inf does not fit int64 bytes"},
		{"tune budget_gb past int64", ExperimentSpec{Model: "3B", Cluster: "A800", SeqLen: 32768, Stages: 2,
			Tune: &SpecTune{BudgetGB: 1e10}}, "tune budget_gb 1e+10 does not fit int64 bytes"},
		{"NaN tune budget_gb", ExperimentSpec{Model: "3B", Cluster: "A800", SeqLen: 32768, Stages: 2,
			Tune: &SpecTune{BudgetGB: math.NaN()}}, "tune budget_gb must be a non-negative number, got NaN"},
		{"negative tune budget_gb", ExperimentSpec{Model: "3B", Cluster: "A800", SeqLen: 32768, Stages: 2,
			Tune: &SpecTune{BudgetGB: math.Inf(-1)}}, "tune budget_gb must be a non-negative number, got -Inf"},
		{"NaN decode budget_gb", ExperimentSpec{Model: "7B", Cluster: "H20",
			Decode: &SpecDecode{ContextLen: 65536, BudgetGB: math.NaN()}}, "decode budget_gb must be a non-negative number, got NaN"},
		{"negative decode budget_gb", ExperimentSpec{Model: "7B", Cluster: "H20",
			Decode: &SpecDecode{ContextLen: 65536, BudgetGB: -1}}, "decode budget_gb must be a non-negative number, got -1"},
	}
	for _, tc := range cases {
		_, _, err := tc.spec.Resolve()
		if err == nil {
			t.Errorf("%s: Resolve succeeded, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

// TestParseSpecStrict checks that typos fail loudly instead of silently
// running defaults.
func TestParseSpecStrict(t *testing.T) {
	if _, err := ParseSpec(strings.NewReader(`{"model": "7B", "sequence": 1}`)); err == nil {
		t.Error("unknown field accepted")
	} else if !strings.Contains(err.Error(), "sequence") {
		t.Errorf("error %q does not name the unknown field", err)
	}
	if _, err := ParseSpec(strings.NewReader(`{"model": "7B"} {"model": "3B"}`)); err == nil {
		t.Error("trailing data accepted")
	}
	// Neither a session-wide HelixPipe override nor a cache switch is a
	// spec field: the registered variants name every HelixPipe
	// configuration, and Execute caches nothing.
	for _, field := range []string{`"helix": {"fold": 2}`, `"no_cache": true`} {
		_, err := ParseSpec(strings.NewReader(`{"model": "7B", ` + field + `}`))
		name := strings.Split(field, `"`)[1]
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+name+`"`) {
			t.Errorf("%s: err = %v, want an unknown-field error naming it", field, err)
		}
	}
}

// TestStreamIncremental asserts the grid runner's pool yields reports
// incrementally: the first job's report arrives while every later job is
// still blocked, and a blocked head job does not stop later jobs from
// running.
func TestStreamIncremental(t *testing.T) {
	// The pool must hold every job so blocked jobs cannot starve free ones.
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	// jobs returns one job per seq of 64, 128 and 256; the jobs marked
	// blocked wait on gate, and every job reports its seq on ran once it
	// runs.
	seqs := []int{64, 128, 256}
	jobs := func(gate <-chan struct{}, ran chan<- int, blocked ...bool) []func() (*Report, error) {
		out := make([]func() (*Report, error), len(seqs))
		for i, seq := range seqs {
			out[i] = func() (*Report, error) {
				if blocked[i] {
					<-gate
				}
				ran <- seq
				return &Report{SeqLen: seq}, nil
			}
		}
		return out
	}

	gate := make(chan struct{})
	next, stop := iter.Pull2(streamReports(jobs(gate, make(chan int, 3), false, true, true), nil, nil))
	defer stop()
	r, err, ok := next()
	if !ok || err != nil {
		close(gate)
		t.Fatalf("first job: ok=%v err=%v", ok, err)
	}
	// The first report arrived while seq 128 and 256 were still gated.
	close(gate)
	if r.SeqLen != 64 {
		t.Fatalf("first report seq=%d, want 64", r.SeqLen)
	}
	var rest []int
	for {
		r, err, ok := next()
		if !ok {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rest = append(rest, r.SeqLen)
	}
	if !reflect.DeepEqual(rest, []int{128, 256}) {
		t.Errorf("remaining jobs = %v, want [128 256]", rest)
	}

	// Only the head job blocks now: the later jobs run to completion before
	// it is released, and the yield order stays the job order.
	gate = make(chan struct{})
	defer close(gate)
	ran := make(chan int, 3)
	done := make(chan []int, 1)
	go func() {
		var order []int
		for r, err := range streamReports(jobs(gate, ran, true, false, false), nil, nil) {
			if err == nil {
				order = append(order, r.SeqLen)
			}
		}
		done <- order
	}()
	for n := 0; n < 2; n++ {
		select {
		case <-ran:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of the 2 later jobs ran while the head job was blocked", n)
		}
	}
	gate <- struct{}{}
	if order := <-done; !reflect.DeepEqual(order, seqs) {
		t.Errorf("yield order = %v, want [64 128 256]", order)
	}
}

// TestStreamErrorsDontAbort asserts failing cells yield their errors at
// their own grid positions and never stop the later cells: a derivation
// failure (p=3 cannot divide the tiny model's 4 layers) and a build failure
// (AdaPipe at a 1-byte budget) both pass through Execute.
func TestStreamErrorsDontAbort(t *testing.T) {
	spec := failingSweep()
	session, rs, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var i int
	for r, err := range session.Execute(spec) {
		if i >= len(rs.Cells) {
			t.Fatalf("Execute yielded more than the %d cells", len(rs.Cells))
		}
		c := rs.Cells[i]
		i++
		switch {
		case c.Stages == 3:
			if err == nil || !strings.Contains(err.Error(), "p=3") {
				t.Errorf("cell %d (%s p=3): err = %v, want the derivation failure", i-1, c.Method, err)
			}
		case c.Method == MethodAdaPipe:
			if err == nil || !strings.Contains(err.Error(), "found no partition") {
				t.Errorf("cell %d (AdaPipe): err = %v, want the build failure", i-1, err)
			}
		case err != nil:
			t.Errorf("cell %d (%s seq=%d): %v", i-1, c.Method, c.SeqLen, err)
		case r.Method != c.Method || r.SeqLen != c.SeqLen || r.Stages != c.Stages:
			t.Errorf("cell %d: report (%s, seq=%d, p=%d) out of grid order", i-1, r.Method, r.SeqLen, r.Stages)
		}
	}
	if i != len(rs.Cells) {
		t.Errorf("Execute yielded %d of %d cells", i, len(rs.Cells))
	}
}

// TestExecuteMatchesFlagsEquivalent is the acceptance criterion: the
// committed paper spec emits the same Report JSON as the equivalent
// hand-built session, and its resolved spec reproduces it bit-identically.
func TestExecuteMatchesFlagsEquivalent(t *testing.T) {
	spec, err := ParseSpecFile("examples/spec_driven/paper_128k.json")
	if err != nil {
		t.Fatal(err)
	}
	session, rs, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Kind != RunKindRun || len(rs.Cells) != 4 {
		t.Fatalf("runset = %+v, want 4 run cells", rs)
	}
	collect := func(src iter.Seq2[*Report, error]) []byte {
		t.Helper()
		var reports []*Report
		for r, err := range src {
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, r)
		}
		data, err := json.Marshal(reports)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	specJSON := collect(session.Execute(spec))

	// The equivalent option-chain invocation.
	flags, err := NewSession(Model3B(), A800Cluster(),
		WithSeqLen(131072), WithStages(8), WithMicroBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	var flagReports []*Report
	for _, m := range []Method{Method1F1B, MethodZB1P, MethodAdaPipe, MethodHelix} {
		r, err := flags.Simulate(m)
		if err != nil {
			t.Fatal(err)
		}
		flagReports = append(flagReports, r)
	}
	flagJSON, err := json.Marshal(flagReports)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(specJSON, flagJSON) {
		t.Error("spec-driven reports differ from the flag-equivalent session's")
	}

	// And the -emit-spec round trip is bit-identical too.
	resolved, err := spec.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	session2, _, err := resolved.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(collect(session2.Execute(resolved)), specJSON) {
		t.Error("resolved spec does not reproduce the original reports")
	}
}

// TestExecuteWorkloadSweepKeepsWorkload asserts a stages-only sweep over a
// workload spec runs every cell on the workload's per-micro-batch shapes
// instead of silently reverting to fixed shapes.
func TestExecuteWorkloadSweepKeepsWorkload(t *testing.T) {
	spec := &ExperimentSpec{
		Model: "tiny", Cluster: "H20", SeqLen: 64, Stages: 2,
		Methods: []string{"1F1B"},
		Workload: &SpecWorkload{Shapes: []Shape{
			{B: 1, S: 16}, {B: 1, S: 64}, {B: 1, S: 32}, {B: 1, S: 64},
		}},
		Sweep: &SpecSweep{Stages: []int{2, 4}},
	}
	session, rs, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Kind != RunKindSweep || len(rs.Cells) != 2 {
		t.Fatalf("runset = %+v, want a 2-cell stages sweep", rs)
	}
	var cells int
	for r, err := range session.Execute(spec) {
		if err != nil {
			t.Fatal(err)
		}
		cells++
		if len(r.MicroBatchTokens) != 4 {
			t.Errorf("p=%d: micro_batch_tokens = %v, workload was dropped", r.Stages, r.MicroBatchTokens)
		}
	}
	if cells != 2 {
		t.Errorf("cells = %d, want 2", cells)
	}
}

// TestExecuteTuneStreams checks the tune-kind Execute path: evaluated grid
// points stream as compact sim reports.
func TestExecuteTuneStreams(t *testing.T) {
	spec := &ExperimentSpec{
		Model: "3B", Cluster: "A800",
		Methods: []string{"1F1B", "HelixPipe"},
		Tune:    &SpecTune{SeqLens: []int{32768}, Stages: []int{2}},
	}
	session, rs, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Kind != RunKindTune || rs.Tune == nil {
		t.Fatalf("runset = %+v, want tune kind", rs)
	}
	var n int
	for r, err := range session.Execute(spec) {
		if err != nil {
			continue // pruned points are informational
		}
		n++
		if r.Sim == nil || r.Sim.TokensPerSecond <= 0 {
			t.Errorf("tune report %s has no sim metrics", r.Method)
		}
	}
	if n == 0 {
		t.Error("tune stream yielded no evaluated points")
	}
	// The collector agrees with the stream.
	res, err := session.Autotune(*rs.Tune)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != n {
		t.Errorf("Autotune evaluated %d, stream yielded %d", res.Evaluated, n)
	}
}

// TestTunePrunesOverflowingGeometry pins tune grid points too large to plan
// as geometry prunes, like an indivisible stage count. A stash that
// overflows int64 used to pass the memory estimate and rank at 0 tokens/s;
// a million micro batches used to pass both prunes and run out of memory
// in the plan build.
func TestTunePrunesOverflowingGeometry(t *testing.T) {
	cases := []struct {
		name string
		tune SpecTune
	}{
		{"overflowing stash", SpecTune{SeqLens: []int{1 << 62}, BudgetGB: 80}},
		{"micro batches past the cap", SpecTune{SeqLens: []int{1}, MicroBatches: []int{1 << 20}, BudgetGB: 80}},
	}
	for _, tc := range cases {
		spec := &ExperimentSpec{Model: "7B", Cluster: "A800", Stages: 2, Methods: []string{"1F1B"}, Tune: &tc.tune}
		session, rs, err := spec.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := session.Autotune(*rs.Tune)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.GridSize != 1 || res.Pruned["geometry"] != 1 || len(res.Points) != 0 {
			t.Errorf("%s: grid %d, pruned %v, %d points; want the one point pruned as geometry",
				tc.name, res.GridSize, res.Pruned, len(res.Points))
		}
	}
}

// TestExampleSpecsResolve is the spec-validation smoke: every committed
// *.json spec under examples/ must parse and resolve cleanly.
func TestExampleSpecsResolve(t *testing.T) {
	paths, err := filepath.Glob("examples/*/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example specs found")
	}
	for _, path := range paths {
		if strings.HasSuffix(path, ".golden.json") || strings.HasSuffix(path, ".trace.json") {
			// Pinned expected outputs, not specs; golden_test.go diffs them.
			continue
		}
		spec, err := ParseSpecFile(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if _, _, err := spec.Resolve(); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// TestResolveClusterListing pins the satellite fix: an unknown cluster
// reports one shared listing of every resolvable name.
func TestResolveClusterListing(t *testing.T) {
	_, _, err := ResolveCluster("B200")
	if err == nil {
		t.Fatal("unknown cluster accepted")
	}
	for _, want := range append(FlatClusterNames(), "DGX-A800x4", "DGX-H20x2", "PCIe-box") {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q misses %q", err, want)
		}
	}
}

// TestSpecNotes pins the trace-without-consumer advisory: a spec forcing
// trace while selecting no timeline/SVG/perfetto output is accepted but
// noted (the spans are recorded per cell and dropped); any span-consuming
// output silences the note.
func TestSpecNotes(t *testing.T) {
	base := ExperimentSpec{
		Model: "3B", Cluster: "A800", SeqLen: 8192, Stages: 2,
		Methods: []string{"1F1B"}, Trace: true,
	}

	spec := base
	if _, _, err := spec.Resolve(); err != nil {
		t.Fatalf("trace without output must still resolve: %v", err)
	}
	notes := spec.Notes()
	if len(notes) != 1 || !strings.Contains(notes[0], "trace is set but no timeline/svg/perfetto output") {
		t.Fatalf("want the dropped-spans note, got %v", notes)
	}

	for name, out := range map[string]SpecOutput{
		"timeline": {Timeline: true},
		"svg":      {SVG: "out.svg"},
		"perfetto": {Perfetto: "out.trace.json"},
	} {
		spec := base
		o := out
		spec.Output = &o
		if notes := spec.Notes(); len(notes) != 0 {
			t.Errorf("%s output consumes the spans, but Notes = %v", name, notes)
		}
	}

	// No trace, no note — and a broken spec yields no notes (resolution
	// errors first).
	spec = base
	spec.Trace = false
	if notes := spec.Notes(); len(notes) != 0 {
		t.Errorf("untraced spec has notes: %v", notes)
	}
	spec = base
	spec.Methods = []string{"no-such-method"}
	if notes := spec.Notes(); notes != nil {
		t.Errorf("unresolvable spec has notes: %v", notes)
	}
}

// TestSpecPerfettoOutputForcesTracing pins the resolution rule: selecting a
// Perfetto output implies span tracing, like timeline and SVG.
func TestSpecPerfettoOutputForcesTracing(t *testing.T) {
	spec := ExperimentSpec{
		Model: "3B", Cluster: "A800", SeqLen: 8192, Stages: 2,
		Methods: []string{"1F1B"},
		Output:  &SpecOutput{Perfetto: "out.trace.json"},
	}
	session, _, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var reports []*Report
	for r, err := range session.Execute(&spec) {
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
	}
	var buf bytes.Buffer
	if err := WritePerfettoTrace(&buf, reports); err != nil {
		t.Fatalf("perfetto output did not force tracing: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty trace")
	}
}

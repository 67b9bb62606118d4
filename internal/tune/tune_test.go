package tune

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/sched"
)

// a800Spec is the acceptance configuration: the paper's A800 testbed under
// a 64 GB per-GPU budget.
func a800Spec() Spec {
	return Spec{
		SeqLens:           []int{32768, 65536, 131072},
		Stages:            []int{2, 4, 8},
		MemoryBudgetBytes: 64 << 30,
	}
}

func TestAutotuneA800Budget(t *testing.T) {
	res, err := Run(model.Model3B(), costmodel.A800Cluster(), a800Spec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("expected a non-empty Pareto frontier on the A800 64GB budget")
	}
	if len(res.Best) == 0 {
		t.Fatal("expected best-per-seqlen picks")
	}
	// No returned configuration may exceed the budget: every point's plan
	// is checked on its own stash peak before it simulates.
	for _, set := range [][]Point{res.Points, res.Best, res.Frontier} {
		for _, p := range set {
			if p.PeakBytes > res.MemoryBudgetBytes {
				t.Errorf("%s: peak %d exceeds budget %d",
					p.Candidate, p.PeakBytes, res.MemoryBudgetBytes)
			}
		}
	}
	// Long sequences at small pipeline sizes must actually be pruned on
	// this budget: the search is not a no-op.
	if res.Pruned[PruneMemory] == 0 {
		t.Error("expected memory-budget pruning on a 64GB A800 budget")
	}
}

func TestAutotuneMemoizationBeatsNaiveGrid(t *testing.T) {
	res, err := Run(model.Model3B(), costmodel.A800Cluster(), a800Spec())
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance criterion: the memoized search issues strictly fewer
	// cost-model evaluations than the naive grid size. Cost books depend
	// only on the micro-batch shape, so the method x stages cross product
	// shares them.
	if res.CostModelEvals >= res.GridSize {
		t.Errorf("memoization ineffective: %d cost-model evals on a grid of %d",
			res.CostModelEvals, res.GridSize)
	}
	if res.CostModelEvals == 0 {
		t.Error("expected at least one cost-model evaluation")
	}
	if max := len(a800Spec().SeqLens); res.CostModelEvals > max {
		t.Errorf("cost-model evals %d exceed the %d distinct micro-batch shapes",
			res.CostModelEvals, max)
	}
}

func TestAutotuneFrontierIsPareto(t *testing.T) {
	res, err := Run(model.Model3B(), costmodel.A800Cluster(), a800Spec())
	if err != nil {
		t.Fatal(err)
	}
	f := res.Frontier
	for i := 1; i < len(f); i++ {
		if f[i].PeakBytes <= f[i-1].PeakBytes {
			t.Errorf("frontier not ascending in peak memory at %d: %d <= %d",
				i, f[i].PeakBytes, f[i-1].PeakBytes)
		}
		if f[i].TokensPerSecond <= f[i-1].TokensPerSecond {
			t.Errorf("frontier not ascending in throughput at %d: %g <= %g",
				i, f[i].TokensPerSecond, f[i-1].TokensPerSecond)
		}
	}
	// No evaluated point may dominate a frontier point.
	for _, p := range res.Points {
		for _, q := range f {
			if p.PeakBytes <= q.PeakBytes && p.TokensPerSecond > q.TokensPerSecond {
				t.Errorf("%s dominates frontier point %s", p.Candidate, q.Candidate)
			}
		}
	}
}

func TestAutotuneBestPerSeqLen(t *testing.T) {
	spec := a800Spec()
	res, err := Run(model.Model3B(), costmodel.A800Cluster(), spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, p := range res.Best {
		if seen[p.SeqLen] {
			t.Errorf("duplicate best pick for seqlen %d", p.SeqLen)
		}
		seen[p.SeqLen] = true
		// The pick must beat every other evaluated point of its seqlen.
		for _, q := range res.Points {
			if q.SeqLen == p.SeqLen && q.TokensPerSecond > p.TokensPerSecond {
				t.Errorf("seq=%d: %s beats the best pick %s", p.SeqLen, q.Candidate, p.Candidate)
			}
		}
	}
}

func TestAutotuneTinyBudgetPrunesEverything(t *testing.T) {
	spec := a800Spec()
	spec.MemoryBudgetBytes = 1 << 30 // smaller than the model states alone
	res, err := Run(model.Model3B(), costmodel.A800Cluster(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 0 {
		t.Errorf("expected no feasible points under a 1GB budget, got %d", res.Evaluated)
	}
	if len(res.Frontier) != 0 || len(res.Best) != 0 {
		t.Error("expected empty frontier and best picks under a 1GB budget")
	}
	if res.Pruned[PruneMemory]+res.Pruned[PruneGeometry] != res.GridSize {
		t.Errorf("pruned counts %v do not account for the whole grid %d", res.Pruned, res.GridSize)
	}
}

func TestAutotuneGeometryPruning(t *testing.T) {
	// 16 layers are not divisible by 3 stages: every method x seqlen cell
	// of that column must land in the geometry count.
	spec := Spec{SeqLens: []int{32768}, Stages: []int{3, 4}}
	res, err := Run(model.Model3B(), costmodel.A800Cluster(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := len(sched.Methods())
	if res.Pruned[PruneGeometry] != want {
		t.Errorf("geometry pruned = %d, want %d", res.Pruned[PruneGeometry], want)
	}
}

func TestAutotuneDefaultsAndDedupe(t *testing.T) {
	spec := Spec{
		Methods: []sched.Method{sched.Method1F1B, sched.Method1F1B},
		SeqLens: []int{32768, 32768},
		Stages:  []int{4, 4},
	}
	res, err := Run(model.Model3B(), costmodel.H20Cluster(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.GridSize != 1 {
		t.Errorf("duplicated axes should dedupe to one grid point, got %d", res.GridSize)
	}
	if res.Evaluated != 1 {
		t.Errorf("evaluated = %d, want 1", res.Evaluated)
	}
	// m defaulted to 2p.
	if got := res.Points[0].MicroBatches; got != 8 {
		t.Errorf("micro batches defaulted to %d, want 8", got)
	}
	if got := res.Points[0].MicroBatchSize; got != 1 {
		t.Errorf("micro batch size defaulted to %d, want 1", got)
	}
}

func TestAutotuneCanonicalizesMethodNames(t *testing.T) {
	run := func(name string) *Result {
		res, err := Run(model.Model3B(), costmodel.A800Cluster(), Spec{
			Methods:           []sched.Method{sched.Method(name)},
			SeqLens:           []int{65536},
			Stages:            []int{4},
			MemoryBudgetBytes: 64 << 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	canonical, lower := run("HelixPipe"), run("helixpipe")
	if len(lower.Points) != 1 || len(canonical.Points) != 1 {
		t.Fatalf("want one point each, got %d/%d", len(canonical.Points), len(lower.Points))
	}
	if lower.Points[0].Method != sched.MethodHelix {
		t.Errorf("lowercase spelling not canonicalized: %q", lower.Points[0].Method)
	}
	// The case-variant spelling must count the same model states (HelixPipe
	// holds the embedding twice), not fall through to the default.
	if lower.Points[0].PeakBytes != canonical.Points[0].PeakBytes {
		t.Errorf("peak differs by spelling: %d vs %d",
			lower.Points[0].PeakBytes, canonical.Points[0].PeakBytes)
	}
	// Case variants of one method dedupe to one grid point.
	res, err := Run(model.Model3B(), costmodel.A800Cluster(), Spec{
		Methods: []sched.Method{"1F1B", "1f1b"},
		SeqLens: []int{32768},
		Stages:  []int{4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GridSize != 1 {
		t.Errorf("case variants should dedupe to one grid point, got %d", res.GridSize)
	}
}

func TestAutotuneSpecValidation(t *testing.T) {
	cl := costmodel.H20Cluster()
	bad := []Spec{
		{},
		{SeqLens: []int{4096}},
		{SeqLens: []int{-1}, Stages: []int{2}},
		{SeqLens: []int{4096}, Stages: []int{2}, MemoryBudgetBytes: -1},
		{SeqLens: []int{4096}, Stages: []int{2}, Workers: -1},
		{SeqLens: []int{4096}, Stages: []int{2}, MicroBatchSizes: []int{0}},
		{SeqLens: []int{4096}, Stages: []int{2}, MicroBatches: []int{-2}},
		{SeqLens: []int{4096}, Stages: []int{2}, Budget: -1},
		{SeqLens: []int{4096}, Stages: []int{2}, Objective: "goodput"},
	}
	for i, spec := range bad {
		if _, err := Run(model.Model3B(), cl, spec); err == nil {
			t.Errorf("spec %d: expected a validation error", i)
		}
	}
	if _, err := Run(model.Model3B(), cl, Spec{
		SeqLens: []int{4096}, Stages: []int{2},
		Methods: []sched.Method{"no-such-method"},
	}); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("unknown method: got %v", err)
	}
}

// TestAutotuneHostileWorkerCount asks for more workers than any process
// could run: the pool is never wider than the grid, so the search runs.
func TestAutotuneHostileWorkerCount(t *testing.T) {
	res, err := Run(model.Model3B(), costmodel.A800Cluster(), Spec{
		SeqLens: []int{4096},
		Stages:  []int{2},
		Workers: 1 << 62,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != res.GridSize {
		t.Errorf("evaluated %d of %d points (pruned %v, errors %v)", res.Evaluated, res.GridSize, res.Pruned, res.Errors)
	}
}

func TestAutotuneBuildErrorsAreCountedNotFatal(t *testing.T) {
	// AdaPipe with m < p is unbuildable in this repo's scheduler; the run
	// must count it and keep the other method's report.
	spec := Spec{
		Methods:      []sched.Method{sched.MethodAdaPipe, sched.Method1F1B},
		SeqLens:      []int{8192},
		Stages:       []int{4},
		MicroBatches: []int{2},
	}
	res, err := Run(model.Model3B(), costmodel.H20Cluster(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated == 0 {
		t.Fatal("expected surviving evaluations")
	}
	total := res.Evaluated
	for _, n := range res.Pruned {
		total += n
	}
	if total != res.GridSize {
		t.Errorf("evaluated %d + pruned %v != grid %d", res.Evaluated, res.Pruned, res.GridSize)
	}
}

func TestResultSerializationAndTables(t *testing.T) {
	res, err := Run(model.Model3B(), costmodel.A800Cluster(), Spec{
		SeqLens:           []int{32768},
		Stages:            []int{4},
		MemoryBudgetBytes: 64 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Result
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.GridSize != res.GridSize || len(decoded.Frontier) != len(res.Frontier) {
		t.Error("JSON round trip lost fields")
	}
	if !strings.Contains(string(data), "pruned") {
		t.Error("serialized result misses the pruned counts")
	}

	if s := res.Summary(); !strings.Contains(s, "grid") {
		t.Errorf("summary misses accounting: %q", s)
	}
	if s := res.FrontierTable(); !strings.Contains(s, "method") {
		t.Errorf("frontier table misses header: %q", s)
	}
	if s := res.BestTable(); !strings.Contains(s, "tokens/s") {
		t.Errorf("best table misses header: %q", s)
	}

	var buf bytes.Buffer
	if err := WriteCSV(&buf, res.Points); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(res.Points)+1 {
		t.Errorf("CSV rows = %d, want %d", len(lines), len(res.Points)+1)
	}
	if !strings.HasPrefix(lines[0], "method,workload,order,seq_len") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

func TestAutotuneObjectiveLatency(t *testing.T) {
	spec := a800Spec()
	spec.Objective = ObjectiveLatencyPerToken
	res, err := Run(model.Model3B(), costmodel.A800Cluster(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		want := p.IterationSeconds / float64(p.TokensPerIteration)
		if diff := p.SecondsPerToken - want; diff > want*1e-9 || diff < -want*1e-9 {
			t.Errorf("%s: seconds/token %g != iteration/tokens %g", p.Candidate, p.SecondsPerToken, want)
		}
	}
	// The best pick per scenario minimizes seconds per token.
	for _, p := range res.Best {
		for _, q := range res.Points {
			if q.SeqLen == p.SeqLen && q.Workload == p.Workload && q.SecondsPerToken < p.SecondsPerToken {
				t.Errorf("seq=%d: %s undercuts the best pick %s", p.SeqLen, q.Candidate, p.Candidate)
			}
		}
	}
	// The frontier still ascends in the objective as peak memory grows.
	for i := 1; i < len(res.Frontier); i++ {
		if res.Frontier[i].SecondsPerToken >= res.Frontier[i-1].SecondsPerToken {
			t.Errorf("frontier not descending in latency at %d", i)
		}
	}
}

func TestAutotuneBudgetEarlyStop(t *testing.T) {
	full, err := Run(model.Model3B(), costmodel.A800Cluster(), a800Spec())
	if err != nil {
		t.Fatal(err)
	}
	if full.StoppedEarly {
		t.Fatal("full run must not carry the early-stop marker")
	}
	// Any feasible configuration clears one token per second: the stream
	// must stop at its first point.
	spec := a800Spec()
	spec.Budget = 1
	res, err := Run(model.Model3B(), costmodel.A800Cluster(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.StoppedEarly {
		t.Fatal("expected the early-stop marker on a trivially met target")
	}
	if res.Evaluated == 0 || res.Evaluated >= full.Evaluated {
		t.Errorf("early stop evaluated %d points, full run %d", res.Evaluated, full.Evaluated)
	}
	// An unreachable target searches the whole grid without the marker.
	spec.Budget = 1e18
	res, err = Run(model.Model3B(), costmodel.A800Cluster(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoppedEarly || res.Evaluated != full.Evaluated {
		t.Errorf("unreachable target: stopped=%v evaluated=%d, want full %d",
			res.StoppedEarly, res.Evaluated, full.Evaluated)
	}
}

func TestAutotuneBudgetDirectionFollowsObjective(t *testing.T) {
	// Under the latency objective the target is an upper bound: a generous
	// seconds-per-token allowance stops at the first point, an impossible
	// one never does.
	spec := a800Spec()
	spec.Objective = ObjectiveLatencyPerToken
	spec.Budget = 1e6
	res, err := Run(model.Model3B(), costmodel.A800Cluster(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.StoppedEarly {
		t.Error("a 1e6 s/token allowance should stop the search immediately")
	}
	spec.Budget = 1e-12
	res, err = Run(model.Model3B(), costmodel.A800Cluster(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoppedEarly {
		t.Error("a 1e-12 s/token target is unreachable; the marker must stay clear")
	}
}

// TestPlacementPruneReasons pins how a topology-bound point's failure is
// counted: a plan that cannot be built is PruneBuild with the build's own
// error, whether or not the point could be placed; a buildable point wider
// than the topology is PrunePlacement; a point whose every placed plan is
// over budget is PruneMemory; and a point whose every placed plan fails
// validation is PruneSim with the validator's message.
func TestPlacementPruneReasons(t *testing.T) {
	topo, ok := cluster.PresetByName("DGX-H20x2")
	if !ok {
		t.Fatal("no DGX-H20x2 preset")
	}
	s, err := NewSearch(model.Model3B(), costmodel.H20Cluster(), Spec{SeqLens: []int{16384}, Stages: []int{4}, Cluster: &topo})
	if err != nil {
		t.Fatal(err)
	}
	broken := errors.New("no partition fits")
	type builder = func(*cluster.Topology, []int) (*sched.Plan, string, error)
	fails := func(*cluster.Topology, []int) (*sched.Plan, string, error) { return nil, PruneBuild, broken }
	builds := func(*cluster.Topology, []int) (*sched.Plan, string, error) { return &sched.Plan{}, "", nil }
	overBudget := func(*cluster.Topology, []int) (*sched.Plan, string, error) {
		return nil, PruneMemory, errors.New("peak over budget")
	}
	invalid := func(*cluster.Topology, []int) (*sched.Plan, string, error) {
		return nil, PruneSim, errors.New("sim: invalid plan: stage 0 frees what it never stashed")
	}
	wide := topo.Devices() + 1
	for _, c := range []struct {
		name   string
		stages int
		build  builder
		want   string
	}{
		{"placeable, unbuildable", 4, fails, PruneBuild},
		{"too wide, unbuildable", wide, fails, PruneBuild},
		{"too wide, buildable", wide, builds, PrunePlacement},
		{"too wide, invalid", wide, invalid, PrunePlacement},
		{"placeable, over budget", 4, overBudget, PruneMemory},
		{"placeable, invalid", 4, invalid, PruneSim},
	} {
		_, _, reason, err := s.simulatePlacements(c.stages, sched.NewTrafficMatrix(c.stages), c.build)
		if reason != c.want || err == nil {
			t.Errorf("%s: reason %q (err %v), want %q", c.name, reason, err, c.want)
		}
		if c.want == PruneBuild && err != broken {
			t.Errorf("%s: err %v, want the build's own error", c.name, err)
		}
		if c.want == PruneSim && !strings.Contains(err.Error(), "sim: invalid plan: ") {
			t.Errorf("%s: err %v, want the validator's message", c.name, err)
		}
	}
}

package decode

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/costmodel"
)

func gqaHeads(q, k, d int) HeadConfig {
	return HeadConfig{QueryHeads: q, KVHeads: k, HeadDim: d}
}

func mlaHeads(q, d, c int) HeadConfig {
	return HeadConfig{QueryHeads: q, HeadDim: d, MLA: true, LatentDim: c}
}

func TestShardingsMLACollapsesToPureKVP(t *testing.T) {
	// MLA: effective K = 1, so TPA must be 1 and the lattice is the single
	// pure-KVP point.
	got := Shardings(8, mlaHeads(32, 128, 512))
	want := []Sharding{{KVP: 8, TPA: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MLA lattice = %v, want %v", got, want)
	}
}

func TestShardingsGQARespectsTPALimit(t *testing.T) {
	// GQA with K=4 on 8 GPUs: TPA can be 1, 2 or 4 (never 8 > K).
	got := Shardings(8, gqaHeads(32, 4, 128))
	want := []Sharding{{KVP: 8, TPA: 1}, {KVP: 4, TPA: 2}, {KVP: 2, TPA: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GQA lattice = %v, want %v", got, want)
	}
	for _, s := range got {
		if s.TPA > 4 {
			t.Errorf("%s violates TPA <= K", s)
		}
		if s.GPUs() != 8 {
			t.Errorf("%s does not use all 8 GPUs", s)
		}
	}
}

func TestShardingsMatchVLLMHelixTable(t *testing.T) {
	// The vLLM helix integration shape: TP=4 with DCP=4 on an MLA model
	// resolves to TPA=1, KVP=4 — the only legal point of the 4-GPU lattice.
	got := Shardings(4, mlaHeads(16, 128, 512))
	want := []Sharding{{KVP: 4, TPA: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("vLLM-shape lattice = %v, want %v", got, want)
	}
}

func TestShardingCheckErrors(t *testing.T) {
	h := gqaHeads(32, 4, 128)
	cases := []struct {
		name string
		s    Sharding
		n    int
	}{
		{"zero tpa", Sharding{KVP: 8, TPA: 0}, 8},
		{"over budget", Sharding{KVP: 8, TPA: 2}, 8},
		{"tpa over k", Sharding{KVP: 1, TPA: 8}, 8},
		{"uneven heads", Sharding{KVP: 2, TPA: 3}, 6},
		{"uneven gpus", Sharding{KVP: 3, TPA: 1}, 8},
	}
	for _, c := range cases {
		if err := c.s.Check(c.n, h); err == nil {
			t.Errorf("%s: Check(%d, gqa k=4) = nil, want error", c.name, c.n)
		}
	}
	if err := (Sharding{KVP: 4, TPA: 2}).Check(8, h); err != nil {
		t.Errorf("valid sharding rejected: %v", err)
	}
}

func testScenario(h HeadConfig) Scenario {
	return Scenario{
		Model: "test", Layers: 32, Hidden: h.QueryHeads * h.HeadDim, Vocab: 32000,
		Heads: h, ContextLen: 1 << 20, DecodeTokens: 8, Sessions: 4, GPUs: 8,
	}
}

func testParams() CostParams {
	return CostParams{GPU: costmodel.H20(), Link: costmodel.LinkSpec{
		Class: "nvlink", GBps: 450, LatencySec: 6e-6,
	}}
}

func TestKVBytesPerDevice(t *testing.T) {
	sc := testScenario(gqaHeads(32, 8, 128))
	sc.ContextLen = 1 << 10
	sc.DecodeTokens = 0
	sc.DecodeTokens = 1024 // final cache length 2048

	// Pure KVP: each of 8 ranks holds 2048/8 = 256 tokens of all 8 KV
	// heads: 4 sessions * 256 * 2*8*128*2 B * 32 layers.
	got := sc.KVBytesPerDevice(Sharding{KVP: 8, TPA: 1})
	want := int64(4) * 256 * (2 * 8 * 128 * 2) * 32
	if got != want {
		t.Fatalf("KVP=8 kv bytes = %d, want %d", got, want)
	}

	// TPA=8: each rank holds the full 2048 tokens of one head — the same
	// per-device footprint under the full-use lattice.
	got = sc.KVBytesPerDevice(Sharding{KVP: 1, TPA: 8})
	if got != want {
		t.Fatalf("TPA=8 kv bytes = %d, want %d (full-use lattice is footprint-neutral)", got, want)
	}

	// MLA with TPA>1 duplicates the latent: TPA=2 halves the sequence
	// shard vs KVP=8... no — KVP=4 holds 2048/4 tokens of the whole
	// latent, so the footprint doubles versus KVP=8.
	mla := testScenario(mlaHeads(32, 128, 512))
	mla.ContextLen = 1 << 10
	mla.DecodeTokens = 1024
	pure := mla.KVBytesPerDevice(Sharding{KVP: 8, TPA: 1})
	dup := mla.KVBytesPerDevice(Sharding{KVP: 4, TPA: 2})
	if dup != 2*pure {
		t.Fatalf("MLA TPA=2 kv bytes = %d, want 2x pure KVP (%d)", dup, 2*pure)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	sp := Spec{Scenario: testScenario(gqaHeads(32, 8, 128)), Params: testParams()}
	a := sp.Simulate(Sharding{KVP: 4, TPA: 2})
	b := sp.Simulate(Sharding{KVP: 4, TPA: 2})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Simulate is not deterministic")
	}
	if a.SecondsPerToken <= 0 || a.TokensPerSecond <= 0 || a.TTFTSeconds <= 0 {
		t.Fatalf("degenerate point: %+v", a)
	}
	if a.Latency.P95Seconds < a.Latency.P50Seconds || a.Latency.MaxSeconds < a.Latency.P95Seconds {
		t.Fatalf("latency percentiles out of order: %+v", a.Latency)
	}
	// The cache grows, so the last token is strictly slower than the first.
	if last, first := a.TokenSeconds[len(a.TokenSeconds)-1], a.TokenSeconds[0]; last <= first {
		t.Fatalf("token latency did not grow with the cache: first %g, last %g", first, last)
	}
}

// stepCostRef is stepCost as it was before its attention term moved into
// attentionSeconds, kept as the reference that term is compared against.
func stepCostRef(sc Scenario, sh Sharding, s int, p CostParams) StepCost {
	p = p.WithDefaults()
	b := float64(sc.Sessions)
	h := float64(sc.Hidden)
	n := float64(sc.GPUs)
	dh := float64(sc.Heads.HeadDim)
	cf := p.ComputeFactor

	var c StepCost

	linParams := float64(sc.linParams()) / n
	linFLOPs := 2 * b * linParams
	linBytes := linParams * FP16Bytes
	c.LinearSeconds = cf * math.Max(linFLOPs/p.gemmFLOPS(), linBytes/p.hbmBps())

	ctxPerRank := float64(ceilDiv(s, sh.KVP))
	qPerRank := float64(sc.Heads.QueryHeads) / float64(sh.TPA)
	attnFLOPs := 4 * b * qPerRank * ctxPerRank * dh
	effK := sc.Heads.EffectiveKVHeads()
	kvPerRank := effK / sh.TPA
	if kvPerRank < 1 {
		kvPerRank = 1
	}
	kvReadBytes := b * ctxPerRank * float64(sc.Heads.kvBytesPerToken()) * float64(kvPerRank) / float64(effK)
	c.AttentionSeconds = cf * math.Max(attnFLOPs/p.attnFLOPS(), kvReadBytes/p.hbmBps())

	if sh.KVP > 1 {
		qBytes := b * qPerRank * dh * FP16Bytes
		c.AllGatherSeconds = p.Link.Ring(qBytes, sh.KVP)
		oBytes := b * qPerRank * (dh + 2) * FP16Bytes
		c.AllToAllSeconds = p.Link.Ring(oBytes, sh.KVP)
	}
	if sc.GPUs > 1 {
		actBytes := b * h * FP16Bytes
		c.AllReduceSeconds = 2 * p.allReduce(actBytes, sc.GPUs)
	}

	c.LinearSeconds *= float64(sc.Layers)
	c.AttentionSeconds *= float64(sc.Layers)
	c.AllGatherSeconds *= float64(sc.Layers)
	c.AllToAllSeconds *= float64(sc.Layers)
	c.AllReduceSeconds *= float64(sc.Layers)

	headFLOPs := 2 * b * h * float64(sc.Vocab) / n
	headBytes := h * float64(sc.Vocab) * FP16Bytes / n
	c.HeadSeconds = cf * math.Max(headFLOPs/p.gemmFLOPS(), headBytes/p.hbmBps())
	return c
}

// simulateRef is Simulate as it was before it priced the step once: every
// token prices the whole step at its cache length with stepCostRef.
func simulateRef(sp Spec, sh Sharding) Point {
	sp = sp.WithDefaults()
	sc := sp.Scenario
	pt := Point{
		Sharding:             sh,
		TTFTSeconds:          sc.TTFTSeconds(sh, sp.Params),
		TokenSeconds:         make([]float64, 0, sc.DecodeTokens),
		KVBytesPerDevice:     sc.KVBytesPerDevice(sh),
		WeightBytesPerDevice: sc.WeightBytesPerDevice(),
	}
	var total, compute float64
	for t := 0; t < sc.DecodeTokens; t++ {
		c := stepCostRef(sc, sh, sc.ContextLen+t, sp.Params)
		step := c.Total()
		pt.TokenSeconds = append(pt.TokenSeconds, step)
		total += step
		compute += c.ComputeSeconds()
		pt.Comm.AllGatherSeconds += c.AllGatherSeconds
		pt.Comm.AllToAllSeconds += c.AllToAllSeconds
		pt.Comm.AllReduceSeconds += c.AllReduceSeconds
	}
	n := float64(sc.DecodeTokens)
	pt.Latency = distOf(pt.TokenSeconds)
	pt.SecondsPerToken = total / n
	if total > 0 {
		pt.TokensPerSecond = float64(sc.Sessions) * n / total
	}
	pt.Comm.AllGatherSeconds /= n
	pt.Comm.AllToAllSeconds /= n
	pt.Comm.AllReduceSeconds /= n
	pt.Comm.TotalSeconds = pt.Comm.AllGatherSeconds + pt.Comm.AllToAllSeconds + pt.Comm.AllReduceSeconds
	pt.ComputeSeconds = compute / n
	return pt
}

// TestSimulateMatchesPerTokenStepCost pins Simulate bit for bit to pricing
// the whole step at every token with the reference step, and stepCost to
// the reference at the context length, on GQA and MLA heads, every sharding of
// the lattice plus a what-if TPA wider than K, a context that no KVP
// divides (so each rank's shard grows mid-run), a compute factor, and a
// layer count that is not a power of two (so a reordered product rounds
// differently).
func TestSimulateMatchesPerTokenStepCost(t *testing.T) {
	for _, h := range []HeadConfig{gqaHeads(32, 8, 128), gqaHeads(32, 2, 128), mlaHeads(32, 128, 512)} {
		for _, cf := range []float64{0, 1.3} {
			sc := testScenario(h)
			sc.Layers, sc.ContextLen, sc.DecodeTokens, sc.GPUs = 27, 1<<16+5, 37, 16
			sp := Spec{Scenario: sc, Params: testParams()}
			sp.Params.ComputeFactor = cf
			for _, sh := range append(Shardings(sc.GPUs, h), Sharding{KVP: 1, TPA: 16}, Sharding{KVP: 16, TPA: 1}) {
				if got, want := sc.stepCost(sh, sc.ContextLen, sp.Params), stepCostRef(sc, sh, sc.ContextLen, sp.Params); got != want {
					t.Errorf("heads %+v, factor %g, %s: stepCost %+v, want %+v", h, cf, sh, got, want)
				}
				got, want := sp.Simulate(sh), simulateRef(sp, sh)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("heads %+v, factor %g, %s: Simulate differs from per-token pricing:\n got %+v\nwant %+v",
						h, cf, sh, got, want)
				}
			}
		}
	}
}

// TestMLAPureKVPStrictlyWins is the acceptance test: for an MLA-style
// config (effective K=1), pure KVP strictly beats every TPA>1 sharding on
// simulated latency per token at >= 1M context. TPA>1 duplicates the
// latent KV, so each rank reads TPA times more cache bytes from HBM.
func TestMLAPureKVPStrictlyWins(t *testing.T) {
	sp := Spec{Scenario: testScenario(mlaHeads(32, 128, 512)), Params: testParams()}
	if sp.Scenario.ContextLen < 1<<20 {
		t.Fatalf("acceptance requires >= 1M context, got %d", sp.Scenario.ContextLen)
	}
	pure := sp.Simulate(Sharding{KVP: 8, TPA: 1})
	for _, tpa := range []int{2, 4, 8} {
		sh := Sharding{KVP: 8 / tpa, TPA: tpa}
		pt := sp.Simulate(sh)
		if pure.SecondsPerToken >= pt.SecondsPerToken {
			t.Errorf("MLA pure KVP (%.4g s/token) does not strictly beat %s (%.4g s/token)",
				pure.SecondsPerToken, sh, pt.SecondsPerToken)
		}
	}
}

// TestGQABestRespectsTPALimit is the second acceptance clause: the
// search's best point respects TPA <= K on every GQA grid cell.
func TestGQABestRespectsTPALimit(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		for _, k := range []int{1, 2, 4, 8} {
			sc := testScenario(gqaHeads(32, k, 128))
			sc.GPUs = n
			// Keep the grid within budget at 16 GPUs too.
			sc.ContextLen = 1 << 18
			s, err := NewSearch(Spec{Scenario: sc, Params: testParams()})
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			if rep.Best == nil {
				t.Fatalf("n=%d k=%d: no best point", n, k)
			}
			if rep.Best.Sharding.TPA > k {
				t.Errorf("n=%d k=%d: best %s violates TPA <= K", n, k, rep.Best.Sharding)
			}
			for _, p := range rep.Points {
				if p.Sharding.TPA > k {
					t.Errorf("n=%d k=%d: evaluated %s violates TPA <= K", n, k, p.Sharding)
				}
			}
		}
	}
}

func TestSearchKVMemoryPrune(t *testing.T) {
	// A context so long the KV cache cannot fit any H20 even fully sharded.
	sc := testScenario(gqaHeads(32, 8, 128))
	sc.ContextLen = 1 << 26
	s, err := NewSearch(Spec{Scenario: sc, Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evaluated != 0 {
		t.Fatalf("evaluated %d shardings, want all pruned", rep.Evaluated)
	}
	if rep.Pruned[PruneKVMemory] != rep.GridSize {
		t.Fatalf("pruned %v of grid %d, want all %s", rep.Pruned, rep.GridSize, PruneKVMemory)
	}
}

// TestSearchPointsMatchRun pins that streaming a search and running it
// agree: Points yields the evaluated shardings in the order Run's report
// lists them, with the same values, and the report read after draining the
// stream equals Run's. Callers that time each streamed point and then read
// the ranked report rely on this.
func TestSearchPointsMatchRun(t *testing.T) {
	spec := Spec{Scenario: testScenario(gqaHeads(32, 8, 128)), Params: testParams()}
	streamed, err := NewSearch(spec)
	if err != nil {
		t.Fatal(err)
	}
	var points []Point
	for pt, err := range streamed.Points() {
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, pt)
	}
	ran, err := NewSearch(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ran.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) < 2 {
		t.Fatalf("report has %d points; the order check needs several", len(rep.Points))
	}
	if !reflect.DeepEqual(points, rep.Points) {
		t.Fatalf("Points order/values differ from Run's report:\n got %v\nwant %v", shardingsOf(points), shardingsOf(rep.Points))
	}
	if !reflect.DeepEqual(streamed.Result(), rep) {
		t.Error("the report after draining Points differs from Run's")
	}
}

func shardingsOf(points []Point) []Sharding {
	out := make([]Sharding, len(points))
	for i, p := range points {
		out[i] = p.Sharding
	}
	return out
}

func TestSearchExplicitAxesGeometryPrune(t *testing.T) {
	sc := testScenario(gqaHeads(32, 4, 128))
	s, err := NewSearch(Spec{
		Scenario: sc, Params: testParams(),
		KVP: []int{1, 2, 8}, TPA: []int{1, 8}, // tpa=8 > K=4 is geometry-pruned
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.GridSize != 6 {
		t.Fatalf("grid size = %d, want 6", rep.GridSize)
	}
	if rep.Pruned[PruneGeometry] == 0 {
		t.Fatal("expected geometry prunes for TPA > K")
	}
	for _, p := range rep.Points {
		if err := p.Sharding.Check(sc.GPUs, sc.Heads); err != nil {
			t.Errorf("evaluated invalid sharding: %v", err)
		}
	}
}

func TestObjectivesAgreeAtFixedBatch(t *testing.T) {
	// latency_per_token and throughput are reciprocal at a fixed batch, so
	// both objectives must pick the same best sharding.
	sc := testScenario(gqaHeads(32, 8, 128))
	best := map[string]Sharding{}
	for _, obj := range []string{ObjectiveLatencyPerToken, ObjectiveThroughput} {
		s, err := NewSearch(Spec{Scenario: sc, Params: testParams(), Objective: obj})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Best == nil {
			t.Fatalf("%s: no best point", obj)
		}
		best[obj] = rep.Best.Sharding
	}
	if best[ObjectiveLatencyPerToken] != best[ObjectiveThroughput] {
		t.Fatalf("objectives disagree: latency %v vs throughput %v",
			best[ObjectiveLatencyPerToken], best[ObjectiveThroughput])
	}
}

func TestSpecValidate(t *testing.T) {
	ok := Spec{Scenario: testScenario(gqaHeads(32, 8, 128)), Params: testParams()}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := ok
	bad.Objective = "goodput"
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown objective accepted")
	}
	bad = ok
	bad.KVP = []int{0}
	if err := bad.Validate(); err == nil {
		t.Fatal("non-positive kvp axis accepted")
	}
	mismatch := ok
	mismatch.Scenario.Hidden = 128
	if err := mismatch.Validate(); err == nil {
		t.Fatal("heads x dim != hidden accepted")
	}
	mla := ok
	mla.Scenario.Heads = HeadConfig{QueryHeads: 32, HeadDim: 128, MLA: true}
	if err := mla.Validate(); err == nil {
		t.Fatal("MLA without latent dim accepted")
	}
	// The link prices every collective; there is no silent fallback.
	for _, gbps := range []float64{0, -1} {
		bad = ok
		bad.Params.Link.GBps = gbps
		if err := bad.Validate(); err == nil {
			t.Fatalf("link with %g GB/s accepted", gbps)
		}
		if _, err := NewSearch(bad); err == nil {
			t.Fatalf("search over a link with %g GB/s accepted", gbps)
		}
	}
}

func TestRenderSmoke(t *testing.T) {
	s, err := NewSearch(Spec{Scenario: testScenario(gqaHeads(32, 8, 128)), Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary() == "" || rep.Table() == "" {
		t.Fatal("empty render")
	}
}

// TestHostileShardingSizes pins the overflow-safe lattice: an axis product
// past int is rejected rather than wrapping to a zero group size, and a huge
// GPU count enumerates only the TPA values the heads allow.
func TestHostileShardingSizes(t *testing.T) {
	h := gqaHeads(32, 8, 128)
	if err := (Sharding{KVP: 1 << 62, TPA: 4}).Check(8, h); err == nil {
		t.Error("KVP*TPA past int must be rejected")
	}
	got := Shardings(1<<40, h)
	want := []Sharding{{KVP: 1 << 40, TPA: 1}, {KVP: 1 << 39, TPA: 2}, {KVP: 1 << 38, TPA: 4}, {KVP: 1 << 37, TPA: 8}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Shardings(2^40) = %v, want %v", got, want)
	}
	if got := ceilDiv(math.MaxInt, 1<<40); got != math.MaxInt/(1<<40)+1 {
		t.Errorf("ceilDiv(MaxInt, 2^40) = %d", got)
	}
}

package fleet

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/sim"
)

// stubSim prices jobs without the pipeline simulator: one iteration takes
// baseSec, doubled for every extra node the carve spans (a crude model of
// cross-fabric cost that lets policy tests reason about outcomes).
type stubSim struct {
	baseSec float64
	calls   int
	seen    map[string]int // Signature -> times simulated
}

func newStubSim() *stubSim { return &stubSim{baseSec: 10, seen: map[string]int{}} }

func (s *stubSim) Simulate(job Job, sub cluster.Cluster) (JobRun, error) {
	s.calls++
	sig := Signature(sub)
	s.seen[sig]++
	hit := s.seen[sig] > 1
	return JobRun{
		IterationSeconds: s.baseSec * float64(len(sub.Nodes)),
		CacheHit:         hit,
		LinkTraffic: []sim.LinkClassStats{
			{Class: "nvlink", Bytes: 1000, Seconds: 0.001, Transfers: 4},
		},
	}, nil
}

// twoNode is a 2x4 cluster for the small policy tests.
func twoNode() cluster.Cluster {
	return cluster.Cluster{
		Name: "test-2x4",
		GPU:  "A800",
		Nodes: []cluster.Node{
			{Name: "node0", Devices: 4, Intra: cluster.Link{Class: cluster.ClassNVLink, GBps: 200, LatencySec: 6e-6}},
			{Name: "node1", Devices: 4, Intra: cluster.Link{Class: cluster.ClassNVLink, GBps: 200, LatencySec: 6e-6}},
		},
		Inter: cluster.Link{Class: cluster.ClassIB, GBps: 46, LatencySec: 14e-6},
	}
}

func mustPolicy(t *testing.T, name string) Policy {
	t.Helper()
	p, ok := PolicyByName(name)
	if !ok {
		t.Fatalf("unknown policy %q", name)
	}
	return p
}

func simpleJobs(n, demand int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			ID:         fmt.Sprintf("job%03d", i),
			ArrivalSec: float64(i),
			Demand:     demand,
			Iterations: 3,
		}
	}
	return jobs
}

func TestRunValidation(t *testing.T) {
	c := twoNode()
	s := newStubSim()
	cases := []struct {
		name string
		jobs []Job
		want string
	}{
		{"no jobs", nil, "no jobs"},
		{"zero demand", []Job{{ID: "j", Demand: 0, Iterations: 1}}, "demands 0"},
		{"oversize demand", []Job{{ID: "j", Demand: 9, Iterations: 1}}, "demands 9"},
		{"zero iterations", []Job{{ID: "j", Demand: 2}}, "iterations"},
		{"negative arrival", []Job{{ID: "j", Demand: 2, Iterations: 1, ArrivalSec: -1}}, "negative time"},
		{"infinite arrival", []Job{{ID: "j", Demand: 2, Iterations: 1, ArrivalSec: math.Inf(1)}}, "non-finite time"},
		{"NaN arrival", []Job{{ID: "j", Demand: 2, Iterations: 1, ArrivalSec: math.NaN()}}, "non-finite time"},
		// The stub moves 1000 bytes in 4 transfers per iteration.
		{"link bytes overflow", []Job{{ID: "j", Demand: 2, Iterations: math.MaxInt64}}, "overflow the nvlink link traffic"},
		{"link bytes sum overflow", []Job{
			{ID: "a", Demand: 2, Iterations: math.MaxInt64 / 1000},
			{ID: "b", Demand: 2, Iterations: math.MaxInt64 / 1000},
		}, "job b: 9223372036854775 iterations overflow"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(c, tc.jobs, s, Options{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
	if _, err := Run(c, simpleJobs(2, 2), nil, Options{}); err == nil {
		t.Fatal("want error for nil simulator")
	}
}

func TestNoStrandedDevices(t *testing.T) {
	c := twoNode()
	jobs := []Job{
		{ID: "low1", ArrivalSec: 0, Priority: 0, Demand: 4, Iterations: 5},
		{ID: "low2", ArrivalSec: 0, Priority: 0, Demand: 4, Iterations: 5},
		{ID: "high", ArrivalSec: 1, Priority: 5, Demand: 8, Iterations: 2},
		{ID: "mid", ArrivalSec: 2, Priority: 2, Demand: 2, Iterations: 3},
	}
	for _, name := range Policies() {
		t.Run(name, func(t *testing.T) {
			probes := 0
			opt := Options{
				Policy: mustPolicy(t, name),
				Probe: func(p ProbeEvent) {
					probes++
					if p.AllocatedDevices != p.RunningDemand {
						t.Fatalf("at t=%gs: %d devices allocated but running demand is %d",
							p.TimeSec, p.AllocatedDevices, p.RunningDemand)
					}
					if p.AllocatedDevices+p.FreeDevices != c.Devices() {
						t.Fatalf("at t=%gs: %d allocated + %d free != %d devices",
							p.TimeSec, p.AllocatedDevices, p.FreeDevices, c.Devices())
					}
				},
			}
			r, err := Run(c, jobs, newStubSim(), opt)
			if err != nil {
				t.Fatal(err)
			}
			if probes == 0 {
				t.Fatal("probe never fired")
			}
			if r.Jobs != len(jobs) || len(r.JobRecords) != len(jobs) {
				t.Fatalf("report covers %d/%d jobs", len(r.JobRecords), len(jobs))
			}
			for _, rec := range r.JobRecords {
				if rec.EndSec < rec.StartSec || rec.StartSec < rec.ArrivalSec {
					t.Fatalf("job %s has times arrival=%g start=%g end=%g",
						rec.ID, rec.ArrivalSec, rec.StartSec, rec.EndSec)
				}
				if rec.JCTSec < rec.WaitSec {
					t.Fatalf("job %s JCT %g < wait %g", rec.ID, rec.JCTSec, rec.WaitSec)
				}
			}
		})
	}
}

func TestPreemptionEvictsAndRestarts(t *testing.T) {
	c := twoNode()
	jobs := []Job{
		{ID: "low", ArrivalSec: 0, Priority: 0, Demand: 8, Iterations: 10},
		{ID: "high", ArrivalSec: 5, Priority: 9, Demand: 8, Iterations: 1},
	}
	// The probe's cumulative preemption count must climb monotonically to
	// the report total.
	lastPreempt := 0
	r, err := Run(c, jobs, newStubSim(), Options{
		Policy: mustPolicy(t, PolicyPreempt),
		Probe: func(p ProbeEvent) {
			if p.Preemptions < lastPreempt {
				t.Fatalf("at t=%gs: preemption count went backwards (%d -> %d)",
					p.TimeSec, lastPreempt, p.Preemptions)
			}
			lastPreempt = p.Preemptions
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Preemptions != 1 {
		t.Fatalf("want 1 preemption, got %d", r.Preemptions)
	}
	if lastPreempt != r.Preemptions {
		t.Fatalf("probe saw %d cumulative preemptions, report says %d", lastPreempt, r.Preemptions)
	}
	var low, high JobRecord
	for _, rec := range r.JobRecords {
		switch rec.ID {
		case "low":
			low = rec
		case "high":
			high = rec
		}
	}
	if low.Preempted != 1 {
		t.Fatalf("low job preempted %d times, want 1", low.Preempted)
	}
	if high.StartSec != 5 {
		t.Fatalf("high-priority job started at %gs, want 5s (immediate preemption)", high.StartSec)
	}
	// Demand 8 spans both nodes, so the stub prices 20s per iteration. The
	// low job restarts from scratch after the high job's 20s run: preempted
	// at 5s, restarted at 25s, full 200s run again.
	if want := 5.0 + 20 + 200; low.EndSec != want {
		t.Fatalf("low job ended at %gs, want %gs", low.EndSec, want)
	}
	if low.WaitSec != 20 {
		t.Fatalf("low job waited %gs, want 20s (re-queued during high's run)", low.WaitSec)
	}
}

func TestPreemptionSparesEqualAndHigherPriority(t *testing.T) {
	c := twoNode()
	jobs := []Job{
		{ID: "peer", ArrivalSec: 0, Priority: 5, Demand: 8, Iterations: 3},
		{ID: "also5", ArrivalSec: 1, Priority: 5, Demand: 8, Iterations: 1},
	}
	r, err := Run(c, jobs, newStubSim(), Options{Policy: mustPolicy(t, PolicyPreempt)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Preemptions != 0 {
		t.Fatalf("equal-priority job must not preempt, got %d preemptions", r.Preemptions)
	}
}

func TestBestFitStaysOnOneNode(t *testing.T) {
	c := twoNode()
	// A demand-2 job then a demand-4 job. First-fit gives the second job
	// devices 2-5, straddling the node boundary; best-fit packs it onto
	// node1 whole.
	jobs := []Job{
		{ID: "a", ArrivalSec: 0, Demand: 2, Iterations: 10},
		{ID: "c", ArrivalSec: 0, Demand: 4, Iterations: 10},
	}
	nodesOf := func(policy string) map[string]int {
		r, err := Run(c, jobs, newStubSim(), Options{Policy: mustPolicy(t, policy)})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int{}
		for _, rec := range r.JobRecords {
			out[rec.ID] = rec.Nodes
		}
		return out
	}
	if got := nodesOf(PolicyFIFO); got["c"] != 2 {
		t.Fatalf("first-fit should straddle job c across 2 nodes, got %d", got["c"])
	}
	if got := nodesOf(PolicyBestFit); got["c"] != 1 {
		t.Fatalf("best-fit should keep job c on 1 node, got %d", got["c"])
	}
}

func TestWorstFitSpreads(t *testing.T) {
	c := twoNode()
	jobs := []Job{
		{ID: "a", ArrivalSec: 0, Demand: 2, Iterations: 10},
		{ID: "b", ArrivalSec: 0, Demand: 2, Iterations: 10},
	}
	r, err := Run(c, jobs, newStubSim(), Options{Policy: mustPolicy(t, PolicyWorstFit)})
	if err != nil {
		t.Fatal(err)
	}
	devs := map[string][]int{}
	for _, rec := range r.JobRecords {
		devs[rec.ID] = rec.Devices
	}
	// Worst fit drains the emptiest node: job a lands on node0, job b on
	// node1 (now the emptier one).
	if c.NodeOf(devs["a"][0]) == c.NodeOf(devs["b"][0]) {
		t.Fatalf("worst-fit put both jobs on the same node: a=%v b=%v", devs["a"], devs["b"])
	}
}

func TestBackfillPassesBlockedHead(t *testing.T) {
	c := twoNode()
	jobs := []Job{
		{ID: "big1", ArrivalSec: 0, Demand: 8, Iterations: 5},
		{ID: "big2", ArrivalSec: 1, Demand: 8, Iterations: 5},
		{ID: "small", ArrivalSec: 2, Demand: 2, Iterations: 1},
	}
	endOf := func(policy string) float64 {
		r, err := Run(c, jobs, newStubSim(), Options{Policy: mustPolicy(t, policy)})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range r.JobRecords {
			if rec.ID == "small" {
				return rec.StartSec
			}
		}
		t.Fatal("small job missing")
		return 0
	}
	// Without backfill the small job waits behind big2 (starts when big2
	// completes); with backfill it cannot start earlier here (big1 holds all
	// devices), so use a gap: after big1 ends, big2 starts — full cluster
	// again. Small starts after big2 under FIFO.
	fifoStart := endOf(PolicyFIFO)
	backfillStart := endOf(PolicyBackfill)
	if backfillStart > fifoStart {
		t.Fatalf("backfill start %g later than FIFO start %g", backfillStart, fifoStart)
	}
}

func TestBackfillStartsSmallJobInGap(t *testing.T) {
	c := twoNode()
	// big1 takes node0+node1 fully? No: demand 6 leaves 2 free. big2 needs 8
	// and blocks; small (demand 2) fits the 2 free devices.
	jobs := []Job{
		{ID: "big1", ArrivalSec: 0, Demand: 6, Iterations: 5},
		{ID: "big2", ArrivalSec: 1, Demand: 8, Iterations: 5},
		{ID: "small", ArrivalSec: 2, Demand: 2, Iterations: 1},
	}
	run := func(policy string) map[string]JobRecord {
		r, err := Run(c, jobs, newStubSim(), Options{Policy: mustPolicy(t, policy)})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]JobRecord{}
		for _, rec := range r.JobRecords {
			out[rec.ID] = rec
		}
		return out
	}
	fifo := run(PolicyFIFO)
	back := run(PolicyBackfill)
	if back["small"].StartSec != 2 {
		t.Fatalf("backfill should start the small job on arrival at 2s, got %gs", back["small"].StartSec)
	}
	if fifo["small"].StartSec <= fifo["big2"].StartSec {
		t.Fatalf("FIFO should hold the small job behind big2 (big2 start %gs, small start %gs)",
			fifo["big2"].StartSec, fifo["small"].StartSec)
	}
}

func TestDeterministicReports(t *testing.T) {
	c := twoNode()
	s1 := rng.New(42)
	arrivals := PoissonArrivals(s1, 20, 0.01)
	tmpl := s1.Split(1)
	jobs := make([]Job, len(arrivals))
	for i, at := range arrivals {
		demand := []int{2, 4, 8}[tmpl.Intn(3)]
		jobs[i] = Job{
			ID:         fmt.Sprintf("job%03d", i),
			ArrivalSec: at,
			Demand:     demand,
			Priority:   tmpl.Intn(3),
			Iterations: 1 + tmpl.Intn(5),
		}
	}
	for _, name := range Policies() {
		t.Run(name, func(t *testing.T) {
			var out [2]bytes.Buffer
			for i := 0; i < 2; i++ {
				r, err := Run(c, jobs, newStubSim(), Options{Policy: mustPolicy(t, name)})
				if err != nil {
					t.Fatal(err)
				}
				if err := r.WriteJSON(&out[i]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
				t.Fatal("identical runs produced different report JSON")
			}
		})
	}
}

func TestCarveCanonicalShape(t *testing.T) {
	c := twoNode()
	// Devices 0,1 (node0) and devices 4,5 (node1) carve to the same shape.
	sub1, l2g1 := Carve(c, []int{0, 1})
	sub2, l2g2 := Carve(c, []int{4, 5})
	if Signature(sub1) != Signature(sub2) {
		t.Fatalf("equivalent carves differ:\n%s\n%s", Signature(sub1), Signature(sub2))
	}
	if len(sub1.Nodes) != 1 || sub1.Nodes[0].Devices != 2 {
		t.Fatalf("carve shape wrong: %+v", sub1.Nodes)
	}
	if l2g1[0] != 0 || l2g1[1] != 1 || l2g2[0] != 4 || l2g2[1] != 5 {
		t.Fatalf("local2global wrong: %v %v", l2g1, l2g2)
	}
	// A straddling carve has two nodes and a different signature.
	sub3, _ := Carve(c, []int{3, 4})
	if len(sub3.Nodes) != 2 {
		t.Fatalf("straddling carve should span 2 sub-nodes, got %d", len(sub3.Nodes))
	}
	if Signature(sub3) == Signature(sub1) {
		t.Fatal("straddling carve must not share the single-node signature")
	}
	// Canonical order: bigger group first regardless of node index.
	sub4, l2g4 := Carve(c, []int{0, 4, 5, 6})
	if sub4.Nodes[0].Devices != 3 || sub4.Nodes[1].Devices != 1 {
		t.Fatalf("canonical order wrong: %+v", sub4.Nodes)
	}
	if l2g4[0] != 4 || l2g4[1] != 5 || l2g4[2] != 6 || l2g4[3] != 0 {
		t.Fatalf("local2global should follow canonical group order, got %v", l2g4)
	}
	if err := sub4.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheCountsRepeatShapes(t *testing.T) {
	c := twoNode()
	jobs := simpleJobs(6, 4) // same shape six times, arrivals spaced out
	for i := range jobs {
		jobs[i].ArrivalSec = float64(i * 1000) // sequential: each runs alone
	}
	r, err := Run(c, jobs, newStubSim(), Options{Policy: mustPolicy(t, PolicyBestFit)})
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheMisses != 1 || r.CacheHits != 5 {
		t.Fatalf("want 1 miss + 5 hits for a repeated shape, got %d misses %d hits",
			r.CacheMisses, r.CacheHits)
	}
}

func TestPoissonArrivals(t *testing.T) {
	s := rng.New(7)
	a := PoissonArrivals(s, 1000, 0.5)
	if len(a) != 1000 {
		t.Fatalf("want 1000 arrivals, got %d", len(a))
	}
	prev := 0.0
	for i, at := range a {
		if at <= prev {
			t.Fatalf("arrival %d at %g not after %g", i, at, prev)
		}
		prev = at
	}
	// Mean gap should be near 1/rate = 2s.
	mean := a[len(a)-1] / float64(len(a))
	if mean < 1.5 || mean > 2.5 {
		t.Fatalf("mean gap %g far from 2s", mean)
	}
	// Determinism.
	b := PoissonArrivals(rng.New(7), 1000, 0.5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs across identical seeds", i)
		}
	}
	if PoissonArrivals(s, 0, 1) != nil || PoissonArrivals(s, 1, 0) != nil {
		t.Fatal("degenerate inputs should return nil")
	}
}

func TestBurstyArrivals(t *testing.T) {
	s := rng.New(7)
	a := BurstyArrivals(s, 100, 5, 0.01)
	if len(a) != 100 {
		t.Fatalf("want 100 arrivals, got %d", len(a))
	}
	prev := -1.0
	for i, at := range a {
		if at < prev {
			t.Fatalf("arrival %d at %g before %g", i, at, prev)
		}
		prev = at
	}
	// Bursts cluster: the median gap must be far below the mean gap.
	gaps := make([]float64, 0, len(a)-1)
	for i := 1; i < len(a); i++ {
		gaps = append(gaps, a[i]-a[i-1])
	}
	mean := 0.0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	within := 0
	for _, g := range gaps {
		if g < mean/2 {
			within++
		}
	}
	if within < len(gaps)/2 {
		t.Fatalf("gaps do not cluster into bursts: %d/%d below half the mean", within, len(gaps))
	}
}

func TestParseTrace(t *testing.T) {
	good := `[
	  {"arrival_sec": 0, "template": "short"},
	  {"arrival_sec": 5.5, "template": "long", "priority": 2, "iterations": 7}
	]`
	entries, err := ParseTrace(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].Template != "long" || entries[1].Iterations != 7 {
		t.Fatalf("parsed %+v", entries)
	}
	bad := []string{
		`[]`,
		`[{"arrival_sec": 0}]`,
		`[{"arrival_sec": -1, "template": "t"}]`,
		`[{"arrival_sec": 5, "template": "t"}, {"arrival_sec": 1, "template": "t"}]`,
		`[{"arrival_sec": 0, "template": "t", "bogus": 1}]`,
	}
	for i, in := range bad {
		if _, err := ParseTrace(strings.NewReader(in)); err == nil {
			t.Fatalf("bad trace %d parsed without error", i)
		}
	}
	if _, err := LoadTraceFile("/nonexistent/trace.json"); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range Policies() {
		p, ok := PolicyByName(strings.ToUpper(name))
		if !ok {
			t.Fatalf("policy %s not found case-insensitively", name)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := PolicyByName("nope"); ok {
		t.Fatal("unknown policy resolved")
	}
	if err := (Policy{Order: "x", Carve: CarveBest}).Validate(); err == nil {
		t.Fatal("bad order validated")
	}
	if err := (Policy{Order: OrderArrival, Carve: "x"}).Validate(); err == nil {
		t.Fatal("bad carve validated")
	}
}

func TestStats(t *testing.T) {
	s := newStats([]float64{4, 1, 3, 2})
	if s.MeanSec != 2.5 || s.P50Sec != 2 || s.MaxSec != 4 {
		t.Fatalf("stats %+v", s)
	}
	if z := newStats(nil); z != (Stats{}) {
		t.Fatalf("empty stats %+v", z)
	}
}

func TestReportWriters(t *testing.T) {
	c := twoNode()
	r, err := Run(c, simpleJobs(4, 4), newStubSim(), Options{Policy: mustPolicy(t, PolicyBestFit)})
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"makespan_sec"`) {
		t.Fatal("JSON misses makespan")
	}
	var cs bytes.Buffer
	if err := r.WriteCSV(&cs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cs.String()), "\n")
	if len(lines) != 1+4 {
		t.Fatalf("CSV has %d lines, want header + 4 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "job,template,priority") {
		t.Fatalf("CSV header %q", lines[0])
	}
	sum := r.Summary()
	for _, want := range []string{"jobs on", "makespan", "utilization", "sim cache"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary misses %q:\n%s", want, sum)
		}
	}
	if r.Utilization <= 0 || r.Utilization > 1 {
		t.Fatalf("utilization %g out of range", r.Utilization)
	}
	if len(r.LinkTraffic) == 0 || r.LinkTraffic[0].Class != "nvlink" {
		t.Fatalf("link traffic %+v", r.LinkTraffic)
	}
	// 4 jobs x 3 iterations x 1000 bytes.
	if r.LinkTraffic[0].Bytes != 12000 {
		t.Fatalf("link bytes %d, want 12000", r.LinkTraffic[0].Bytes)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	c := twoNode()
	// One job holding half the cluster for its whole run: utilization 0.5,
	// no fragmentation windows with free devices on partially-used nodes
	// under best fit (node1 stays fully free).
	jobs := []Job{{ID: "j", Demand: 4, Iterations: 1, ArrivalSec: 0}}
	r, err := Run(c, jobs, newStubSim(), Options{Policy: mustPolicy(t, PolicyBestFit)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Utilization-0.5) > 1e-9 {
		t.Fatalf("utilization %g, want 0.5", r.Utilization)
	}
	if r.Fragmentation != 0 {
		t.Fatalf("fragmentation %g, want 0 (whole node carve)", r.Fragmentation)
	}
	// First fit on a demand-2 job leaves 2 fragmented free devices on node0
	// for the whole makespan: fragmentation 2/8.
	r2, err := Run(c, []Job{{ID: "j", Demand: 2, Iterations: 1, ArrivalSec: 0}},
		newStubSim(), Options{Policy: mustPolicy(t, PolicyFIFO)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r2.Fragmentation-0.25) > 1e-9 {
		t.Fatalf("fragmentation %g, want 0.25", r2.Fragmentation)
	}
}

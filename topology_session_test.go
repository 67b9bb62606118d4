package helixpipe

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// testTopology builds a 2-node test topology with enough devices for a tiny
// pipeline.
func testTopology(devicesPerNode int) ClusterTopology {
	intra := ClusterLink{Class: LinkNVLink, GBps: 200, LatencySec: 6e-6}
	return ClusterTopology{
		Name: "test-2node",
		GPU:  "H20",
		Nodes: []ClusterNode{
			{Devices: devicesPerNode, Intra: intra},
			{Devices: devicesPerNode, Intra: intra},
		},
		Inter: ClusterLink{Class: LinkIB, GBps: 46, LatencySec: 14e-6},
	}
}

func TestSessionTopologyValidation(t *testing.T) {
	topo := testTopology(2)
	cases := []struct {
		name    string
		opts    []Option
		wantErr string
	}{
		{"placement-without-cluster",
			[]Option{WithSeqLen(64), WithStages(4), WithPlacement(Placement{Devices: []int{0, 1, 2, 3}})},
			"WithPlacement requires WithCluster"},
		{"perturb-without-cluster",
			[]Option{WithSeqLen(64), WithStages(4), WithPerturb(Perturb{SlowDevice: 0, SlowFactor: 2})},
			"WithPerturb requires WithCluster"},
		{"too-many-stages",
			[]Option{WithSeqLen(64), WithStages(4), WithCluster(testTopology(1))},
			"exceed the 2 devices"},
		{"placement-count-mismatch",
			[]Option{WithSeqLen(64), WithStages(4), WithCluster(topo),
				WithPlacement(Placement{Devices: []int{0, 1}})},
			"placement maps 2 devices for 4 stages"},
		{"placement-shared-device",
			[]Option{WithSeqLen(64), WithStages(4), WithCluster(topo),
				WithPlacement(Placement{Devices: []int{0, 0, 1, 2}})},
			"share device"},
		{"perturb-bad-class",
			[]Option{WithSeqLen(64), WithStages(4), WithCluster(topo),
				WithPerturb(Perturb{SlowDevice: -1, DegradeClass: "pcie", DegradeFactor: 0.5})},
			"no such link class"},
	}
	for _, tc := range cases {
		_, err := NewSession(TinyModel(), H20Cluster(), tc.opts...)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestSessionTopologyReport(t *testing.T) {
	topo := testTopology(2)
	s, err := NewSession(TinyModel(), H20Cluster(),
		WithSeqLen(64), WithStages(4), WithCluster(topo))
	if err != nil {
		t.Fatal(err)
	}
	report, err := s.Simulate(Method1F1B)
	if err != nil {
		t.Fatal(err)
	}
	if report.Topology != "test-2node" {
		t.Errorf("Topology = %q", report.Topology)
	}
	if report.PlacementStrategy != PlacementContiguous {
		t.Errorf("PlacementStrategy = %q", report.PlacementStrategy)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(report.Placement, want) {
		t.Errorf("Placement = %v, want %v", report.Placement, want)
	}
	if len(report.Sim.LinkTraffic) != 2 {
		t.Fatalf("LinkTraffic = %+v, want nvlink and ib", report.Sim.LinkTraffic)
	}
	if report.Sim.LinkTraffic[0].Class != "ib" || report.Sim.LinkTraffic[1].Class != "nvlink" {
		t.Errorf("LinkTraffic classes = %+v", report.Sim.LinkTraffic)
	}
	for _, lt := range report.Sim.LinkTraffic {
		if lt.Bytes <= 0 || lt.Transfers <= 0 {
			t.Errorf("empty link traffic entry %+v", lt)
		}
	}

	// JSON round trip keeps the topology fields.
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Topology != report.Topology ||
		!reflect.DeepEqual(decoded.Placement, report.Placement) ||
		len(decoded.Sim.LinkTraffic) != 2 {
		t.Errorf("JSON round trip lost topology fields: %+v", decoded)
	}

	// CSV stays rectangular with the new columns.
	var buf bytes.Buffer
	if err := WriteReportsCSV(&buf, []*Report{report}); err != nil {
		t.Fatal(err)
	}
	header := strings.Split(strings.SplitN(buf.String(), "\n", 2)[0], ",")
	if len(header) != len(report.CSVRow()) {
		t.Errorf("CSV header %d columns, row %d", len(header), len(report.CSVRow()))
	}
	joined := buf.String()
	for _, col := range []string{"topology", "placement", "link_traffic", "pad_fraction"} {
		if !strings.Contains(joined, col) {
			t.Errorf("CSV header missing %q", col)
		}
	}
}

// TestSessionTopologySlowdown is the acceptance criterion at the session
// level: the same fixed helix plan strictly slows down moving from one
// NVLink node to two IB-joined nodes.
func TestSessionTopologySlowdown(t *testing.T) {
	oneNode := ClusterTopology{
		Name: "test-1node", GPU: "H20",
		Nodes: []ClusterNode{{Devices: 4,
			Intra: ClusterLink{Class: LinkNVLink, GBps: 200, LatencySec: 6e-6}}},
	}
	twoNode := testTopology(2)
	base, err := NewSession(Model7B(), H20Cluster(), WithSeqLen(32768), WithStages(4))
	if err != nil {
		t.Fatal(err)
	}
	times := map[string]float64{}
	for name, topo := range map[string]ClusterTopology{"one": oneNode, "two": twoNode} {
		s, err := base.With(WithCluster(topo))
		if err != nil {
			t.Fatal(err)
		}
		report, err := s.Simulate(MethodHelix)
		if err != nil {
			t.Fatal(err)
		}
		times[name] = report.Sim.IterationSeconds
	}
	if times["two"] <= times["one"] {
		t.Errorf("2-node IB iteration %g not above 1-node NVLink %g", times["two"], times["one"])
	}
}

func TestPlacementForDeterministicAndApplied(t *testing.T) {
	topo := testTopology(4)
	s, err := NewSession(Model7B(), H20Cluster(), WithSeqLen(16384), WithStages(8),
		WithCluster(topo))
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.PlacementFor(Method1F1B, PlacementGreedy, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.PlacementFor(Method1F1B, PlacementGreedy, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Devices, b.Devices) {
		t.Errorf("same seed, different placements: %v vs %v", a.Devices, b.Devices)
	}
	placedSession, err := s.With(WithPlacement(a))
	if err != nil {
		t.Fatal(err)
	}
	report, err := placedSession.Simulate(Method1F1B)
	if err != nil {
		t.Fatal(err)
	}
	if report.PlacementStrategy != PlacementGreedy ||
		!reflect.DeepEqual(report.Placement, a.Devices) {
		t.Errorf("placed report carries %q %v, want greedy %v",
			report.PlacementStrategy, report.Placement, a.Devices)
	}
}

func TestReportPadFraction(t *testing.T) {
	workload, err := SyntheticWorkload(DistBimodal, 32, 512, 4096, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if workload.PadFraction() <= 0 {
		t.Fatalf("bimodal packing produced no padding (fraction %g)", workload.PadFraction())
	}
	s, err := NewSession(Model3B(), H20Cluster(), WithStages(2), WithWorkload(workload))
	if err != nil {
		t.Fatal(err)
	}
	report, err := s.Simulate(Method1F1B)
	if err != nil {
		t.Fatal(err)
	}
	if report.PadFraction != workload.PadFraction() || report.RealTokens != workload.RealTokens {
		t.Errorf("report pad %g/%d, workload %g/%d",
			report.PadFraction, report.RealTokens, workload.PadFraction(), workload.RealTokens)
	}
	row := report.CSVRow()
	found := false
	for _, cell := range row {
		if cell != "" && strings.Contains(cell, ".") && cell == trimFloat(report.PadFraction) {
			found = true
		}
	}
	if !found {
		t.Errorf("CSV row misses pad fraction %g: %v", report.PadFraction, row)
	}
}

func trimFloat(f float64) string {
	b, _ := json.Marshal(f)
	return string(b)
}

func TestAutotunePlacementAxis(t *testing.T) {
	topo := testTopology(4)
	s, err := NewSession(Model3B(), A800Cluster(), WithSeqLen(16384), WithStages(4),
		WithCluster(topo))
	if err != nil {
		t.Fatal(err)
	}
	result, err := s.Autotune(TuneSpec{
		Methods: []Method{Method1F1B, MethodHelix},
		Stages:  []int{4, 8, 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if result.Topology != "test-2node" {
		t.Errorf("result topology = %q", result.Topology)
	}
	// 16 stages cannot be placed on 8 devices: pruned with the placement
	// reason, not a sim error.
	if result.Pruned[TunePrunePlacement] == 0 {
		t.Errorf("no placement prunes in %+v", result.Pruned)
	}
	if len(result.Points) == 0 {
		t.Fatal("no evaluated points")
	}
	for _, p := range result.Points {
		if p.Stages > 8 {
			t.Errorf("16-stage point evaluated: %+v", p)
		}
		if p.Placement == "" || len(p.PlacementDevices) != p.Stages {
			t.Errorf("point misses placement: %+v", p)
		}
	}
	if len(result.Best) == 0 || result.Best[0].Placement == "" {
		t.Errorf("best point misses placement: %+v", result.Best)
	}
	// The rendered best table shows the placement column.
	if table := result.BestTable(); !strings.Contains(table, "placement") {
		t.Errorf("BestTable misses placement column:\n%s", table)
	}
}

// TestAutotuneMatchesExecute pins the one pricing path: the autotuner prices
// a placed grid point on the same placement-resolved cost books a Session
// builds, so a one-method topology spec gives a bit-equal iteration time and
// the same placement through Execute and through Autotune restricted to the
// spec's placement strategy. Greedy is left out: the autotuner seeds its
// search from 0, Execute from placement_seed.
func TestAutotuneMatchesExecute(t *testing.T) {
	cases := []struct {
		cluster, method, placement, perturb string
		stages                              int
	}{
		{"DGX-A800x2-H20x2", "1F1B", "roundrobin", "", 8},
		{"DGX-A800x2-H20x2", "ZB1P", "roundrobin", "", 4},
		{"DGX-A800x2-H20x2", "HelixPipe", "roundrobin", "", 8},
		{"DGX-A800x2-H20x2", "1F1B", "contiguous", "link=nvlinkx0.15", 8},
		{"DGX-A800x4", "HelixPipe", "contiguous", "slow=1x2.0", 8},
		{"DGX-A800x4", "HelixPipe", "contiguous", "link=nvlinkx0.5", 8},
		// Control: a degraded inter-node fabric leaves every stage's book
		// flat, so this case matched before the autotuner priced placed
		// books.
		{"DGX-A800x4", "1F1B", "roundrobin", "link=ibx0.5", 8},
	}
	for _, tc := range cases {
		name := strings.Join([]string{tc.cluster, tc.method, tc.placement, tc.perturb}, "/")
		t.Run(name, func(t *testing.T) {
			spec := &ExperimentSpec{Model: "3B", Cluster: tc.cluster, SeqLen: 16384,
				Stages: tc.stages, Methods: []string{tc.method}, Placement: tc.placement,
				Perturb: tc.perturb}
			reports, err := executeSpec(t, spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(reports) != 1 {
				t.Fatalf("Execute ran %d cells, want 1", len(reports))
			}
			want := reports[0]

			tuned := *spec
			tuned.Tune = &SpecTune{Placements: []string{tc.placement}, BudgetGB: 10000}
			session, rs, err := tuned.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			res, err := session.Autotune(*rs.Tune)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Points) != 1 {
				t.Fatalf("Autotune evaluated %d points (pruned %v, errors %v), want 1",
					len(res.Points), res.Pruned, res.Errors)
			}
			got := res.Points[0]
			if got.IterationSeconds != want.Sim.IterationSeconds {
				t.Errorf("Autotune iteration %v s, Execute %v s", got.IterationSeconds, want.Sim.IterationSeconds)
			}
			if !reflect.DeepEqual(got.PlacementDevices, want.Placement) {
				t.Errorf("Autotune placement %v, Execute %v", got.PlacementDevices, want.Placement)
			}
		})
	}
}

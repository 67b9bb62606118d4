package sched

import (
	"strings"
	"testing"
)

func TestTrafficMatrix(t *testing.T) {
	cfg := Config{Stages: 4, MicroBatches: 8, Layers: 8}
	plan, err := OneFOneB(cfg, UnitCosts(0.01))
	if err != nil {
		t.Fatal(err)
	}
	m := plan.TrafficMatrix()
	if len(m) != 4 {
		t.Fatalf("matrix has %d rows", len(m))
	}
	// The matrix must account for exactly the plan's send volumes.
	var fromOps, fromMatrix int64
	for s, ops := range plan.Ops {
		for _, op := range ops {
			if op.Kind == KSend {
				fromOps += op.Bytes
				if int(op.Peer) != s+1 && int(op.Peer) != s-1 {
					t.Errorf("1F1B sends beyond neighbours: stage %d -> %d", s, op.Peer)
				}
			}
		}
	}
	for i := range m {
		if m[i][i] != 0 {
			t.Errorf("self traffic at stage %d", i)
		}
		for j := range m[i] {
			fromMatrix += m[i][j]
		}
	}
	if fromOps == 0 || fromMatrix != fromOps {
		t.Errorf("matrix total %d, ops total %d", fromMatrix, fromOps)
	}
}

func TestValidateRejectsBadPlacement(t *testing.T) {
	cfg := Config{Stages: 2, MicroBatches: 4, Layers: 4}
	plan, err := OneFOneB(cfg, UnitCosts(0))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		placement []int
		wantErr   string
	}{
		{"count-mismatch", []int{0, 1, 2}, "placement maps 3 devices for 2 stages"},
		{"shared-device", []int{3, 3}, "share device"},
		{"negative-device", []int{-1, 0}, "negative device"},
	}
	for _, tc := range cases {
		p := *plan
		p.Placement = tc.placement
		err := Validate(&p)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
	// A well-formed placement (any distinct device ids) passes.
	p := *plan
	p.Placement = []int{5, 2}
	if err := Validate(&p); err != nil {
		t.Errorf("valid placement rejected: %v", err)
	}
}

func TestMeanMBMatchesMB(t *testing.T) {
	// The consolidated uniform fallback: without overrides both MB and
	// MeanMB return the embedded book.
	uniform := UnitCosts(0.01)
	if *uniform.MB(3) != uniform.MBCosts || uniform.MeanMB(4) != uniform.MBCosts {
		t.Error("uniform fallback broken")
	}
	// With overrides, MeanMB of identical books equals any one of them up to
	// integer division.
	c := UnitBatchCosts(0.01, []float64{2, 2, 2})
	mean := c.MeanMB(3)
	if mean.Seg != c.MB(0).Seg || mean.BoundBytes != c.MB(0).BoundBytes {
		t.Errorf("MeanMB of identical books differs: %+v vs %+v", mean, *c.MB(0))
	}
	// Out-of-range lookups keep the conservative uniform book.
	if *c.MB(99) != c.MBCosts || *c.MB(-1) != c.MBCosts {
		t.Error("out-of-range MB lookup not uniform")
	}
}

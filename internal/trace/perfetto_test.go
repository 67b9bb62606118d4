package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// commPlan runs a traced simulation with visible communication (Figure 6's
// setting), so the trace carries send/recv spans to pair into flows.
func commPlan(t *testing.T) *sim.Result {
	t.Helper()
	cfg := sched.Config{Stages: 2, MicroBatches: 4, Layers: 4}
	plan, err := core.Build(cfg, sched.UnitCosts(1.0), core.Options{Fold: 2, Recompute: false})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(plan, sim.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// perfettoEvents converts a traced result and decodes the serialized trace
// back into its event list.
func perfettoEvents(t *testing.T, res *sim.Result, pid int) []map[string]any {
	t.Helper()
	tr := obs.NewTrace()
	Perfetto(tr, res, pid, "test cell")
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	return doc.TraceEvents
}

func TestPerfettoValidJSONAndTimestamps(t *testing.T) {
	res := commPlan(t)
	events := perfettoEvents(t, res, 1)

	lanes := map[float64]bool{}
	for i, e := range events {
		ph, _ := e["ph"].(string)
		if ph == "M" {
			continue
		}
		ts, ok := e["ts"].(float64)
		if !ok || ts < 0 {
			t.Fatalf("event %d: ts %v is missing or negative", i, e["ts"])
		}
		if dur, ok := e["dur"].(float64); ok && dur < 0 {
			t.Fatalf("event %d: negative dur %v", i, dur)
		}
		if ph == "X" {
			lanes[e["tid"].(float64)] = true
		}
	}
	// One lane per stage.
	if len(lanes) != res.Stages {
		t.Fatalf("got slices on %d lanes, want one per stage (%d)", len(lanes), res.Stages)
	}
	// Thread-name metadata covers every stage lane.
	named := map[float64]bool{}
	for _, e := range events {
		if e["ph"] == "M" && e["name"] == "thread_name" {
			named[e["tid"].(float64)] = true
		}
	}
	for lane := range lanes {
		if !named[lane] {
			t.Errorf("stage lane %v has no thread_name metadata", lane)
		}
	}
}

func TestPerfettoFlowPairing(t *testing.T) {
	res := commPlan(t)

	// The traced plan must actually communicate, or the test is vacuous.
	sends := 0
	for _, sp := range res.Spans {
		if sp.Op.Kind == sched.KSend {
			sends++
		}
	}
	if sends == 0 {
		t.Fatal("traced plan has no send ops; pick a config with communication")
	}

	events := perfettoEvents(t, res, 3)
	type flow struct {
		lane float64
		ts   float64
	}
	starts := map[string]flow{}
	ends := map[string]flow{}
	for _, e := range events {
		id, _ := e["id"].(string)
		switch e["ph"] {
		case "s":
			if _, dup := starts[id]; dup {
				t.Fatalf("flow %s started twice", id)
			}
			starts[id] = flow{e["tid"].(float64), e["ts"].(float64)}
		case "f":
			if bp, _ := e["bp"].(string); bp != "e" {
				t.Errorf("flow end %s: bp = %q, want \"e\" (bind to enclosing slice)", id, bp)
			}
			if _, dup := ends[id]; dup {
				t.Fatalf("flow %s ended twice", id)
			}
			ends[id] = flow{e["tid"].(float64), e["ts"].(float64)}
		}
	}
	if len(starts) != sends {
		t.Fatalf("%d flow starts for %d send spans", len(starts), sends)
	}
	// Rebuild the expected send-lane → recv-lane pairs from the spans.
	type lanePair struct{ from, to int }
	want := map[lanePair]bool{}
	for _, sp := range res.Spans {
		if sp.Op.Kind == sched.KSend {
			want[lanePair{sp.Stage, int(sp.Op.Peer)}] = true
		}
	}
	for id, s := range starts {
		e, ok := ends[id]
		if !ok {
			t.Fatalf("send flow %s has no recv end", id)
		}
		if !want[lanePair{int(s.lane), int(e.lane)}] {
			t.Errorf("flow %s links lane %v to lane %v, which no send span justifies", id, s.lane, e.lane)
		}
		if e.ts < s.ts {
			t.Errorf("flow %s arrives at %v before it starts at %v", id, e.ts, s.ts)
		}
	}
	for id := range ends {
		if _, ok := starts[id]; !ok {
			t.Fatalf("recv flow %s has no send start", id)
		}
	}
}

func TestPerfettoMultiProcessIDsDisjoint(t *testing.T) {
	res := commPlan(t)
	tr := obs.NewTrace()
	Perfetto(tr, res, 1, "cell a")
	Perfetto(tr, res, 2, "cell b")
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	byPid := map[float64]map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e["ph"] == "s" {
			pid := e["pid"].(float64)
			if byPid[pid] == nil {
				byPid[pid] = map[string]bool{}
			}
			byPid[pid][e["id"].(string)] = true
		}
	}
	if len(byPid) != 2 {
		t.Fatalf("flows on %d processes, want 2", len(byPid))
	}
	for id := range byPid[1] {
		if byPid[2][id] {
			t.Fatalf("flow id %s shared across processes; ids must be pid-scoped", id)
		}
	}
}

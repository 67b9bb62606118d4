package helixpipe

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates the pinned outputs instead of diffing them:
//
//	go test -run TestGoldenReports -update .
var updateGolden = flag.Bool("update", false, "rewrite the examples/**/*.golden.json files")

// TestGoldenReports pins the output of every committed example spec: next to
// each examples/**/*.json spec sits a *.golden.json with the exact report
// JSON the spec produces — run-kind and sweep specs pin their report stream,
// tune specs the autotuner's point stream, fleet specs the fleet report. A
// diff means an engine change altered committed results; if the change is
// intended, regenerate with -update and review the golden diff like code.
func TestGoldenReports(t *testing.T) {
	paths, err := filepath.Glob("examples/*/*.json")
	if err != nil {
		t.Fatal(err)
	}
	var specs []string
	for _, p := range paths {
		if !strings.HasSuffix(p, ".golden.json") && !strings.HasSuffix(p, ".trace.json") {
			specs = append(specs, p)
		}
	}
	if len(specs) == 0 {
		t.Fatal("no example specs found")
	}
	for _, path := range specs {
		t.Run(strings.TrimSuffix(filepath.Base(path), ".json"), func(t *testing.T) {
			got, err := goldenOutput(path)
			if err != nil {
				t.Fatal(err)
			}
			goldenPath := strings.TrimSuffix(path, ".json") + ".golden.json"
			if *updateGolden {
				if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("%v (generate it with: go test -run TestGoldenReports -update .)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: output drifted from %s; regenerate with -update and review the diff",
					path, goldenPath)
			}
		})
	}
}

// goldenOutput runs one example spec and renders its canonical JSON output.
func goldenOutput(path string) ([]byte, error) {
	spec, err := ParseSpecFile(path)
	if err != nil {
		return nil, err
	}
	session, runset, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	switch runset.Kind {
	case RunKindDecode:
		report, err := session.Decode(*runset.Decode)
		if err != nil {
			return nil, err
		}
		if err := WriteDecodeReportJSON(&buf, report); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	case RunKindFleet:
		report, err := session.Fleet(*runset.Fleet)
		if err != nil {
			return nil, err
		}
		if err := WriteFleetReportJSON(&buf, report); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	case RunKindTune:
		// The tune point stream yields prune errors as elements; the ranked
		// TuneResult (with its pruning accounting) is the canonical output.
		result, err := session.Autotune(*runset.Tune)
		if err != nil {
			return nil, err
		}
		if err := WriteTuneResultJSON(&buf, result); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	var reports []*Report
	for r, err := range session.Execute(spec) {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reports = append(reports, r)
	}
	// Golden sessions are unobserved and stamp no telemetry; strip anyway so
	// the corpus stays byte-stable even if a future caller attaches a sink.
	StripTelemetry(reports)
	if err := WriteReportsJSON(&buf, reports); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TestGoldenPerfettoTrace pins the Perfetto export of the paper spec's traced
// run: the committed examples/spec_driven/paper_128k.trace.json is exactly
// what helix viz -spec examples/spec_driven/paper_128k.json -perfetto emits.
// Regenerate with -update like the report goldens.
func TestGoldenPerfettoTrace(t *testing.T) {
	spec, err := ParseSpecFile("examples/spec_driven/paper_128k.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Trace = true
	session, _, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var reports []*Report
	for r, err := range session.Execute(spec) {
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
	}
	var buf bytes.Buffer
	if err := WritePerfettoTrace(&buf, reports); err != nil {
		t.Fatal(err)
	}
	goldenPath := "examples/spec_driven/paper_128k.trace.json"
	if *updateGolden {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with: go test -run TestGoldenPerfettoTrace -update .)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("perfetto trace drifted from %s; regenerate with -update and review the diff", goldenPath)
	}
}

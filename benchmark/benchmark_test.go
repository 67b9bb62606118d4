package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	helix "repro"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run spawns its child processes.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// inRepoRoot runs the test from the repository root, where the benchmark
// finds BENCHMARK.json and the example specs.
func inRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}

// invoke runs the benchmark in-process and returns its result line and its
// output_digest line.
func invoke(t *testing.T, args ...string) (resultLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark %v exited %d:\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("benchmark %v: last line is not a result: %v", args, err)
	}
	digest := ""
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, "output_digest "); ok {
			digest = d
		}
	}
	if digest == "" {
		t.Fatalf("benchmark %v printed no output_digest", args)
	}
	return res, digest
}

// TestSmoke runs every workload for one tiny round, untraced twice and
// traced once: every metric BENCHMARK.json names is printed with its unit,
// no request fails, the outputs repeat exactly, the traced call chain
// computes what the end-to-end path computes, and the traced layers account
// for nearly all traced request time.
func TestSmoke(t *testing.T) {
	inRepoRoot(t)
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchFile
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the benchmark %s", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		args := []string{"--workload", w.name, "--seed", "1", "--seconds", "1", "--requests", "2"}
		first, d1 := invoke(t, append(args, "--trace", "0")...)
		again, d2 := invoke(t, append(args, "--trace", "0")...)
		traced, _ := invoke(t, append(args, "--trace", "1")...)
		for _, r := range []resultLine{first, again, traced} {
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, r.Correct, r.Attempted, r.Failed)
			}
		}
		if d1 != d2 {
			t.Errorf("%s: output digest changed between identical runs: %s vs %s", w.name, d1, d2)
		}
		for _, m := range bj.EndToEnd {
			got, ok := first.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s missing or not in %s: %+v", w.name, m.Name, m.Unit, got)
			}
		}
		for _, m := range bj.PerLayer {
			got, ok := traced.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s missing or not in %s: %+v", w.name, m.Name, m.Unit, got)
			}
		}
		if c := traced.Metrics["trace.coverage_pct"].Value; c < 95 {
			t.Errorf("%s: traced layers cover %.1f%% of traced request time, want at least 95%%", w.name, c)
		}
	}
}

// TestCalibrated checks that every end-to-end time and rate, and nothing
// else, is scaled to the nominal host speed: CPU time by the kernel alone,
// wall-clock time by the kernel and the stolen share, rates inversely.
func TestCalibrated(t *testing.T) {
	scaled := map[string]bool{}
	for _, k := range slices.Concat(wallMetrics, rateMetrics, cpuMetrics) {
		scaled[k] = true
	}
	raw := map[string]float64{}
	for _, m := range endToEnd {
		if timed := m.unit == "s" || m.unit == "ms" || m.unit == "1/s"; timed != scaled[m.name] {
			t.Errorf("%s in %s: calibrated %v", m.name, m.unit, scaled[m.name])
		}
		raw[m.name] = 8
	}
	// A host twice as slow as nominal, with a quarter of its time stolen.
	got := calibrated(childResult{KernelMS: 2 * calibNominalMS, Steal: 0.25, Metrics: raw})
	want := map[string]float64{"req_p50_ms": 3, "req_per_s": 64.0 / 3, "cpu_ms_per_req": 4, "rss_p95_mb": 8}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s: calibrated %g, want %g", k, got[k], v)
		}
	}
	if raw["req_p50_ms"] != 8 {
		t.Error("calibrated changed the raw metrics")
	}
}

// TestGeneratorsValid resolves every request the generators emit for seeds
// 1..20 and builds every plan a request names. Only AdaPipe's plan depends
// on the drawn sequence length, through its memory budget; every other
// method builds or fails on the model, cluster and pipeline size alone, so
// each such geometry is built once.
func TestGeneratorsValid(t *testing.T) {
	built := map[string]bool{}
	build := func(s *helix.Session, method helix.Method, key string) error {
		if method != helix.MethodAdaPipe {
			if built[key] {
				return nil
			}
			built[key] = true
		}
		_, err := s.Plan(method)
		return err
	}
	for _, w := range workloads {
		for seed := uint64(1); seed <= 20; seed++ {
			for i := 0; i < w.perRound; i++ {
				spec := w.gen(requestRand(w.name, seed, 1, i), i)
				session, rs, err := spec.Resolve()
				if err != nil {
					t.Fatalf("%s seed %d request %d: %v", w.name, seed, i, err)
				}
				for _, c := range rs.Cells {
					cell, err := session.With(helix.WithStages(c.Stages), helix.WithSeqLen(c.SeqLen))
					if err == nil {
						err = build(cell, c.Method, fmt.Sprint(spec.Model, spec.Cluster, c.Stages, c.Method))
					}
					if err != nil {
						t.Fatalf("%s seed %d request %d, %s: %v", w.name, seed, i, c.Method, err)
					}
				}
				if rs.Fleet == nil {
					continue
				}
				seen := map[*helix.ExperimentSpec]bool{} // jobs of one template share its spec
				for _, j := range rs.Fleet.Jobs {
					if seen[j.Spec] {
						continue
					}
					seen[j.Spec] = true
					job, _, err := j.Spec.Resolve()
					method := helix.Method(j.Spec.Methods[0])
					if err == nil {
						err = build(job, method, fmt.Sprint(j.Spec.Model, j.Spec.Cluster, j.Spec.Stages, method))
					}
					if err != nil {
						t.Fatalf("%s seed %d request %d, job %s: %v", w.name, seed, i, j.ID, err)
					}
				}
			}
		}
	}
}

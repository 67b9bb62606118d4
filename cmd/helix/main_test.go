package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// traffic replays every command line of CI's smoke job, argument for
// argument and in order (later lines read the spec files earlier ones
// emit), and names the capture under testdata/stdout that its stdout must
// match byte for byte. The captures were taken from the single-purpose
// helixsim/helixbench/helixtune/helixfleet/helixserve/helixtrain/helixviz
// tools this command replaces; command lines that printed identical
// output share one capture. Outputs carrying wall-clock telemetry (bench
// -json, bench's CSV file, -metrics) are not pinned.
var traffic = []struct{ args, golden string }{
	{"sim -model tiny -cluster H20 -seq 64 -pp 2 -method 1F1B", "sim_tiny"},
	{"bench -exp table3", "bench_table3"},
	{"train -steps 1", "train_steps1"},
	{"viz -figure 2 -width 80", "viz_figure2"},
	{"tune -model 3B -cluster A800 -seq 32768 -pp 2,4 -budget 64", "tune_a800"},
	{"sim -model 1.3B -cluster DGX-H20x2 -seq 8192 -pp 8 -method 1F1B -placement greedy -perturb slow=3x1.5", "sim_h20x2_greedy"},
	{"tune -model 3B -cluster DGX-A800x4 -seq 32768 -pp 4,8 -budget 64 -perturb link=ibx0.5", "tune_a800x4_perturb"},
	{"tune -model 3B -cluster A800 -seq 32768 -pp 2 -budget 64 -dist bimodal -docs 24 -minseq 4096 -maxseq 32768 -orders packed,longest", "tune_bimodal"},
	{"sim -model 3B -cluster DGX-A800x2-H20x2 -seq 16384 -pp 8 -method 1F1B -placement greedy -perturb link=nvlinkx0.15", "sim_mixed_greedy"},
	{"fleet -spec examples/fleet_capacity/fleet_stream.json", "fleet_stream"},
	{"fleet -spec examples/fleet_capacity/fleet_stream.json -policy preempt -csv fleet-jobs.csv", "fleet_preempt_csv"},
	{"bench -method helixpipe -model 3B -cluster A800 -csv bench-sweep.csv", "bench_sweep_csv"},
	{"serve -spec examples/interactive_decode/gqa_1m.json", "serve_gqa"},
	{"serve -model 7B -cluster H20 -mla -context 262144", "serve_mla"},
	{"tune -model 3B -cluster A800 -seq 32768 -pp 2,4 -budget 64 -target 1", "tune_target"},
	{"viz -spec examples/spec_driven/paper_128k.json -perfetto trace.json", "viz_spec_perfetto"},
	{"sim -spec examples/spec_driven/paper_128k.json -json", "paper_128k_json"},
	{"sim -model 3B -cluster A800 -seq 131072 -pp 8 -method 1F1B,ZB1P,AdaPipe,HelixPipe -json", "paper_128k_json"},
	{"sim -spec examples/spec_driven/paper_128k.json -emit-spec resolved.json -json", "paper_128k_json"},
	{"sim -spec resolved.json -json", "paper_128k_json"},
	{"sim -spec examples/spec_driven/paper_128k.json -pp 4 -method 1f1b -json", "sim_override"},
	{"tune -spec examples/spec_driven/tune_a800_64gb.json -emit-spec tune-resolved.json", "tune_emit"},
	{"tune -spec tune-resolved.json", "tune_emit"},
	{"bench -method 1f1b -emit-spec bench-sweep.json", "bench_emit"},
	{"bench -spec bench-sweep.json", "bench_emit"},
	{"train -steps 1 -emit-spec train.json", "train_steps1"},
	{"train -spec train.json -steps 1", "train_steps1"},
	{"viz -spec resolved.json -width 80 -emit-spec viz-resolved.json", "paper_128k_json"},
	{"viz -spec viz-resolved.json -width 80", "paper_128k_json"},
	{"fleet -spec examples/fleet_capacity/fleet_stream.json -emit-spec fleet-resolved.json -json", "fleet_emit"},
	{"fleet -spec fleet-resolved.json -json", "fleet_emit"},
	{"sim -spec examples/heterogeneous/mixed_a800_h20.json -emit-spec hetero-resolved.json -json", "hetero_emit"},
	{"sim -spec hetero-resolved.json -json", "hetero_emit"},
	{"serve -spec examples/interactive_decode/gqa_1m.json -emit-spec decode-resolved.json -json", "serve_emit"},
	{"serve -spec decode-resolved.json -json", "serve_emit"},

	// Cross-kind: -spec runs what the file describes under any subcommand.
	// Each of these failed before the tools merged, because every tool
	// wrote its own spec section before resolving.
	{"bench -spec examples/fleet_capacity/fleet_stream.json", "fleet_stream"},
	{"serve -spec examples/fleet_capacity/fleet_stream.json", "fleet_stream"},
	{"sim -spec examples/interactive_decode/gqa_1m.json", "serve_gqa"},
	{"sim -spec examples/spec_driven/tune_a800_64gb.json", "tune_emit"},
}

// inWorkDir runs the test in a scratch directory where examples/ resolves
// to the repository's, as it does from the repository root in CI.
func inWorkDir(t *testing.T) {
	t.Helper()
	examples, err := filepath.Abs(filepath.Join("..", "..", "examples"))
	if err != nil {
		t.Fatal(err)
	}
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	if err := os.Symlink(examples, filepath.Join(work, "examples")); err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(work); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(prev) })
}

func TestTraffic(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	inWorkDir(t)
	for _, tc := range traffic {
		var stdout, stderr bytes.Buffer
		if err := run(strings.Fields(tc.args), &stdout, &stderr); err != nil {
			t.Errorf("helix %s: %v\n%s", tc.args, err, stderr.String())
			continue
		}
		want, err := os.ReadFile(filepath.Join(testdata, "stdout", tc.golden+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("helix %s: stdout differs from testdata/stdout/%s.txt\ngot:\n%s", tc.args, tc.golden, stdout.String())
		}
	}
	// Every -emit-spec file matches the one the old tools wrote.
	emitted, err := filepath.Glob(filepath.Join(testdata, "emit", "*.json"))
	if err != nil || len(emitted) == 0 {
		t.Fatalf("no emitted-spec captures: %v", err)
	}
	for _, path := range emitted {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Base(path))
		if err != nil {
			t.Errorf("%s was not emitted: %v", filepath.Base(path), err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("emitted %s differs from testdata/emit:\n%s", filepath.Base(path), got)
		}
	}
	// CI checks the fleet's per-job CSV: a header plus one row per job.
	if csv, err := os.ReadFile("fleet-jobs.csv"); err != nil || bytes.Count(csv, []byte("\n")) != 61 {
		t.Errorf("fleet-jobs.csv: want 61 lines (err %v)", err)
	}
}

// TestFlagNames pins each subcommand's flag names to the sorted -h listing
// of the tool it replaces, and checks that each flag is defined once.
func TestFlagNames(t *testing.T) {
	defined := map[string]bool{}
	for _, d := range flagDefs {
		if defined[d.name] {
			t.Errorf("flag -%s is defined twice", d.name)
		}
		defined[d.name] = true
	}
	for _, cmd := range commands {
		c, err := parse(cmd, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for name := range c.vals {
			got = append(got, name)
		}
		sort.Strings(got)
		want, err := os.ReadFile(filepath.Join("testdata", "flags", cmd.name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, "\n")+"\n" != string(want) {
			t.Errorf("%s flags:\n%s\nwant:\n%s", cmd.name, strings.Join(got, " "), want)
		}
	}
}

// TestExitPaths checks the exit statuses main maps run's errors to: bare
// statuses for listings and usage, plain errors (exit 1) for everything
// set-up rejects.
func TestExitPaths(t *testing.T) {
	inWorkDir(t)
	for _, tc := range []struct {
		args   string
		status int    // 1 for a plain error
		stderr string // a substring of what the user reads
	}{
		{"sim -method help", 2, "run every registered method"},
		{"bench -method nosuch", 2, `unknown method "nosuch"`},
		{"train -method help", 2, "HelixPipe-norecompute"},
		{"train -method all", 1, "one method at a time"},
		{"fleet -policy help", 2, "preempt"},
		{"fleet", 1, "needs a spec with a fleet section"},
		{"fleet -spec examples/fleet_capacity/fleet_stream.json -jobs 2000000000", 1, "fleet jobs must be between 1 and 65536"},
		{"", 2, "usage: helix <command>"},
		{"simulate", 2, "usage: helix <command>"},
		{"sim -h", 0, "-placement"},
		{"sim -seq abc", 2, "invalid value"},
		{"sim -pp 5 -model 3B", 1, "divisible by stages"},
		{"sim -order packed", 1, "-order requires"},
		{"sim extra", 1, "unexpected arguments"},
		{"tune -pp 2,x", 1, `"x" is not an integer`},
		{"viz -emit-spec out.json", 1, "requires -spec"},
		{"viz -figure 3", 1, "unknown figure 3"},
		{"bench -csv out.csv", 1, "use it with -method or -spec"},
		{"bench -diff x", 2, "flag provided but not defined: -diff"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(strings.Fields(tc.args), &stdout, &stderr)
		status := 1
		var code exitCode
		if errors.As(err, &code) {
			status = int(code)
		} else if err != nil {
			stderr.WriteString(err.Error())
		} else {
			status = -1
		}
		if status != tc.status || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("helix %s: status %d, stderr %q; want status %d and %q",
				tc.args, status, stderr.String(), tc.status, tc.stderr)
		}
		if tc.args == "train -method help" && strings.Contains(stderr.String(), "run every registered method") {
			t.Errorf("helix train lists the 'all' row, but trains one method")
		}
	}
}

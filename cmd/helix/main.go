// Command helix is the command-line front door of the HelixPipe
// reproduction. Every subcommand describes its run as one
// helixpipe.ExperimentSpec: -spec loads a saved spec file, explicitly-set
// flags are layered onto it as overrides (a flag default only fills a field
// the spec leaves unset), and -emit-spec writes back the fully-resolved
// spec so the exact run can be reproduced from one artifact.
//
// A subcommand is a preset: it decides which spec section its flags fill
// and how cell reports print as text. What runs is decided by the resolved
// spec's run kind, so -spec runs what the file describes under any
// subcommand: cells stream through Session.Execute, a tune grid through
// Session.Autotune, a fleet section through Session.Fleet and a decode
// section through Session.Decode.
//
// Usage:
//
//	helix sim   -model 7B -cluster H20 -seq 131072 -pp 8 -method HelixPipe [-timeline] [-svg out.svg]
//	helix sim   -method all -json          # every registered method, JSON reports
//	helix sim   -spec examples/spec_driven/paper_128k.json -pp 4 -emit-spec resolved.json
//	helix sim   -cluster DGX-A800x4 -pp 16 -placement greedy -perturb slow=3x2.0,link=ibx0.5
//	helix bench                            # every paper table and figure
//	helix bench -exp table2 -json          # one experiment, as JSON
//	helix bench -method helixpipe,1f1b -csv sweep.csv
//	                                       # Figure 8 sweep, rows streamed as cells complete
//	helix bench -diff prev/BENCH_baseline.json -against BENCH_baseline.json
//	                                       # perf trajectory: exit 1 on a >10% regression
//	helix tune  -model 3B -cluster A800 -budget 64 -seq 32768,65536 -pp 2,4,8
//	helix tune  -dist longtail -orders packed,longest,shortest,balanced
//	helix fleet -spec examples/fleet_capacity/fleet_stream.json -policy preempt -csv jobs.csv
//	helix serve -model 7B -cluster H20 -kv-heads 8 -context 1048576
//	helix serve -model 7B -cluster H20 -mla -context 4194304
//	helix train -method HelixPipe -steps 10 -pp 2   # numeric gradient parity
//	helix viz   -figure 7 -svgdir out/     # the paper's schedule diagrams
//	helix viz   -spec examples/spec_driven/paper_128k.json -perfetto trace.json
//
// -method help lists the registered methods and fleet -policy help the
// admission policies; helix <command> -h lists a command's flags.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	helixpipe "repro"
	"repro/internal/obs"
)

// command is one subcommand preset.
type command struct {
	name, about string
	// mode runs a mode that is not a spec run (bench's tables and -diff
	// gate, viz's figure panels) and reports whether it did.
	mode func(c *call) (bool, error)
	// fill layers the subcommand's own flags onto the spec sections it
	// presets.
	fill func(c *call, s *helixpipe.ExperimentSpec) error
	// body replaces the run-kind dispatch: train's loop and parity check.
	body runner
	// cell prints one cell report as text; header precedes the first.
	cell   func(c *call, r *helixpipe.Report)
	header string
	// observe runs cells on an observed session: a live progress line, an
	// observable report cache and telemetry stamped into the reports.
	observe bool
	// draws marks a command whose stdout carries timeline diagrams: it
	// announces output files on stderr and consumes every traced span.
	draws bool
}

// runner executes a resolved spec.
type runner func(c *call, s *helixpipe.ExperimentSpec, session *helixpipe.Session, rs helixpipe.RunSet) error

var commands = []*command{
	{name: "sim", about: "simulate one training iteration per method and print per-stage utilization",
		fill: fillSim, cell: printReport},
	{name: "bench", about: "regenerate the paper's tables and figures, or sweep methods over the Figure 8 grid",
		mode: benchMode, fill: fillBench, cell: benchRow, observe: true,
		header: fmt.Sprintf("%-22s %-8s %-4s %-14s %-14s %-10s\n",
			"method", "seq", "pp", "iteration (s)", "tokens/s", "bubble %")},
	{name: "tune", about: "search the method x seqlen x stages x micro-batch grid under a memory budget",
		fill: fillTune, cell: printReport},
	{name: "fleet", about: "simulate a stream of training jobs sharing one topology cluster",
		fill: fillFleet, cell: printReport},
	{name: "serve", about: "price interactive decoding over the Helix Parallelism KVP x TPA lattice",
		fill: fillServe, cell: printReport},
	{name: "train", about: "train a tiny GPT numerically and check gradient parity with one device",
		fill: fillTrain, body: trainBody},
	{name: "viz", about: "render the paper's schedule diagrams (Figures 2, 5, 6, 7) or a spec's timelines",
		mode: vizMode, fill: fillViz, cell: vizCell, draws: true},
}

// exitCode is an error that carries a bare exit status: whatever the user
// needs to read has already been printed.
type exitCode int

func (e exitCode) Error() string { return fmt.Sprintf("exit status %d", int(e)) }

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		var code exitCode
		if !errors.As(err, &code) {
			fmt.Fprintf(os.Stderr, "helix %s: %v\n", os.Args[1], err)
			code = 1
		}
		os.Exit(int(code))
	}
}

// run executes one helix command line (without the program name).
func run(args []string, stdout, stderr io.Writer) error {
	var cmd *command
	for _, c := range commands {
		if len(args) > 0 && args[0] == c.name {
			cmd = c
		}
	}
	if cmd == nil {
		fmt.Fprintln(stderr, "usage: helix <command> [flags]\n\ncommands:")
		for _, c := range commands {
			fmt.Fprintf(stderr, "  %-6s %s\n", c.name, c.about)
		}
		fmt.Fprintln(stderr, "\nrun 'helix <command> -h' for a command's flags")
		return exitCode(2)
	}
	c, err := parse(cmd, args[1:], stdout, stderr)
	if err != nil {
		return err
	}
	if addr := c.str("listen"); addr != "" {
		bound, err := obs.Serve(addr, obs.Default())
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "helix %s: serving /metrics and /debug/vars on http://%s\n", cmd.name, bound)
	}
	if cmd.mode != nil {
		if done, err := cmd.mode(c); done {
			return err
		}
	}

	spec := &helixpipe.ExperimentSpec{}
	if path := c.str("spec"); path != "" {
		if spec, err = helixpipe.ParseSpecFile(path); err != nil {
			return err
		}
	}
	if err := c.layerCommon(spec); err != nil {
		return err
	}
	if err := cmd.fill(c, spec); err != nil {
		return err
	}
	if err := c.emit(spec); err != nil {
		return err
	}
	session, rs, err := spec.Resolve()
	if err != nil {
		return err
	}
	if !cmd.draws {
		for _, note := range spec.Notes() {
			fmt.Fprintf(stderr, "helix %s: note: %s\n", cmd.name, note)
		}
	}
	exec := cmd.body
	if exec == nil {
		switch rs.Kind {
		case helixpipe.RunKindTune:
			exec = runTune
		case helixpipe.RunKindFleet:
			exec = runFleet
		case helixpipe.RunKindDecode:
			exec = runDecode
		default:
			exec = runCells
		}
	}
	return exec(c, spec, session, rs)
}

// noSection reports whether the spec leaves its run kind to the
// subcommand: it has no sweep, tune, fleet or decode section. Only then do
// bench, tune and serve add theirs.
func noSection(s *helixpipe.ExperimentSpec) bool {
	return s.Sweep == nil && s.Tune == nil && s.Fleet == nil && s.Decode == nil
}

func fillSim(c *call, s *helixpipe.ExperimentSpec) error {
	layer(c, "placement", &s.Placement)
	// The HelixPipe default applies to flag-only runs; a spec file that
	// omits methods keeps the spec semantics: every registered method.
	return c.methods(s, c.str("spec") == "")
}

func fillBench(c *call, s *helixpipe.ExperimentSpec) error {
	if s.Engine == helixpipe.SpecEngineNumeric {
		return errors.New("bench benchmarks the simulator; run numeric-engine specs with helix train")
	}
	layer(c, "nocache", &s.NoCache)
	if noSection(s) {
		// The paper's Figure 8 axes. A workload spec sweeps stages only:
		// its per-micro-batch shapes replace the sequence-length axis.
		sw := &helixpipe.SpecSweep{Stages: []int{2, 4, 8}}
		if s.Workload == nil {
			sw.SeqLens = []int{32768, 65536, 98304, 131072}
		}
		s.Sweep = sw
	}
	return c.methods(s, true)
}

func fillTune(c *call, s *helixpipe.ExperimentSpec) error {
	if err := c.methods(s, true); err != nil {
		return err
	}
	if noSection(s) {
		s.Tune = &helixpipe.SpecTune{}
	}
	t := s.Tune
	if t == nil {
		return nil
	}
	// The default fixed-length axis applies on flag-driven runs (with -dist
	// it ranks the workload in addition to the fixed grid); only a spec
	// file's own workload keeps the search workload-only.
	if err := errors.Join(
		c.ints("seq", &t.SeqLens, s.Workload == nil || c.set["dist"]),
		c.ints("pp", &t.Stages, true),
		c.ints("m", &t.MicroBatches, true),
		c.ints("b", &t.MicroBatchSizes, true)); err != nil {
		return err
	}
	layer(c, "budget", &t.BudgetGB)
	layer(c, "objective", &t.Objective)
	layer(c, "target", &t.Budget)
	layer(c, "workers", &t.Workers)
	if c.set["placement"] {
		t.Placements = splitList(c.str("placement"))
	}
	if c.set["orders"] {
		t.Orders = splitList(c.str("orders"))
	}
	return nil
}

func fillFleet(c *call, s *helixpipe.ExperimentSpec) error {
	if strings.EqualFold(c.str("policy"), "help") {
		fmt.Fprint(c.stderr, helixpipe.FleetPolicyListing())
		return exitCode(2)
	}
	if c.str("spec") == "" {
		return errors.New("a fleet run needs a spec with a fleet section: helix fleet -spec examples/fleet_capacity/fleet_stream.json")
	}
	if f := s.Fleet; f != nil {
		layer(c, "policy", &f.Policy)
		layer(c, "arrival", &f.Arrival)
		layer(c, "trace", &f.Trace)
		layer(c, "jobs", &f.Jobs)
		layer(c, "rate", &f.RatePerHour)
		layer(c, "fleet-seed", &f.Seed)
	}
	return nil
}

func fillServe(c *call, s *helixpipe.ExperimentSpec) error {
	if noSection(s) {
		s.Decode = &helixpipe.SpecDecode{}
	}
	d := s.Decode
	if d == nil {
		return nil
	}
	layer(c, "context", &d.ContextLen)
	layer(c, "tokens", &d.DecodeTokens)
	layer(c, "sessions", &d.Sessions)
	layer(c, "gpus", &d.GPUs)
	layer(c, "kv-heads", &d.KVHeads)
	layer(c, "mla", &d.MLA)
	layer(c, "latent-dim", &d.LatentDim)
	layer(c, "objective", &d.Objective)
	layer(c, "budget", &d.BudgetGB)
	return errors.Join(c.ints("kvp", &d.KVP, false), c.ints("tpa", &d.TPA, false))
}

// fillTrain presets the numeric parity run: the tiny model, two two-fold
// FILO loops of micro batches (m = 4p) and the numeric engine. The loop
// knobs -steps and -lr stay outside the spec, which reproduces the
// model/schedule/geometry/seed configuration, not the loop length.
func fillTrain(c *call, s *helixpipe.ExperimentSpec) error {
	if s.Engine != "" && s.Engine != helixpipe.SpecEngineNumeric {
		return fmt.Errorf("train runs the numeric engine; the spec names %q", s.Engine)
	}
	s.Engine = helixpipe.SpecEngineNumeric
	if s.Model == "" {
		s.Model = "tiny"
	}
	if s.Cluster == "" {
		s.Cluster = "H20"
	}
	if strings.EqualFold(c.str("method"), "all") {
		return fmt.Errorf("train trains one method at a time; pick one of:\n%s", helixpipe.MethodListing())
	}
	if err := c.methods(s, true); err != nil {
		return err
	}
	if s.MicroBatches == 0 {
		s.MicroBatches = 2 * s.Stages * 2
	}
	return nil
}

// fillViz forces tracing: every cell of the spec becomes one timeline
// panel.
func fillViz(c *call, s *helixpipe.ExperimentSpec) error {
	if s.Engine == helixpipe.SpecEngineNumeric {
		return errors.New("the numeric engine records no simulator spans; use a sim-engine spec")
	}
	s.Trace = true
	return nil
}

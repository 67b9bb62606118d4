package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	helixpipe "repro"
)

// on maps each subcommand that registers a flag to the flag's default
// there. The default's Go type is the flag's type on that subcommand: tune
// takes its geometry flags as comma-separated candidate lists where sim and
// train take one integer.
type on map[string]any

// flagDefs defines every flag of every subcommand exactly once.
var flagDefs = []struct {
	name, usage string
	defaults    on
}{
	{"spec", "experiment spec JSON file; explicitly-set flags override its fields", on{"sim": "", "bench": "", "tune": "", "fleet": "", "serve": "", "train": "", "viz": ""}},
	{"emit-spec", "write the fully-resolved experiment spec to this path ('-' for stdout) for exact reproduction", on{"sim": "", "bench": "", "tune": "", "fleet": "", "serve": "", "train": "", "viz": ""}},
	{"json", "emit machine-readable JSON on stdout", on{"sim": false, "bench": false, "tune": false, "fleet": false, "serve": false, "train": false, "viz": false}},
	{"model", "model preset: 1.3B, 3B, 7B, 13B, tiny", on{"sim": "7B", "bench": "7B", "tune": "3B", "serve": "7B"}},
	{"cluster", "cluster: flat preset (H20, A800), topology preset (DGX-A800x4, DGX-H20x2, PCIe-box), or a topology .json file", on{"sim": "H20", "bench": "H20", "tune": "A800", "serve": "H20"}},
	{"method", "comma-separated schedule names (case-insensitive), 'all', or 'help' to list; bench sweeps them instead of running experiments", on{"sim": "HelixPipe", "bench": "", "tune": "", "train": "HelixPipe"}},
	{"seq", "sequence length (tune: comma-separated candidates)", on{"sim": 131072, "tune": "32768,65536,131072", "train": 16}},
	{"pp", "pipeline size in stages (tune: comma-separated candidates)", on{"sim": 8, "tune": "2,4,8", "train": 2}},
	{"b", "micro batch size (tune: comma-separated candidates)", on{"sim": 1, "tune": "1"}},
	{"m", "micro batches per iteration, 0 = 2*pp (tune: comma-separated candidates)", on{"sim": 0, "tune": "0"}},
	{"csv", "also write CSV rows to this path (bench streams them as cells complete)", on{"sim": "", "bench": "", "tune": "", "fleet": ""}},
	{"perfetto", "write a Perfetto/Chrome trace-event JSON file to this path (forces tracing)", on{"sim": "", "fleet": "", "serve": "", "viz": ""}},
	{"timeline", "print an ASCII timeline", on{"sim": false}},
	{"svg", "write an SVG timeline to this path", on{"sim": ""}},
	{"dist", "variable-length workload: document-length distribution (uniform, bimodal, longtail)", on{"sim": "", "tune": ""}},
	{"docs", "variable-length workload: documents to sample", on{"sim": 64, "tune": 64}},
	{"minseq", "variable-length workload: shortest document (0 = longest/16)", on{"sim": 0, "tune": 8192}},
	{"maxseq", "variable-length workload: longest document and micro-batch token budget", on{"tune": 131072}},
	{"dist-seed", "variable-length workload: sampling seed", on{"sim": uint64(42), "tune": uint64(42)}},
	{"order", "variable-length workload: micro-batch order (packed, longest, shortest, balanced)", on{"sim": ""}},
	{"orders", "variable-length workload: comma-separated micro-batch orders to cross with methods", on{"tune": ""}},
	{"placement", "topology clusters: placement strategy (contiguous, roundrobin, greedy); tune searches a comma-separated list", on{"sim": "", "tune": ""}},
	{"place-seed", "topology clusters: greedy placement search seed", on{"sim": uint64(1)}},
	{"perturb", "topology clusters: fault injection, e.g. slow=3x2.0,link=ibx0.5,jitter=0.05,seed=7", on{"sim": "", "tune": ""}},
	{"budget", "per-GPU memory budget in GB: model states included (tune), KV cache plus weight shard (serve); 0 = GPU capacity", on{"tune": 0.0, "serve": 0.0}},
	{"objective", "ranking objective: throughput (tune's default) or latency_per_token (serve's default)", on{"tune": "", "serve": ""}},
	{"target", "early-stopping target in the objective's unit (tokens/s or seconds/token); 0 searches the full grid", on{"tune": 0.0}},
	{"workers", "simulation worker pool size (0 = GOMAXPROCS)", on{"tune": 0}},
	{"exp", "experiment id prefix (all, table1, table2, table3, fig3, fig4, fig8, fig9, fig10, fig11, chunk, saturation, interleaved, zb1p-sensitivity)", on{"bench": "all"}},
	{"out", "directory to write one .txt per experiment", on{"bench": ""}},
	{"metrics", "dump the telemetry metrics snapshot (Prometheus text) to stderr after a sweep", on{"bench": false}},
	{"listen", "serve /metrics and /debug/vars on this address (e.g. localhost:6060) for the run's duration", on{"bench": "", "fleet": "", "serve": ""}},
	{"policy", "admission/placement policy (fifo, bestfit, worstfit, backfill, preempt; 'help' to list)", on{"fleet": ""}},
	{"jobs", "number of jobs to generate (default 50)", on{"fleet": 0}},
	{"arrival", "arrival generator: poisson or bursty", on{"fleet": ""}},
	{"rate", "mean arrival rate in jobs/hour (default 12)", on{"fleet": 0.0}},
	{"fleet-seed", "arrival and template-draw seed (default 1)", on{"fleet": uint64(0)}},
	{"trace", "replay arrivals from a JSON trace file instead of generating them", on{"fleet": ""}},
	{"context", "KV-cache context length in tokens at decode start (default 1M)", on{"serve": 0}},
	{"tokens", "tokens to decode per session (default 32)", on{"serve": 0}},
	{"sessions", "concurrent decoding sessions, i.e. the batch (default 4)", on{"serve": 0}},
	{"gpus", "GPUs to shard across (default 8)", on{"serve": 0}},
	{"kv-heads", "GQA KV-head count (default the model's full head count, MHA)", on{"serve": 0}},
	{"mla", "multi-head latent attention: one shared latent KV, lattice collapses to pure KVP", on{"serve": false}},
	{"latent-dim", "MLA latent dimension (default 512; requires -mla)", on{"serve": 0}},
	{"kvp", "comma-separated KVP (sequence-shard) values; empty enumerates the lattice", on{"serve": ""}},
	{"tpa", "comma-separated TPA (KV-head-shard) values; empty enumerates the lattice", on{"serve": ""}},
	{"steps", "optimizer steps", on{"train": 10}},
	{"lr", "Adam learning rate", on{"train": 3e-3}},
	{"seed", "init/data seed", on{"train": uint64(42)}},
	{"figure", "paper figure to render: 2, 5, 6 or 7", on{"viz": 2}},
	{"width", "ASCII timeline width", on{"viz": 140}},
	{"svgdir", "write SVG files to this directory", on{"viz": ""}},
}

// call is one invocation of a subcommand: the command, its parsed flags and
// the streams it writes to.
type call struct {
	cmd            *command
	vals           map[string]any       // flag name -> *string, *int, *uint64, *float64 or *bool
	set            map[string]bool      // flags given on the command line
	out            helixpipe.SpecOutput // the run's output selection (layerCommon)
	stdout, stderr io.Writer
}

// parse registers the command's flags and parses args. -h returns exit
// code 0 and a malformed command line exit code 2, after the flag package
// has printed the usage.
func parse(cmd *command, args []string, stdout, stderr io.Writer) (*call, error) {
	fs := flag.NewFlagSet("helix "+cmd.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &call{cmd: cmd, vals: map[string]any{}, set: map[string]bool{}, stdout: stdout, stderr: stderr}
	for _, d := range flagDefs {
		switch def := d.defaults[cmd.name].(type) {
		case string:
			c.vals[d.name] = fs.String(d.name, def, d.usage)
		case int:
			c.vals[d.name] = fs.Int(d.name, def, d.usage)
		case uint64:
			c.vals[d.name] = fs.Uint64(d.name, def, d.usage)
		case float64:
			c.vals[d.name] = fs.Float64(d.name, def, d.usage)
		case bool:
			c.vals[d.name] = fs.Bool(d.name, def, d.usage)
		}
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, exitCode(0)
		}
		return nil, exitCode(2)
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	fs.Visit(func(f *flag.Flag) { c.set[f.Name] = true })
	return c, nil
}

// get returns a flag's value, or T's zero value when the subcommand does
// not register the flag.
func get[T any](c *call, name string) T {
	if p, ok := c.vals[name].(*T); ok {
		return *p
	}
	var zero T
	return zero
}

func (c *call) str(name string) string { return get[string](c, name) }

// layer layers a flag onto a spec field: a flag the user typed always
// overrides, and a flag default only fills a field the spec leaves zero. A
// flag the subcommand does not register leaves the field alone.
func layer[T comparable](c *call, name string, dst *T) {
	var zero T
	if p, ok := c.vals[name].(*T); ok && (c.set[name] || *dst == zero) {
		*dst = *p
	}
}

// override copies a flag onto a spec field only when the user typed it.
func override[T any](c *call, name string, dst *T) {
	if c.set[name] {
		*dst = get[T](c, name)
	}
}

// ints layers a comma-separated integer-list flag onto a spec axis: a
// typed list always, the default only when fill holds and the axis is
// empty.
func (c *call) ints(name string, dst *[]int, fill bool) error {
	if !c.set[name] && (!fill || len(*dst) > 0) {
		return nil
	}
	var out []int
	for _, part := range splitList(c.str(name)) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return fmt.Errorf("-%s: %q is not an integer", name, part)
		}
		out = append(out, v)
	}
	*dst = out
	return nil
}

// splitList splits a comma-separated list flag, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// methods layers -method onto the spec's method list: a typed value
// always, the flag default only when fill holds and the spec names no
// methods. "all" passes through for the spec layer to expand; "help" or an
// unknown name prints the registry listing and exits 2.
func (c *call) methods(s *helixpipe.ExperimentSpec, fill bool) error {
	if !c.set["method"] && (!fill || len(s.Methods) > 0) {
		return nil
	}
	arg := c.str("method")
	var out []string
	for _, part := range splitList(arg) {
		if strings.EqualFold(part, "all") {
			out = append(out, "all")
			continue
		}
		m, ok := helixpipe.LookupMethod(part)
		if !ok {
			// train runs one method, so its listing has no "all" row.
			if !strings.EqualFold(part, "help") {
				fmt.Fprintf(c.stderr, "unknown method %q; the registered methods are:\n\n", part)
			}
			fmt.Fprint(c.stderr, helixpipe.MethodListing())
			if c.cmd.name != "train" {
				fmt.Fprintf(c.stderr, "  %-22s run every registered method\n", "all")
			}
			return exitCode(2)
		}
		out = append(out, string(m))
	}
	if arg != "" && len(out) == 0 {
		return errors.New("-method: no method given")
	}
	s.Methods = out
	return nil
}

// layerCommon layers the flags that mean the same spec field on every
// subcommand registering them: model, cluster, geometry, seeds,
// perturbation, output selection and the variable-length workload.
//
// The geometry flags set the spec's own geometry where they take one
// integer; tune's candidate lists fill its grid instead (fillTune). The
// output block stays attached only when it selects something, so
// -emit-spec never writes an empty one; the runners read the selection
// from c.out. The workload flags do nothing unless -dist was given or the
// spec carries a workload; then only typed flags override, so an unset
// -minseq/-maxseq keeps the spec's own derivation, which coincides with
// the flag defaults on a flag-only run. An explicit -dist replaces the
// spec's pinned shapes.
func (c *call) layerCommon(s *helixpipe.ExperimentSpec) error {
	layer(c, "model", &s.Model)
	layer(c, "cluster", &s.Cluster)
	layer(c, "seq", &s.SeqLen)
	layer(c, "pp", &s.Stages)
	layer(c, "b", &s.MicroBatchSize)
	layer(c, "m", &s.MicroBatches)
	layer(c, "seed", &s.Seed)
	layer(c, "place-seed", &s.PlacementSeed)
	layer(c, "perturb", &s.Perturb)
	if s.Output == nil {
		s.Output = &helixpipe.SpecOutput{}
	}
	out := s.Output
	layer(c, "json", &out.JSON)
	layer(c, "timeline", &out.Timeline)
	layer(c, "svg", &out.SVG)
	layer(c, "csv", &out.CSV)
	layer(c, "perfetto", &out.Perfetto)
	if c.out = *out; c.out == (helixpipe.SpecOutput{}) {
		s.Output = nil
	}

	dist := c.str("dist")
	if c.str("order") != "" && dist == "" && s.Workload == nil {
		return errors.New("-order requires a variable-length workload (-dist)")
	}
	if dist == "" && s.Workload == nil {
		return nil
	}
	if s.Workload == nil {
		s.Workload = &helixpipe.SpecWorkload{}
	}
	w := s.Workload
	if c.set["dist"] {
		w.Dist, w.Shapes = dist, nil
	}
	override(c, "docs", &w.Docs)
	override(c, "minseq", &w.MinSeq)
	override(c, "maxseq", &w.MaxSeq)
	override(c, "dist-seed", &w.Seed)
	override(c, "order", &w.Order)
	return nil
}

// emit writes the fully-resolved spec to the -emit-spec path, if any:
// every default filled and every name canonicalized, so the file
// re-resolves to an identical RunSet.
func (c *call) emit(s *helixpipe.ExperimentSpec) error {
	path := c.str("emit-spec")
	if path == "" {
		return nil
	}
	resolved, err := s.Resolved()
	if err != nil {
		return err
	}
	if path == "-" {
		return helixpipe.WriteSpec(c.stdout, resolved)
	}
	return helixpipe.WriteSpecFile(path, resolved)
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	helixpipe "repro"
)

// benchMode runs bench's mode that is not a spec run: the paper's tables
// and figures, unless -method or -spec asks for a sweep.
func benchMode(c *call) (bool, error) {
	switch {
	case c.str("method") != "" || c.str("spec") != "":
		return false, nil
	case c.str("emit-spec") != "":
		return true, errors.New("-emit-spec needs a spec-driven sweep (-method or -spec); the experiment tables are not spec-driven")
	case c.str("csv") != "":
		return true, errors.New("-csv streams sweep reports; use it with -method or -spec")
	}
	tables, err := helixpipe.AllExperiments()
	if err != nil {
		return true, err
	}
	exp, dir, asJSON := c.str("exp"), c.str("out"), get[bool](c, "json")
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return true, err
		}
	}
	var matched []*helixpipe.ExperimentTable
	for _, t := range tables {
		if exp != "all" && !strings.HasPrefix(t.ID, exp) {
			continue
		}
		matched = append(matched, t)
		text := t.Render()
		if !asJSON {
			fmt.Fprintln(c.stdout, text)
		}
		if dir != "" {
			if err := os.WriteFile(filepath.Join(dir, t.ID+".txt"), []byte(text), 0o644); err != nil {
				return true, err
			}
		}
	}
	if len(matched) == 0 {
		return true, fmt.Errorf("no experiment matches %q", exp)
	}
	if asJSON {
		return true, helixpipe.WriteTablesJSON(c.stdout, matched)
	}
	fmt.Fprintf(c.stdout, "ran %d experiments\n", len(matched))
	return true, nil
}

// figures lays out the paper's schedule diagrams, two panels each. The
// figures draw plain schedules without the recomputation memory strategy,
// at the didactic pre:attention:post execution-time ratio 1:3:2, with
// commTime the per-message time in those units.
var figures = map[int]struct {
	cfg      helixpipe.ScheduleConfig
	commTime float64
	panels   [2]panel
}{
	// Figure 2: 4 micro batches, 8 layers, 4 stages, no communication.
	2: {helixpipe.ScheduleConfig{Stages: 4, MicroBatches: 4, Layers: 8}, 0, [2]panel{
		{"Figure 2a: 1F1B", helixpipe.Method1F1B}, {"Figure 2b: HelixPipe FILO", helixpipe.MethodHelixNaive}}},
	// Figure 5: one layer equivalent, two stages, two micro batches.
	5: {helixpipe.ScheduleConfig{Stages: 2, MicroBatches: 2, Layers: 2}, 0, [2]panel{
		{"Figure 5a: layer-wise partition", helixpipe.MethodGPipe},
		{"Figure 5b: attention parallel partition", helixpipe.MethodHelixNaive}}},
	// Figure 6: two stages with visible communication.
	6: {helixpipe.ScheduleConfig{Stages: 2, MicroBatches: 4, Layers: 4}, 1.0, [2]panel{
		{"Figure 6a: naive FILO (blocking comm delays the pipeline)", helixpipe.MethodHelixNaive},
		{"Figure 6b: two-fold FILO (comm overlapped by attention)", helixpipe.MethodHelix}}},
	// Figure 7: 8 micro batches, 4 layers, 4 stages.
	7: {helixpipe.ScheduleConfig{Stages: 4, MicroBatches: 8, Layers: 4}, 0.5, [2]panel{
		{"Figure 7a: naive FILO", helixpipe.MethodHelixNaive}, {"Figure 7b: two-fold FILO", helixpipe.MethodHelix}}},
}

// panel is one sub-diagram of a figure: a method's schedule.
type panel struct {
	name   string
	method helixpipe.Method
}

// vizMode renders a paper figure's panels from actual simulated
// executions, unless -spec asks for a spec's timelines instead.
func vizMode(c *call) (bool, error) {
	if c.str("spec") != "" {
		return false, nil
	}
	if c.str("emit-spec") != "" {
		return true, errors.New("-emit-spec requires -spec; the didactic figures are not spec-driven")
	}
	figure := get[int](c, "figure")
	layer(c, "json", &c.out.JSON)
	fig, ok := figures[figure]
	if !ok {
		return true, fmt.Errorf("unknown figure %d (supported: 2, 5, 6, 7)", figure)
	}
	noRecompute := false
	var reports []*helixpipe.Report
	for i, p := range fig.panels {
		plan, err := helixpipe.BuildMethod(p.method, fig.cfg, helixpipe.UnitCosts(fig.commTime),
			helixpipe.BuildParams{HelixRecompute: &noRecompute})
		if err != nil {
			return true, fmt.Errorf("%s: %w", p.name, err)
		}
		report, err := helixpipe.NewSimEngine(helixpipe.SimOptions{Trace: true}).Run(plan)
		if err != nil {
			return true, fmt.Errorf("%s: %w", p.name, err)
		}
		reports = append(reports, report)
		if !c.out.JSON {
			fmt.Fprintf(c.stdout, "%s\n%s\n", p.name, report.TimelineASCII(get[int](c, "width")))
		}
		if err := c.svgPanel(report, fmt.Sprintf("figure%d_%c.svg", figure, 'a'+i)); err != nil {
			return true, err
		}
	}
	return true, c.collected(reports, c.str("perfetto"))
}

// trainBody trains the tiny GPT with the resolved method (goroutines as
// GPUs, channels as interconnect), then checks one iteration's loss and
// gradients against the single-device reference: the paper's section 4.1
// semantics claim, live.
func trainBody(c *call, s *helixpipe.ExperimentSpec, session *helixpipe.Session, rs helixpipe.RunSet) error {
	if len(rs.Cells) != 1 {
		return fmt.Errorf("train trains one method; the spec resolves to %d cells", len(rs.Cells))
	}
	method, asJSON, w := rs.Cells[0].Method, c.out.JSON, c.stdout

	cfg := helixpipe.TrainConfig{
		Model:        session.Model(),
		Method:       method,
		Stages:       session.Stages(),
		MicroBatches: session.MicroBatches(),
		Batch:        session.MicroBatchSize(),
		SeqLen:       session.SeqLen(),
		Steps:        get[int](c, "steps"),
		LR:           get[float64](c, "lr"),
		Seed:         rs.Seed,
	}
	if !asJSON {
		fmt.Fprintf(w, "training tiny GPT (%d layers, hidden %d) with %s on %d stages, %d micro batches\n",
			cfg.Model.Layers, cfg.Model.Hidden, cfg.Method, cfg.Stages, cfg.MicroBatches)
	}
	trainReport, err := helixpipe.Train(cfg)
	if err != nil {
		return err
	}
	losses := trainReport.Losses
	if !asJSON {
		for i, loss := range losses {
			fmt.Fprintf(w, "step %2d  loss %.6f\n", i, loss)
		}
		if n := len(losses); n >= 2 && losses[n-1] < losses[0] {
			fmt.Fprintf(w, "loss improved %.4f -> %.4f\n", losses[0], losses[n-1])
		}
	}

	// The parity check runs through the spec-resolved session: the numeric
	// engine and the reference share initialization seed and micro batches.
	engine := session.NumericEngine(rs.Seed)
	report, err := session.Run(engine, method)
	if err != nil {
		return err
	}
	refLoss, refGrads := helixpipe.ReferenceStep(helixpipe.NewNumericModel(cfg.Model, rs.Seed), engine.Batches)
	res := report.NumericResult()
	diff := helixpipe.GradDiff(res.Grads, refGrads)
	identical := res.Loss == refLoss && diff == 0

	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Losses    []float64         `json:"losses"`
			Parity    *helixpipe.Report `json:"parity"`
			RefLoss   float64           `json:"reference_loss"`
			GradDiff  float64           `json:"max_grad_diff"`
			Identical bool              `json:"identical"`
		}{losses, report, refLoss, diff, identical}); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "parity: pipeline loss %.9f, reference loss %.9f, max grad diff %g\n",
			res.Loss, refLoss, diff)
	}
	if !identical {
		return errors.New("parity violated")
	}
	if !asJSON {
		fmt.Fprintf(w, "%s preserves the computation semantics of single-device training (paper section 4.1)\n", method)
	}
	return nil
}

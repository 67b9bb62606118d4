package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	helixpipe "repro"
	"repro/internal/obs"
)

// writeOut creates path and hands it to write. Unless quiet or stdout
// carries JSON, it announces the file on stdout; a command that draws
// diagrams on stdout announces on stderr. An empty path selects nothing.
func (c *call) writeOut(path string, quiet bool, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if c.cmd.draws {
		fmt.Fprintf(c.stderr, "helix %s: wrote %s\n", c.cmd.name, path)
	} else if !quiet && !c.out.JSON {
		fmt.Fprintf(c.stdout, "wrote %s\n", path)
	}
	return nil
}

// collected writes the reports a run collected: the JSON array on stdout
// when selected and the Perfetto trace of their spans to perfettoPath.
func (c *call) collected(reports []*helixpipe.Report, perfettoPath string) error {
	if c.out.JSON {
		if err := helixpipe.WriteReportsJSON(c.stdout, reports); err != nil {
			return err
		}
	}
	return c.writeOut(perfettoPath, false, func(w io.Writer) error { return helixpipe.WritePerfettoTrace(w, reports) })
}

// observed attaches a live progress line on stderr to the session.
func observed(c *call, session *helixpipe.Session, label string, total int, opts ...helixpipe.Option) (*helixpipe.Session, *obs.Progress, error) {
	prog := obs.NewProgress(c.stderr, label, total)
	session, err := session.With(append(opts, helixpipe.WithEventSink(prog))...)
	return session, prog, err
}

// runCells streams a run or sweep's cell reports in cell order: each one
// prints as the subcommand's text (unless stdout carries JSON), streams
// into the CSV file and writes its SVG timeline as it lands; JSON and the
// Perfetto trace collect the whole run.
func runCells(c *call, s *helixpipe.ExperimentSpec, session *helixpipe.Session, rs helixpipe.RunSet) error {
	var prog *obs.Progress
	if c.cmd.observe {
		// A live progress line tracks rate, ETA and the cache hit ratio;
		// the sink also stamps telemetry into the reports.
		var opts []helixpipe.Option
		if !s.NoCache {
			opts = append(opts, helixpipe.WithReportCache(helixpipe.NewReportCache()))
		}
		var err error
		if session, prog, err = observed(c, session, "sweep", len(rs.Cells), opts...); err != nil {
			return err
		}
	}
	var csvFile *os.File
	var csvw *helixpipe.ReportCSVWriter
	if c.out.CSV != "" {
		var err error
		if csvFile, err = os.Create(c.out.CSV); err != nil {
			return err
		}
		defer csvFile.Close() // error paths; the success path checks Close
		if csvw, err = helixpipe.NewReportCSVWriter(csvFile); err != nil {
			return err
		}
	}
	if !c.out.JSON {
		fmt.Fprint(c.stdout, c.cmd.header)
	}
	var reports []*helixpipe.Report
	for r, err := range session.Execute(s) {
		if err != nil {
			return err
		}
		if csvw != nil {
			if err := csvw.Write(r); err != nil {
				return err
			}
		}
		if !c.out.JSON {
			c.cmd.cell(c, r)
		}
		if err := c.svgPanel(r, fmt.Sprintf("%s_seq%d_p%d.svg", r.Method, r.SeqLen, r.Stages)); err != nil {
			return err
		}
		if c.out.SVG != "" {
			path := c.out.SVG
			if len(rs.Cells) > 1 {
				suffix := "_" + string(r.Method)
				if rs.Kind == helixpipe.RunKindSweep {
					// Sweep cells repeat methods; the geometry keeps every
					// cell's file distinct.
					suffix += fmt.Sprintf("_seq%d_p%d", r.SeqLen, r.Stages)
				}
				path = strings.TrimSuffix(path, ".svg") + suffix + ".svg"
			}
			if err := c.writeOut(path, false, func(w io.Writer) error {
				_, err := io.WriteString(w, r.TimelineSVG(1400))
				return err
			}); err != nil {
				return err
			}
		}
		if c.out.JSON || c.out.Perfetto != "" {
			reports = append(reports, r)
		}
	}
	if csvFile != nil {
		if err := csvFile.Close(); err != nil {
			return err
		}
	}
	if err := c.collected(reports, c.out.Perfetto); err != nil {
		return err
	}
	if prog != nil {
		prog.Done()
		if get[bool](c, "metrics") {
			return obs.WriteProm(c.stderr, obs.Default())
		}
	}
	return nil
}

// runTune runs the autotuner and prints the best schedule per sequence
// length plus the throughput-vs-peak-memory Pareto frontier.
func runTune(c *call, s *helixpipe.ExperimentSpec, session *helixpipe.Session, rs helixpipe.RunSet) error {
	// The search publishes the grid size once pruning settles, so the
	// progress total appears as soon as the first point lands.
	session, prog, err := observed(c, session, "tune", 0)
	if err != nil {
		return err
	}
	result, err := session.Autotune(*rs.Tune)
	if err != nil {
		return err
	}
	prog.Done()
	if err := c.writeOut(c.out.CSV, true, func(w io.Writer) error { return helixpipe.WriteTuneResultCSV(w, result) }); err != nil {
		return err
	}
	if c.out.JSON {
		return helixpipe.WriteTuneResultJSON(c.stdout, result)
	}
	fmt.Fprint(c.stdout, result.Summary(), "\n", result.BestTable(), "\n", result.FrontierTable())
	for _, e := range result.Errors {
		fmt.Fprintf(c.stderr, "skipped: %s\n", e)
	}
	return nil
}

// runFleet runs a job stream on the shared cluster behind one observable
// report cache, whose hit/miss summary lands on stderr.
func runFleet(c *call, s *helixpipe.ExperimentSpec, session *helixpipe.Session, rs helixpipe.RunSet) error {
	fs := *rs.Fleet
	fs.Cache = helixpipe.NewReportCache()
	prog := obs.NewProgress(c.stderr, "fleet", 0)
	fs.Probe = func(p helixpipe.FleetProbeEvent) {
		prog.Line(fmt.Sprintf("t=%.0fs  %d queued  %d running  %d preemptions",
			p.TimeSec, p.Queued, p.Running, p.Preemptions))
	}
	report, err := session.Fleet(fs)
	if err != nil {
		return err
	}
	prog.Done()
	cs := fs.Cache.StatsDetail()
	fmt.Fprintf(c.stderr,
		"helix %s: sim cache: %d hits, %d misses, %d singleflight waits, %d entries (%.1f KB cached)\n",
		c.cmd.name, cs.Hits, cs.Misses, cs.SingleflightWaits, cs.Entries, float64(cs.Bytes)/1024)
	if c.out.JSON {
		if err := helixpipe.WriteFleetReportJSON(c.stdout, report); err != nil {
			return err
		}
	} else {
		fmt.Fprint(c.stdout, report.Summary())
		for _, lt := range report.LinkTraffic {
			fmt.Fprintf(c.stdout, "  link %-8s %10.1f GB in %d transfers (%.1fs wire time)\n",
				lt.Class, float64(lt.Bytes)/(1<<30), lt.Transfers, lt.Seconds)
		}
	}
	if err := c.writeOut(c.out.CSV, false, func(w io.Writer) error { return helixpipe.WriteFleetReportCSV(w, report) }); err != nil {
		return err
	}
	return c.writeOut(c.out.Perfetto, false, func(w io.Writer) error { return helixpipe.WriteFleetPerfetto(w, report) })
}

// runDecode searches the decode lattice and prints the ranked shardings.
func runDecode(c *call, s *helixpipe.ExperimentSpec, session *helixpipe.Session, rs helixpipe.RunSet) error {
	session, prog, err := observed(c, session, "decode", 0)
	if err != nil {
		return err
	}
	report, err := session.Decode(*rs.Decode)
	if err != nil {
		return err
	}
	prog.Done()
	if c.out.JSON {
		if err := helixpipe.WriteDecodeReportJSON(c.stdout, report); err != nil {
			return err
		}
	} else {
		fmt.Fprint(c.stdout, report.Summary(), "\n", report.Table())
	}
	return c.writeOut(c.out.Perfetto, false, func(w io.Writer) error { return helixpipe.WriteDecodePerfetto(w, report) })
}

// printReport prints a cell's per-stage utilization, memory and
// throughput summary, followed by its ASCII timeline when selected.
func printReport(c *call, r *helixpipe.Report) {
	w := c.stdout
	if r.Sim == nil {
		// A numeric-engine spec run has no simulator metrics.
		if r.Numeric != nil {
			fmt.Fprintf(w, "%-22s numeric loss %.6f\n", r.Method, r.Numeric.Loss)
		}
		return
	}
	s := r.Sim
	fmt.Fprintf(w, "%-22s iteration %8.3f s   %10.0f tokens/s   bubble %6.1f%%   peak stash %.1f GB\n",
		r.Method, s.IterationSeconds, s.TokensPerSecond,
		s.BubbleFraction*100, float64(s.MaxPeakStashBytes)/(1<<30))
	if len(r.SeqLenHistogram) > 0 {
		fmt.Fprintf(w, "  %d mixed-length micro batches, %d tokens/iteration; seq lens:",
			r.MicroBatches, r.TokensPerIteration)
		for _, b := range r.SeqLenHistogram {
			fmt.Fprintf(w, "  %d-%d x%d", b.MinSeqLen, b.MaxSeqLen, b.MicroBatches)
		}
		fmt.Fprintln(w)
	}
	if r.PadFraction > 0 {
		fmt.Fprintf(w, "  padding: %d real of %d padded tokens (%.1f%% waste)\n",
			r.RealTokens, r.TokensPerIteration, r.PadFraction*100)
	}
	if len(r.Placement) > 0 {
		fmt.Fprintf(w, "  topology %s, placement %s %v\n", r.Topology, r.PlacementStrategy, r.Placement)
	}
	for _, lt := range s.LinkTraffic {
		fmt.Fprintf(w, "  link %-8s %8.1f GB in %d transfers (%.2fs wire time)\n",
			lt.Class, float64(lt.Bytes)/(1<<30), lt.Transfers, lt.Seconds)
	}
	for _, st := range s.PerStage {
		fmt.Fprintf(w, "  P%-2d busy %7.2fs  idle %6.2fs  recv-wait %6.2fs  comm-stall %6.2fs  stash %.1f GB  sent %.1f GB\n",
			st.Stage, st.BusySeconds, st.IdleSeconds, st.WaitSeconds,
			st.CommStallSeconds, float64(st.PeakStashBytes)/(1<<30),
			float64(st.BytesSent)/(1<<30))
	}
	if c.out.Timeline {
		fmt.Fprintln(w, r.TimelineASCII(140))
	}
}

// benchRow prints a sweep cell as one row of the bench table.
func benchRow(c *call, r *helixpipe.Report) {
	fmt.Fprintf(c.stdout, "%-22s %-8d %-4d %-14.3f %-14.0f %-10.1f\n",
		r.Method, r.SeqLen, r.Stages,
		r.Sim.IterationSeconds, r.Sim.TokensPerSecond, r.Sim.BubbleFraction*100)
}

// vizCell renders a cell as one timeline panel.
func vizCell(c *call, r *helixpipe.Report) {
	fmt.Fprintf(c.stdout, "%s seq=%d p=%d\n%s\n", r.Method, r.SeqLen, r.Stages, r.TimelineASCII(get[int](c, "width")))
}

// svgPanel writes a panel's SVG timeline into -svgdir, if given.
func (c *call) svgPanel(r *helixpipe.Report, name string) error {
	dir := c.str("svgdir")
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(r.TimelineSVG(1400)), 0o644); err != nil {
		return err
	}
	if !c.out.JSON {
		fmt.Fprintf(c.stdout, "wrote %s\n\n", path)
	}
	return nil
}

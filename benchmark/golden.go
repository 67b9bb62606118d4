package main

// The golden check: every example spec under examples/ must still render
// its committed golden output byte for byte — the check the repository's
// golden-report test makes — before anything is timed.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	helix "repro"
)

// checkGoldens replays every example spec and returns how many matched.
func checkGoldens() (int, error) {
	paths, err := filepath.Glob("examples/*/*.json")
	if err != nil {
		return 0, err
	}
	n := 0
	for _, path := range paths {
		if strings.HasSuffix(path, ".golden.json") || strings.HasSuffix(path, ".trace.json") {
			continue
		}
		got, err := goldenOutput(path)
		if err != nil {
			return n, fmt.Errorf("%s: %w", path, err)
		}
		want, err := os.ReadFile(strings.TrimSuffix(path, ".json") + ".golden.json")
		if err != nil {
			return n, err
		}
		if !bytes.Equal(got, want) {
			return n, fmt.Errorf("%s: output drifted from its golden file", path)
		}
		n++
	}
	if n == 0 {
		return 0, errors.New("no example specs under examples/; run from the repository root")
	}
	return n, nil
}

// goldenOutput renders one example spec's canonical JSON output.
func goldenOutput(path string) ([]byte, error) {
	spec, err := helix.ParseSpecFile(path)
	if err != nil {
		return nil, err
	}
	session, rs, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	switch rs.Kind {
	case helix.RunKindDecode:
		rep, err := session.Decode(*rs.Decode)
		if err != nil {
			return nil, err
		}
		err = helix.WriteDecodeReportJSON(&buf, rep)
		return buf.Bytes(), err
	case helix.RunKindFleet:
		rep, err := session.Fleet(*rs.Fleet)
		if err != nil {
			return nil, err
		}
		err = helix.WriteFleetReportJSON(&buf, rep)
		return buf.Bytes(), err
	case helix.RunKindTune:
		res, err := session.Autotune(*rs.Tune)
		if err != nil {
			return nil, err
		}
		err = helix.WriteTuneResultJSON(&buf, res)
		return buf.Bytes(), err
	}
	var reports []*helix.Report
	for r, err := range session.Execute(spec) {
		if err != nil {
			return nil, err
		}
		reports = append(reports, r)
	}
	helix.StripTelemetry(reports)
	err = helix.WriteReportsJSON(&buf, reports)
	return buf.Bytes(), err
}

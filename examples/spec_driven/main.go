// Spec-driven experiments: instead of hand-building a session from option
// chains, load a committed ExperimentSpec, resolve it eagerly into a
// session plus a RunSet, and stream its reports with Session.Execute. The
// same file drives helix sim (-spec examples/spec_driven/paper_128k.json),
// so a result in a paper, a CI log and this example are all the same
// reproducible artifact.
//
// Run with: go run ./examples/spec_driven
package main

import (
	"fmt"
	"log"
	"os"

	helixpipe "repro"
)

func main() {
	log.SetFlags(0)

	// 1. Load the committed paper configuration: 3B on the A800 testbed at
	// 128k tokens per sequence, the four headline schedules.
	spec, err := helixpipe.ParseSpecFile("examples/spec_driven/paper_128k.json")
	if err != nil {
		log.Fatal(err)
	}

	// 2. Resolve it eagerly: every unknown name or impossible geometry
	// errors here, before anything simulates. The RunSet is the resolved
	// execution plan — what Execute will run, cell by cell.
	session, runset, err := spec.Resolve()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resolved a %s run of %d cells on %s/%s (seq %d, %d stages)\n\n",
		runset.Kind, len(runset.Cells), spec.Model, spec.Cluster,
		session.SeqLen(), session.Stages())

	// 3. Execute streams reports as each cell's simulation completes — a
	// 500-cell sweep holds at most a worker-pool's worth of reports, not
	// five hundred.
	fmt.Printf("%-12s %12s %12s %10s\n", "method", "iteration", "tokens/s", "bubble")
	for report, err := range session.Execute(spec) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %10.2f s %12.0f %9.1f%%\n",
			report.Method, report.Sim.IterationSeconds,
			report.Sim.TokensPerSecond, report.Sim.BubbleFraction*100)
	}

	// 4. Reproduction: Resolved() fills every default and canonicalizes
	// every name; the emitted spec re-resolves to an identical RunSet. This
	// is what the tools' -emit-spec writes.
	resolved, err := spec.Resolved()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfully-resolved spec (helix sim -emit-spec equivalent):")
	if err := helixpipe.WriteSpec(os.Stdout, resolved); err != nil {
		log.Fatal(err)
	}

	// 5. A sweep is the same spec with axes: derive one in code, stream it.
	sweep := *resolved
	sweep.Methods = []string{"1F1B", "HelixPipe"}
	sweep.Sweep = &helixpipe.SpecSweep{SeqLens: []int{32768, 131072}, Stages: []int{4, 8}}
	fmt.Println("\nsweeping seq {32k, 128k} x pp {4, 8}:")
	for report, err := range session.Execute(&sweep) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s seq=%-7d p=%d  %10.0f tokens/s\n",
			report.Method, report.SeqLen, report.Stages, report.Sim.TokensPerSecond)
	}
}

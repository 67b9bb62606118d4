// Long-context planning: which pipeline parallelism should serve a given
// sequence length on a given cluster? This example runs one sweep spec per
// testbed over 32k-128k with Session.Execute and reports the winner and the
// HelixPipe gain, reproducing the scalability story of Figure 8 — including
// the A800/32k regime where the two-fold FILO communication cannot hide
// behind attention and plain 1F1B is the right choice.
//
// Run with: go run ./examples/long_context
package main

import (
	"fmt"
	"log"

	helixpipe "repro"
)

func main() {
	log.SetFlags(0)
	methods := []string{"1F1B", "ZB1P", "AdaPipe", "HelixPipe"}
	seqLens := []int{32768, 65536, 98304, 131072}
	fmt.Printf("%-6s %-6s %-34s %-12s %s\n", "seq", "nodes", "tokens/s per method (1F1B/ZB1P/AdaPipe/Helix)", "winner", "Helix vs best baseline")
	for _, cluster := range []string{"H20", "A800"} {
		// One sweep per cluster: methods x sequence lengths, fanned out
		// across goroutines, reports back in deterministic grid order.
		spec := &helixpipe.ExperimentSpec{
			Model: "7B", Cluster: cluster, Stages: 8, Methods: methods,
			Sweep: &helixpipe.SpecSweep{SeqLens: seqLens},
		}
		session, _, err := spec.Resolve()
		if err != nil {
			log.Fatal(err)
		}
		var reports []*helixpipe.Report
		for r, err := range session.Execute(spec) {
			if err != nil {
				log.Fatal(err)
			}
			reports = append(reports, r)
		}
		cl := session.Cluster()
		fmt.Printf("--- %s cluster (%.0f GB/s inter-node, %s GPUs)\n", cl.Name, cl.InterNodeGBps, cl.GPU.Name)
		for i, seq := range seqLens {
			row := reports[i*len(methods) : (i+1)*len(methods)]
			tputs := make([]float64, len(row))
			winner, best, baseline := helixpipe.Method(""), 0.0, 0.0
			for j, r := range row {
				tputs[j] = r.Sim.TokensPerSecond
				if tputs[j] > best {
					best, winner = tputs[j], r.Method
				}
				if r.Method != helixpipe.MethodHelix && tputs[j] > baseline {
					baseline = tputs[j]
				}
			}
			fmt.Printf("%-6s %-6d %8.0f /%8.0f /%8.0f /%8.0f   %-12s %+.1f%%\n",
				fmt.Sprintf("%dk", seq/1024), session.Stages(),
				tputs[0], tputs[1], tputs[2], tputs[3], winner,
				(tputs[3]/baseline-1)*100)
		}
	}
	fmt.Println("\nRule of thumb (paper section 5.3): HelixPipe wins once per-layer attention time")
	fmt.Println("exceeds the 2bsh p2p transfer time; below that crossover, stay on 1F1B.")
}

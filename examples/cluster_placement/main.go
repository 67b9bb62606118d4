// Cluster topology and placement end to end: simulate the same HelixPipe
// plan on a single NVLink node versus a multi-node InfiniBand cluster,
// compare the placement strategies on the multi-node topology, let the
// autotuner pick a placement per configuration, and inject a straggler and
// a degraded fabric to see how the schedule absorbs them.
//
// Run with: go run ./examples/cluster_placement
package main

import (
	"fmt"
	"log"

	helixpipe "repro"
)

func main() {
	log.SetFlags(0)

	// 1. A 16-stage 7B pipeline on the 4-node DGX-A800 topology. With the
	// flat cost model every hop would cost InfiniBand; with the topology,
	// stages placed on the same node talk over NVLink instead.
	topo, _ := helixpipe.TopologyByName("DGX-A800x4")
	base, err := helixpipe.NewSession(helixpipe.Model7B(), helixpipe.A800Cluster(),
		helixpipe.WithSeqLen(65536), helixpipe.WithStages(16))
	if err != nil {
		log.Fatal(err)
	}
	placed, err := base.With(helixpipe.WithCluster(topo))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("cluster: %s\n\n", topo)
	flat, err := base.Simulate(helixpipe.MethodHelix)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-24s iteration %6.3f s  %8.0f tokens/s\n",
		"flat NIC (every hop IB)", flat.Sim.IterationSeconds, flat.Sim.TokensPerSecond)

	// 2. The placement strategies. Contiguous keeps pipeline neighbours on
	// one node; round robin deals them across nodes (every boundary pays
	// IB); greedy searches against the method's traffic matrix, which
	// PlacementFor reads in closed form without building a plan.
	for _, strategy := range helixpipe.PlacementStrategies() {
		placement, err := placed.PlacementFor(helixpipe.MethodHelix, strategy, 1)
		if err != nil {
			log.Fatal(err)
		}
		run, err := placed.With(helixpipe.WithPlacement(placement))
		if err != nil {
			log.Fatal(err)
		}
		report, err := run.Simulate(helixpipe.MethodHelix)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s iteration %6.3f s  %8.0f tokens/s",
			strategy, report.Sim.IterationSeconds, report.Sim.TokensPerSecond)
		for _, lt := range report.Sim.LinkTraffic {
			fmt.Printf("  %s %.1f GB", lt.Class, float64(lt.Bytes)/(1<<30))
		}
		fmt.Println()
	}

	// 3. Fault and straggler scenarios on the contiguous placement: one
	// device at half speed, then the IB fabric at half bandwidth.
	fmt.Println("\nperturbations (contiguous placement):")
	for _, scenario := range []string{"slow=5x2.0", "link=ibx0.5", "jitter=0.05,seed=7"} {
		perturb, err := helixpipe.ParsePerturb(scenario)
		if err != nil {
			log.Fatal(err)
		}
		run, err := placed.With(helixpipe.WithPerturb(perturb))
		if err != nil {
			log.Fatal(err)
		}
		report, err := run.Simulate(helixpipe.MethodHelix)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s iteration %6.3f s  %8.0f tokens/s\n",
			scenario, report.Sim.IterationSeconds, report.Sim.TokensPerSecond)
	}

	// 4. The autotuner searches placements per grid point on the topology
	// and reports the best strategy next to each winning configuration.
	result, err := placed.Autotune(helixpipe.TuneSpec{
		Methods: []helixpipe.Method{helixpipe.Method1F1B, helixpipe.MethodHelix},
		SeqLens: []int{65536},
		Stages:  []int{8, 16, 32},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(result.BestTable())
}

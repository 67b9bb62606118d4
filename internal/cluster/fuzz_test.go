package cluster

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzTopology feeds arbitrary JSON through FromJSON, every placement
// strategy's Generate for 1 to 64 stages, and Resolve. The seed corpus —
// every preset's JSON in code, plus testdata/fuzz/FuzzTopology — runs under
// plain go test; explore further with
//
//	go test -run=NONE -fuzz=FuzzTopology -fuzztime=60s -fuzzminimizetime=5s -parallel=2 ./internal/cluster
//
// (minimizing a new corpus entry can otherwise pause progress for a minute).
//
// Properties: nothing panics; an accepted topology places every stage count
// it has devices for under every strategy, rejects the larger ones, and each
// placement resolves.
func FuzzTopology(f *testing.F) {
	for _, c := range Presets() {
		data, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := FromJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		for stages := 1; stages <= 64; stages++ {
			traffic := neighbourTraffic(stages, 1<<20)
			for _, strategy := range Strategies() {
				p, err := Generate(strategy, c, stages, traffic, SearchOptions{Seed: 1})
				if stages > c.Devices() {
					if err == nil {
						t.Fatalf("%s placed %d stages on %d devices", strategy, stages, c.Devices())
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s on %d stages: %v", strategy, stages, err)
				}
				if _, err := Resolve(c, p, Perturb{SlowDevice: -1}); err != nil {
					t.Fatalf("%s placement %v does not resolve: %v", strategy, p, err)
				}
			}
		}
	})
}

// FuzzPerturb feeds arbitrary strings through ParsePerturb, Validate on
// every preset, and Resolve on a contiguous placement of the whole preset.
// The seed corpus — valid clauses and non-finite factors in code, plus
// testdata/fuzz/FuzzPerturb — runs under plain go test; explore further with
//
//	go test -run=NONE -fuzz=FuzzPerturb -fuzztime=60s -fuzzminimizetime=5s -parallel=2 ./internal/cluster
//
// (minimizing a new corpus entry can otherwise pause progress for a minute).
//
// Properties: nothing panics, and a perturbation a preset validates
// resolves on it.
func FuzzPerturb(f *testing.F) {
	for _, s := range []string{
		"", "slow=3x2.0", "link=ibx0.5", "link=nvlinkx0.15", "jitter=0.05,seed=7",
		"slow=0xInf", "slow=0x+Inf", "slow=0xNaN", "link=ibxNaN", "jitter=NaN", "jitter=+Inf",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePerturb(s)
		if err != nil {
			return
		}
		for _, c := range Presets() {
			if p.Validate(c) != nil {
				continue
			}
			place, err := Contiguous(c, c.Devices())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Resolve(c, place, p); err != nil {
				t.Fatalf("perturb %q validates on %s but does not resolve: %v", s, c.Name, err)
			}
		}
	})
}

package helixpipe

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzSpec feeds arbitrary JSON through ParseSpec → Resolved → Resolve. The
// seed corpus — every committed example spec plus specs carrying non-finite
// perturbation factors in code, and testdata/fuzz/FuzzSpec — runs under
// plain go test; explore further with
//
//	go test -run=NONE -fuzz=FuzzSpec -fuzztime=60s -fuzzminimizetime=5s -parallel=2 .
//
// (minimizing a new corpus entry can otherwise pause progress for a minute).
//
// Properties: nothing panics; Resolve and Resolved agree on whether a spec
// is valid; Resolved is idempotent; and a spec that resolves yields a
// non-nil session and one of the five run kinds.
func FuzzSpec(f *testing.F) {
	paths, err := filepath.Glob("examples/*/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		if strings.HasSuffix(path, ".golden.json") || strings.HasSuffix(path, ".trace.json") {
			continue // pinned outputs, not specs
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, perturb := range []string{"slow=0xInf", "slow=0x+Inf", "slow=0xNaN", "link=ibxNaN", "jitter=NaN", "jitter=+Inf"} {
		f.Add([]byte(fmt.Sprintf(`{"model": "tiny", "cluster": "DGX-H20x2", "stages": 2, "methods": ["1F1B"], "perturb": %q}`, perturb)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		resolved, rerr := spec.Resolved()
		session, rs, err := spec.Resolve()
		if (err == nil) != (rerr == nil) {
			t.Fatalf("Resolve error %v but Resolved error %v", err, rerr)
		}
		if err != nil {
			return
		}
		if session == nil {
			t.Fatal("Resolve succeeded with a nil session")
		}
		switch rs.Kind {
		case RunKindRun, RunKindSweep, RunKindTune, RunKindFleet, RunKindDecode:
		default:
			t.Fatalf("Resolve returned run kind %q", rs.Kind)
		}
		again, err := resolved.Resolved()
		if err != nil {
			t.Fatalf("the resolved spec does not resolve: %v", err)
		}
		if !reflect.DeepEqual(resolved, again) {
			t.Fatalf("Resolved is not idempotent:\n once %+v\ntwice %+v", resolved, again)
		}
	})
}

// FuzzDecode feeds arbitrary JSON through ParseSpec → Resolve →
// Session.Decode. The seed corpus — the committed GQA example, an MLA spec
// in code, and testdata/fuzz/FuzzDecode, which holds hostile sizes (a
// context plus decode tokens past int, sessions whose KV cache overflows
// int64, two billion decode tokens) — runs under plain go test; explore
// further with
//
//	go test -run=NONE -fuzz=FuzzDecode -fuzztime=60s -fuzzminimizetime=5s -parallel=2 .
//
// Properties: nothing panics; every accepted input reports finite,
// non-negative times and byte counts, one latency per generated token; no
// kept point's TPA exceeds the effective KV heads (so MLA keeps pure KVP);
// and every kept point's KV cache plus weights fits the per-device budget.
func FuzzDecode(f *testing.F) {
	data, err := os.ReadFile("examples/interactive_decode/gqa_1m.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"model": "7B", "cluster": "H20", "decode": {"mla": true, "latent_dim": 512, "context_len": 65536, "decode_tokens": 16, "sessions": 2}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(bytes.NewReader(data))
		if err != nil || spec.Decode == nil {
			return
		}
		session, rs, err := spec.Resolve()
		if err != nil || rs.Kind != RunKindDecode {
			return
		}
		report, err := session.Decode(*rs.Decode)
		if err != nil {
			return
		}
		sc := report.Scenario
		for _, pt := range report.Points {
			if effK := sc.Heads.EffectiveKVHeads(); pt.Sharding.TPA > effK {
				t.Errorf("%s: kept with TPA above the %d effective KV heads", pt.Sharding, effK)
			}
			if len(pt.TokenSeconds) != sc.DecodeTokens {
				t.Errorf("%s: %d token latencies for %d decode tokens", pt.Sharding, len(pt.TokenSeconds), sc.DecodeTokens)
			}
			times := append([]float64{pt.TTFTSeconds, pt.SecondsPerToken, pt.TokensPerSecond, pt.ComputeSeconds,
				pt.Latency.MeanSeconds, pt.Latency.P50Seconds, pt.Latency.P95Seconds, pt.Latency.MaxSeconds,
				pt.Comm.AllGatherSeconds, pt.Comm.AllToAllSeconds, pt.Comm.AllReduceSeconds, pt.Comm.TotalSeconds},
				pt.TokenSeconds...)
			for _, v := range times {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("%s: time %g is not finite and non-negative", pt.Sharding, v)
				}
			}
			if pt.KVBytesPerDevice < 0 || pt.WeightBytesPerDevice < 0 {
				t.Fatalf("%s: negative bytes: kv %d, weights %d", pt.Sharding, pt.KVBytesPerDevice, pt.WeightBytesPerDevice)
			}
			// The shard recomputed in floating point, where a product cannot
			// wrap: the reported bytes must be it, and it must fit.
			kv := kvShardEstimate(sc, pt.Sharding)
			if math.Abs(float64(pt.KVBytesPerDevice)-kv) > 1e-9*kv {
				t.Fatalf("%s: kv bytes %d, but the shard holds %g", pt.Sharding, pt.KVBytesPerDevice, kv)
			}
			if pt.KVBytesPerDevice > report.BudgetBytes-pt.WeightBytesPerDevice {
				t.Fatalf("%s: kept with kv %d + weights %d over the %d-byte budget", pt.Sharding,
					pt.KVBytesPerDevice, pt.WeightBytesPerDevice, report.BudgetBytes)
			}
		}
	})
}

// FuzzFleet feeds arbitrary JSON through ParseSpec → Resolve →
// Session.Fleet. The seed corpus — the five committed fleet_stream*.json
// studies, and testdata/fuzz/FuzzFleet, which holds hostile sizes (two
// billion jobs, iterations whose link traffic overflows int64, an arrival
// rate so small the arrivals overflow to +Inf) — runs under plain go test;
// explore further with
//
//	go test -run=NONE -fuzz=FuzzFleet -fuzztime=60s -fuzzminimizetime=5s -parallel=2 .
//
// Properties: nothing panics; every accepted input reports one job record
// per job, finite non-negative times, and non-negative link bytes and
// transfers.
func FuzzFleet(f *testing.F) {
	paths, err := filepath.Glob("examples/fleet_capacity/fleet_stream*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		if strings.HasSuffix(path, ".golden.json") {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(bytes.NewReader(data))
		if err != nil || spec.Fleet == nil {
			return
		}
		session, rs, err := spec.Resolve()
		if err != nil || rs.Kind != RunKindFleet {
			return
		}
		report, err := session.Fleet(*rs.Fleet)
		if err != nil {
			return
		}
		if report.Jobs != len(rs.Fleet.Jobs) || len(report.JobRecords) != report.Jobs {
			t.Fatalf("%d jobs reported with %d records for a %d-job stream",
				report.Jobs, len(report.JobRecords), len(rs.Fleet.Jobs))
		}
		times := []float64{report.StartSec, report.MakespanSec,
			report.Wait.MeanSec, report.Wait.P50Sec, report.Wait.P90Sec, report.Wait.P99Sec, report.Wait.MaxSec,
			report.JCT.MeanSec, report.JCT.P50Sec, report.JCT.P90Sec, report.JCT.P99Sec, report.JCT.MaxSec}
		for _, rec := range report.JobRecords {
			times = append(times, rec.ArrivalSec, rec.StartSec, rec.EndSec, rec.WaitSec, rec.JCTSec, rec.IterationSec)
		}
		for _, lt := range report.LinkTraffic {
			if lt.Bytes < 0 || lt.Transfers < 0 {
				t.Fatalf("%s link: negative traffic: %d bytes, %d transfers", lt.Class, lt.Bytes, lt.Transfers)
			}
			times = append(times, lt.Seconds)
		}
		for _, v := range times {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("time %g is not finite and non-negative", v)
			}
		}
	})
}

// kvShardEstimate is one rank's end-of-run KV cache under the sharding, in
// floating point: sessions x ceil((context + tokens) / KVP) x the rank's
// per-token bytes x layers.
func kvShardEstimate(sc DecodeScenario, sh DecodeSharding) float64 {
	tokens := math.Ceil((float64(sc.ContextLen) + float64(sc.DecodeTokens)) / float64(sh.KVP))
	perToken := float64(sc.Heads.LatentDim) * 2
	if !sc.Heads.MLA {
		perToken = float64(2*max(sc.Heads.KVHeads/sh.TPA, 1)*sc.Heads.HeadDim) * 2
	}
	return float64(sc.Sessions) * tokens * perToken * float64(sc.Layers)
}

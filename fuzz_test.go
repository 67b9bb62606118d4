package helixpipe

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzSpec feeds arbitrary JSON through ParseSpec → Resolved → Resolve. The
// seed corpus — every committed example spec plus specs carrying non-finite
// perturbation factors — runs under plain go test; explore further with
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

package helixpipe

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func decodeSpecJSON(t *testing.T, text string) *ExperimentSpec {
	t.Helper()
	spec, err := ParseSpec(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestDecodeSpecDefaults(t *testing.T) {
	spec := decodeSpecJSON(t, `{"model": "7B", "cluster": "H20", "decode": {}}`)
	n, err := spec.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	d := n.Decode
	if d.ContextLen != 1<<20 || d.DecodeTokens != 32 || d.Sessions != 4 || d.GPUs != 8 {
		t.Fatalf("decode defaults = %+v", d)
	}
	if d.KVHeads != 32 {
		t.Fatalf("kv_heads default = %d, want the 7B model's 32 heads (MHA)", d.KVHeads)
	}
	if d.Objective != DecodeObjectiveLatencyPerToken {
		t.Fatalf("objective default = %q", d.Objective)
	}
}

func TestDecodeSpecMLADefaults(t *testing.T) {
	spec := decodeSpecJSON(t, `{"model": "7B", "cluster": "H20", "decode": {"mla": true}}`)
	n, err := spec.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	if n.Decode.LatentDim != 512 {
		t.Fatalf("mla latent_dim default = %d, want 512", n.Decode.LatentDim)
	}
	if n.Decode.KVHeads != 0 {
		t.Fatalf("mla kv_heads = %d, want unset", n.Decode.KVHeads)
	}
}

func TestDecodeSpecRoundTrip(t *testing.T) {
	spec := decodeSpecJSON(t, `{
		"model": "7B", "cluster": "H20",
		"decode": {"context_len": 262144, "kv_heads": 8, "kvp": [2, 4], "tpa": [1, 2], "budget_gb": 64}
	}`)
	n, err := spec.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSpec(&buf, n); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := back.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(n)
	b, _ := json.Marshal(n2)
	if !bytes.Equal(a, b) {
		t.Fatalf("decode spec round trip drifted:\n%s\n%s", a, b)
	}
	_, rs1, err := n.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	_, rs2, err := n2.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := json.Marshal(rs1)
	r2, _ := json.Marshal(rs2)
	if !bytes.Equal(r1, r2) {
		t.Fatalf("decode RunSet round trip drifted:\n%s\n%s", r1, r2)
	}
	if rs1.Kind != RunKindDecode || rs1.Decode == nil {
		t.Fatalf("RunSet = %+v, want decode kind", rs1)
	}
}

func TestDecodeSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{"with sweep", `{"model": "7B", "cluster": "H20", "decode": {}, "sweep": {}}`, "cannot also sweep"},
		{"with tune", `{"model": "7B", "cluster": "H20", "decode": {}, "tune": {}}`, "cannot also sweep"},
		{"with workload", `{"model": "7B", "cluster": "H20", "decode": {}, "workload": {"dist": "uniform"}}`, "drop the workload"},
		{"numeric engine", `{"model": "7B", "cluster": "H20", "engine": "numeric", "decode": {}}`, "engine must be"},
		{"mla with kv heads", `{"model": "7B", "cluster": "H20", "decode": {"mla": true, "kv_heads": 8}}`, "drop kv_heads"},
		{"latent without mla", `{"model": "7B", "cluster": "H20", "decode": {"latent_dim": 512}}`, "requires mla"},
		{"kv heads not dividing", `{"model": "7B", "cluster": "H20", "decode": {"kv_heads": 5}}`, "must divide"},
		{"bad objective", `{"model": "7B", "cluster": "H20", "decode": {"objective": "goodput"}}`, "unknown decode objective"},
		{"bad kvp", `{"model": "7B", "cluster": "H20", "decode": {"kvp": [0]}}`, "kvp values"},
		{"context overflows", `{"model": "7B", "cluster": "H20", "decode": {"context_len": 9223372036854775000, "decode_tokens": 1000}}`, "decode tokens overflows"},
		{"kv cache overflows", `{"model": "7B", "cluster": "H20", "decode": {"sessions": 4611686018427387904}}`, "KV cache of"},
		{"too many tokens", `{"model": "7B", "cluster": "H20", "decode": {"context_len": 4096, "decode_tokens": 2000000000, "budget_gb": 1000000000}}`, "at most 1048576"},
		{"weights overflow", `{"model": "7B", "cluster": "H20", "decode": {"mla": true, "latent_dim": 1125899906842624, "context_len": 1, "decode_tokens": 1, "sessions": 1}}`, "weights overflow"},
		{"budget past int64", `{"model": "7B", "cluster": "H20", "decode": {"budget_gb": 1e12}}`, "does not fit int64"},
	}
	for _, c := range cases {
		spec := decodeSpecJSON(t, c.text)
		_, err := spec.Resolved()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Resolved() err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestSessionDecode(t *testing.T) {
	spec := decodeSpecJSON(t, `{
		"model": "7B", "cluster": "H20",
		"decode": {"context_len": 65536, "decode_tokens": 4, "kv_heads": 8}
	}`)
	session, rs, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	report, err := session.Decode(*rs.Decode)
	if err != nil {
		t.Fatal(err)
	}
	if report.Best == nil || report.Evaluated == 0 {
		t.Fatalf("empty decode report: %+v", report)
	}
	if report.GPU != "H20" || report.Link != "nvlink" {
		t.Fatalf("hardware provenance = %q/%q", report.GPU, report.Link)
	}
}

// fuzzSeed reads the input of a one-value []byte fuzz corpus file.
func fuzzSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
	body, ok2 := strings.CutSuffix(strings.TrimSpace(body), ")")
	if !ok || !ok2 {
		t.Fatalf("%s is not a one-value []byte corpus file", path)
	}
	data, err := strconv.Unquote(body)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(data)
}

// TestVLLMHelixRegimes pins the two Helix regimes of vLLM's helix
// integration test (test_helix_parallel.py, SNIPPETS.md), replayed from
// their FuzzDecode seeds at context 65,536 with 8 tokens on 4 H20s. MLA
// (DeepSeek-V2-Lite's 16 query heads; the 1.3B preset) keeps only TPA = 1,
// KVP = 4: the test's TP = DCP = 4. GQA with 2 KV heads keeps only the
// points with TPA <= 2.
func TestVLLMHelixRegimes(t *testing.T) {
	for _, c := range []struct {
		seed string
		want []string
	}{
		{"vllm_helix_mla_tp4_dcp4", []string{"kvp=4 tpa=1"}},
		{"vllm_helix_gqa_kv2", []string{"kvp=4 tpa=1", "kvp=2 tpa=2"}},
	} {
		spec, err := ParseSpec(bytes.NewReader(fuzzSeed(t, "testdata/fuzz/FuzzDecode/"+c.seed)))
		if err != nil {
			t.Fatalf("%s: %v", c.seed, err)
		}
		session, rs, err := spec.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", c.seed, err)
		}
		report, err := session.Decode(*rs.Decode)
		if err != nil {
			t.Fatalf("%s: %v", c.seed, err)
		}
		var got []string
		for _, pt := range report.Points {
			got = append(got, pt.Sharding.String())
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: kept %q, want %q", c.seed, got, c.want)
		}
	}
}

func TestExecuteRejectsDecodeSpec(t *testing.T) {
	spec := decodeSpecJSON(t, `{"model": "7B", "cluster": "H20", "decode": {}}`)
	session, _, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range session.Execute(spec) {
		if err == nil || !strings.Contains(err.Error(), "Session.Decode") {
			t.Fatalf("Execute on a decode spec = %v, want the Session.Decode redirect", err)
		}
		return
	}
	t.Fatal("Execute yielded nothing")
}

func TestWriteDecodePerfetto(t *testing.T) {
	spec := decodeSpecJSON(t, `{
		"model": "7B", "cluster": "H20",
		"decode": {"context_len": 65536, "decode_tokens": 2, "kv_heads": 8}
	}`)
	session, rs, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	report, err := session.Decode(*rs.Decode)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDecodePerfetto(&buf, report); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty perfetto trace")
	}
}

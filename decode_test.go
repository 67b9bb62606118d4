package helixpipe

import (
	"bytes"
	"encoding/json"
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

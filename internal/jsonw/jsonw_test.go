package jsonw

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stdlib is the writer Write replaces.
func stdlib(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// checkEqual asserts that Write and the stdlib encoder agree on v: the same
// bytes, or both an error and nothing written.
func checkEqual(t *testing.T, v any) {
	t.Helper()
	want, wantErr := stdlib(v)
	var got bytes.Buffer
	err := Write(&got, v)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("error %v, stdlib %v", err, wantErr)
	}
	if err != nil {
		if got.Len() != 0 {
			t.Fatalf("an encoding error wrote %q", got.Bytes())
		}
		return
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Write differs from json.Encoder:\n got %q\nwant %q", got.Bytes(), want)
	}
}

// deep nests n arrays around a value, deeper than spaces indents in one
// append.
func deep(n int) string {
	return strings.Repeat(`[{"k":`, n) + `"v"` + strings.Repeat(`}]`, n)
}

// edgeSeeds are the inputs the committed reports do not cover.
var edgeSeeds = []string{
	`{}`, `[]`, `[{}]`, `{"a":[]}`, `[[],[[]],{}]`, `{"a":{},"b":[{}],"c":{"d":[]}}`,
	`"quote \" and backslash \\ and \\\" both"`, `{"\\":"\"","k\\\"":["\\\\"]}`,
	`{"html":"<a href=\"x\">&amp;</a>","sep":"\u2028\u2029","colon:comma,":"{[]}"}`,
	`0`, `-1.5e-300`, `true`, `false`, `null`, `"scalar"`, `""`,
	`  { "spaced" : [ 1 , 2 ] , "x" : { } }  `,
	deep(40),
}

// TestWriteMatchesEncoder covers what a decoded seed cannot hold: struct
// fields, nil pointers and slices, an empty map, and a json.RawMessage field
// that the encoder compacts. FuzzIndent replays the seeds themselves.
func TestWriteMatchesEncoder(t *testing.T) {
	type row struct {
		Name  string            `json:"name"`
		Vals  []float64         `json:"vals"`
		Empty map[string]int    `json:"empty"`
		Nil   []int             `json:"nil"`
		Raw   json.RawMessage   `json:"raw"`
		Tags  map[string]string `json:"tags,omitempty"`
	}
	checkEqual(t, []*row{{Name: "a<b>", Vals: []float64{1, 1e-7, 3.5e21}, Empty: map[string]int{},
		Raw: json.RawMessage(` { "x" : [ ] } `), Tags: map[string]string{"z": "1", "a": "&"}}, nil})
}

// TestIndentAnyPieces feeds the compact encoding of every seed to the
// indenter in pieces of a few sizes, so strings, escapes, literals and
// empty containers split across writes.
func TestIndentAnyPieces(t *testing.T) {
	for _, in := range append(edgeSeeds, goldenSeeds(t)...) {
		want, err := stdlib(json.RawMessage(in))
		if err != nil {
			t.Fatal(err)
		}
		compact, err := json.Marshal(json.RawMessage(in))
		if err != nil {
			t.Fatal(err)
		}
		compact = append(compact, '\n')
		for _, size := range []int{1, 2, 3, 7, 64} {
			x := new(indenter)
			for p := compact; len(p) > 0; p = p[min(size, len(p)):] {
				x.Write(p[:min(size, len(p))])
			}
			if !bytes.Equal(x.out, want) {
				t.Fatalf("pieces of %d bytes:\n got %q\nwant %q", size, x.out, want)
			}
		}
	}
}

func TestWriteErrorWritesNothing(t *testing.T) {
	checkEqual(t, map[string]any{"f": func() {}})
	checkEqual(t, json.RawMessage(`{"unterminated":`))
}

// TestWriteDropsOversizedBuffers writes a value whose output outgrows
// MaxPooled: the pool must not keep its buffer.
func TestWriteDropsOversizedBuffers(t *testing.T) {
	checkEqual(t, strings.Repeat("x", MaxPooled))
	x := pool.Get().(*indenter)
	defer pool.Put(x)
	if cap(x.out) > MaxPooled {
		t.Fatalf("the pool kept a %d-byte buffer, cap %d", cap(x.out), MaxPooled)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWriteReturnsWriterError(t *testing.T) {
	if err := Write(failWriter{}, []int{1}); err == nil || err.Error() != "disk full" {
		t.Fatalf("got %v, want the writer's error", err)
	}
}

// goldenSeeds reads every committed report golden.
func goldenSeeds(tb testing.TB) []string {
	paths, err := filepath.Glob("../../examples/*/*.golden.json")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no report goldens found: %v", err)
	}
	var out []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, string(data))
	}
	return out
}

// FuzzIndent holds Write to the stdlib encoder on any JSON that
// json.Unmarshal accepts, both for the decoded value and for the input
// passed through as a json.RawMessage. The seeds are the committed report
// goldens and the edge cases above; explore further with
//
//	go test -run=NONE -fuzz=FuzzIndent -fuzztime=20s ./internal/jsonw
func FuzzIndent(f *testing.F) {
	for _, s := range append(edgeSeeds, goldenSeeds(f)...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v any
		if json.Unmarshal(data, &v) != nil {
			return
		}
		checkEqual(t, v)
		checkEqual(t, json.RawMessage(data))
	})
}

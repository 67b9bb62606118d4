package decode

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/jsonw"
)

// checkWriter asserts that WriteJSON writes exactly what jsonw.Write, the
// reflective encoder it replaces, writes for r: the same bytes, or the same
// error and nothing written.
func checkWriter(t *testing.T, r *Report) {
	t.Helper()
	var want, got bytes.Buffer
	wantErr := jsonw.Write(&want, r)
	err := r.WriteJSON(&got)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("error %v, jsonw %v", err, wantErr)
	}
	if err != nil {
		if got.Len() != 0 {
			t.Fatalf("an encoding error wrote %q", got.Bytes())
		}
		return
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteJSON differs from jsonw.Write:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
}

func searchReport(t *testing.T, h HeadConfig) *Report {
	t.Helper()
	s, err := NewSearch(Spec{Scenario: testScenario(h), Params: testParams(),
		KVP: []int{1, 2, 4, 8, 16}, TPA: []int{1, 2, 4, 8}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestWriteJSONSharesBestTokens writes search reports, whose best point
// shares its token_seconds with the point it was copied from, and the same
// reports with a best that shares nothing or only a prefix of that array.
func TestWriteJSONSharesBestTokens(t *testing.T) {
	for _, h := range []HeadConfig{gqaHeads(32, 8, 128), mlaHeads(32, 128, 512)} {
		rep := searchReport(t, h)
		if rep.Best == nil || len(rep.Pruned) == 0 {
			t.Fatalf("%+v: want a best point and prunes", h)
		}
		shared := rep.Best.TokenSeconds
		if !slices.ContainsFunc(rep.Points, func(p Point) bool { return &p.TokenSeconds[0] == &shared[0] }) {
			t.Fatal("the best point shares no point's token_seconds")
		}
		checkWriter(t, rep)
		rep.Best.TokenSeconds = slices.Clone(shared)
		checkWriter(t, rep)
		rep.Best.TokenSeconds = shared[:len(shared)-1]
		checkWriter(t, rep)
	}
}

// fill sets every exported field under v to a value that is not its zero,
// so an omitempty field is written too: numbers count up, floats span both
// of encoding/json's formats, strings need escaping, slices and maps hold
// two entries and pointers point to a filled value. A kind it cannot fill
// fails the test.
func fill(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), n)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(t, v.Index(0), n)
		fill(t, v.Index(1), n)
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for range 2 {
			key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(t, key, n)
			fill(t, elem, n)
			v.SetMapIndex(key, elem)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d <&> \"q\" \\ \u2028", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) * 1.5e-7)
	default:
		t.Fatalf("fill cannot set a %s", v.Type())
	}
}

// TestWriteJSONWritesEveryField fills every exported field of a report, its
// points, scenario and head config by reflection, so a field added to one
// of them and not to WriteJSON fails here.
func TestWriteJSONWritesEveryField(t *testing.T) {
	var r Report
	n := 0
	fill(t, reflect.ValueOf(&r).Elem(), &n)
	if !r.Scenario.Heads.MLA || r.Best == nil || len(r.Points) == 0 || len(r.Pruned) == 0 {
		t.Fatalf("fill left a field empty: %+v", r)
	}
	checkWriter(t, &r)
	r.Best.TokenSeconds = r.Points[1].TokenSeconds
	checkWriter(t, &r)
}

// TestWriteJSONNonFinite puts a NaN or an infinity in a kept best array, a
// point's array and a scalar field: WriteJSON must return encoding/json's
// error and write nothing.
func TestWriteJSONNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, set := range []func(r *Report){
			func(r *Report) { r.Best.TokenSeconds[1] = f },
			func(r *Report) { r.Points[len(r.Points)-1].TokenSeconds[0] = f },
			func(r *Report) { r.Points[0].Comm.TotalSeconds = f },
		} {
			rep := searchReport(t, gqaHeads(32, 8, 128))
			set(rep)
			checkWriter(t, rep)
		}
	}
}

// TestWriteJSONFormatsSharedTokensOnce changes a kept array before the
// same slice is written again, one level deeper: the second copy must be
// the kept lines at its own indent, not the numbers formatted anew.
func TestWriteJSONFormatsSharedTokensOnce(t *testing.T) {
	ts := []float64{0.25, 1e-7, 2}
	var e encoder
	e.open('[')
	e.next()
	e.tokens(ts, true)
	ts[0] = 9
	e.next()
	e.open('[')
	e.next()
	e.tokens(ts, false)
	e.close(']')
	e.close(']')
	want := "[\n  [\n    0.25,\n    1e-7,\n    2\n  ],\n  [\n    [\n      0.25,\n      1e-7,\n      2\n    ]\n  ]\n]"
	if string(e.out) != want {
		t.Fatalf("got %q, want %q", e.out, want)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWriteJSONReturnsWriterError(t *testing.T) {
	if err := searchReport(t, gqaHeads(32, 8, 128)).WriteJSON(failWriter{}); err == nil || err.Error() != "disk full" {
		t.Fatalf("got %v, want the writer's error", err)
	}
}

// TestWriteJSONDropsOversizedBuffers writes a report whose output outgrows
// jsonw.MaxPooled: the pool must not keep its buffer.
func TestWriteJSONDropsOversizedBuffers(t *testing.T) {
	ts := make([]float64, jsonw.MaxPooled/16)
	for i := range ts {
		ts[i] = 0.1 + float64(i)*1e-9
	}
	checkWriter(t, &Report{Points: []Point{{TokenSeconds: ts}}})
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	if cap(e.out) > jsonw.MaxPooled {
		t.Fatalf("the pool kept a %d-byte buffer, cap %d", cap(e.out), jsonw.MaxPooled)
	}
}

// distOfRef is distOf as it was before it skipped sorted samples: it always
// copies and sorts.
func distOfRef(samples []float64) Dist {
	if len(samples) == 0 {
		return Dist{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	rank := func(q float64) float64 {
		i := int(q*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return Dist{
		MeanSeconds: sum / float64(len(sorted)),
		P50Seconds:  rank(0.50),
		P95Seconds:  rank(0.95),
		MaxSeconds:  sorted[len(sorted)-1],
	}
}

// TestDistOfUnsortedSample feeds distOf sorted and unsorted samples: the
// Dist must equal the copy-and-sort reference, the samples must be left as
// they were, and a sorted sample must not be copied.
func TestDistOfUnsortedSample(t *testing.T) {
	sorted := []float64{0.5, 1, 1, 2, 3.25, 4, 4, 7, 9.5, 11}
	unsorted := []float64{4, 1, 9.5, 0.5, 11, 3.25, 1, 7, 2, 4}
	for _, samples := range [][]float64{sorted, unsorted, {3}, {2, 1}} {
		in := slices.Clone(samples)
		if got, want := distOf(samples), distOfRef(in); got != want {
			t.Errorf("distOf(%v) = %+v, want %+v", in, got, want)
		}
		if !slices.Equal(samples, in) {
			t.Errorf("distOf(%v) left the samples %v", in, samples)
		}
	}
	if n := testing.AllocsPerRun(10, func() { distOf(sorted) }); n != 0 {
		t.Errorf("a sorted sample allocates %.0f times", n)
	}
}

// reportSeeds are the edge reports the gqa_1m golden does not cover.
var reportSeeds = []string{
	`{}`,
	`{"points":null}`,
	`{"points":[]}`,
	`{"points":[{"token_seconds":null},{"token_seconds":[]}],"pruned":{}}`,
	`{"scenario":{"model":"7B","heads":{"query_heads":32,"head_dim":128,"mla":true,"latent_dim":512}},` +
		`"pruned":{"kv-memory":3,"geometry":2},` +
		`"best":{"sharding":{"kvp":8,"tpa":1},"token_seconds":[1e-7,2]},` +
		`"points":[{"sharding":{"kvp":4,"tpa":2},"token_seconds":[1e21,-0,0]}]}`,
	`{"best":{"sharding":{"kvp":2,"tpa":1},"token_seconds":[0.5,0.25]},` +
		`"points":[{"sharding":{"kvp":2,"tpa":1},"token_seconds":[1e-7,1e21,-0,1.5e-300,123456789012345678901]}]}`,
	`{"scenario":{"model":"<a href=\"x\">&amp;</a> \\ \u2028\u2029 \u00e9"},` +
		`"objective":"<","gpu":">","link":"&",` +
		`"pruned":{"\"":1,"\\":2,"\u2028":3,"\u00e9":4,"\u007f":5,"\t":6}}`,
}

// FuzzDecodeReportJSON holds WriteJSON to jsonw.Write on any report
// json.Unmarshal can decode. Like a search's report, the best point shares
// the token_seconds of the point with its sharding, if there is one. The
// seeds are the gqa_1m golden and the edge reports above; explore further
// with
//
//	go test -run=NONE -fuzz=FuzzDecodeReportJSON -fuzztime=10s ./internal/decode
func FuzzDecodeReportJSON(f *testing.F) {
	golden, err := os.ReadFile("../../examples/interactive_decode/gqa_1m.golden.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, s := range reportSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Report
		if json.Unmarshal(data, &r) != nil {
			return
		}
		if r.Best != nil {
			if i := slices.IndexFunc(r.Points, func(p Point) bool { return p.Sharding == r.Best.Sharding }); i >= 0 {
				r.Best.TokenSeconds = r.Points[i].TokenSeconds
			}
		}
		checkWriter(t, &r)
	})
}

// TestReportSeedsAreReports keeps the edge seeds decodable, so none of them
// is skipped as invalid input.
func TestReportSeedsAreReports(t *testing.T) {
	for _, s := range reportSeeds {
		var r Report
		if err := json.Unmarshal([]byte(s), &r); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

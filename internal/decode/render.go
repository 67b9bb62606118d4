package decode

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/jsonw"
)

// WriteJSON writes the report as indented JSON, in one Write call: the bytes
// json.Encoder with SetIndent("", "  ") writes, HTML escaping and trailing
// newline included, so identical searches produce byte-identical output,
// which is what the golden corpus diffs. It writes the report's fixed shape
// directly, in one pass, rather than by reflection and a re-indent. The best
// point's token_seconds are formatted once: the point it was copied from
// shares the array and copies those numbers. A non-finite float returns
// encoding/json's UnsupportedValueError and writes nothing.
func (r *Report) WriteJSON(w io.Writer) error {
	e := encoders.Get().(*encoder)
	e.report(r)
	err := e.err
	if err == nil {
		_, err = w.Write(e.out)
	}
	if cap(e.out) <= jsonw.MaxPooled {
		e.out, e.err, e.kept = e.out[:0], nil, nil
		encoders.Put(e)
	}
	return err
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// encoder appends a report's indented JSON to out.
type encoder struct {
	out   []byte
	depth int
	// empty marks an object or array with no member written yet.
	empty bool
	// err is the first non-finite float met.
	err error
	// keys holds the pruned map's keys while they are sorted.
	keys []string
	// kept is the best point's token_seconds, whose element lines
	// out[keptFrom:keptTo] were written at depth keptDepth.
	kept                        []float64
	keptFrom, keptTo, keptDepth int
}

func (e *encoder) report(r *Report) {
	e.open('{')
	e.key("scenario")
	e.scenario(&r.Scenario)
	e.key("objective")
	e.str(r.Objective)
	e.key("budget_bytes")
	e.int(r.BudgetBytes)
	e.key("gpu")
	e.str(r.GPU)
	if r.Link != "" {
		e.key("link")
		e.str(r.Link)
	}
	e.key("grid_size")
	e.int(int64(r.GridSize))
	e.key("evaluated")
	e.int(int64(r.Evaluated))
	if len(r.Pruned) > 0 {
		e.key("pruned")
		e.pruned(r.Pruned)
	}
	if r.Best != nil {
		e.key("best")
		e.point(r.Best, true)
	}
	e.key("points")
	if r.Points == nil {
		e.null()
	} else {
		e.open('[')
		for i := range r.Points {
			e.next()
			e.point(&r.Points[i], false)
		}
		e.close(']')
	}
	e.close('}')
	e.out = append(e.out, '\n')
}

func (e *encoder) scenario(sc *Scenario) {
	e.open('{')
	e.key("model")
	e.str(sc.Model)
	e.key("layers")
	e.int(int64(sc.Layers))
	e.key("hidden")
	e.int(int64(sc.Hidden))
	e.key("vocab")
	e.int(int64(sc.Vocab))
	e.key("heads")
	h := &sc.Heads
	e.open('{')
	e.key("query_heads")
	e.int(int64(h.QueryHeads))
	if h.KVHeads != 0 {
		e.key("kv_heads")
		e.int(int64(h.KVHeads))
	}
	e.key("head_dim")
	e.int(int64(h.HeadDim))
	if h.MLA {
		e.key("mla")
		e.out = append(e.out, "true"...)
	}
	if h.LatentDim != 0 {
		e.key("latent_dim")
		e.int(int64(h.LatentDim))
	}
	e.close('}')
	e.key("context_len")
	e.int(int64(sc.ContextLen))
	e.key("decode_tokens")
	e.int(int64(sc.DecodeTokens))
	e.key("sessions")
	e.int(int64(sc.Sessions))
	e.key("gpus")
	e.int(int64(sc.GPUs))
	e.close('}')
}

// pruned writes the prune counts with their keys sorted, as encoding/json
// writes a map.
func (e *encoder) pruned(m map[string]int) {
	e.keys = e.keys[:0]
	for k := range m {
		e.keys = append(e.keys, k)
	}
	slices.Sort(e.keys)
	e.open('{')
	for _, k := range e.keys {
		e.next()
		e.str(k)
		e.out = append(e.out, ':', ' ')
		e.int(int64(m[k]))
	}
	e.close('}')
	clear(e.keys)
}

// point writes one point; keep marks the best point, whose token_seconds
// the point it was copied from reuses.
func (e *encoder) point(p *Point, keep bool) {
	e.open('{')
	e.key("sharding")
	e.open('{')
	e.key("kvp")
	e.int(int64(p.Sharding.KVP))
	e.key("tpa")
	e.int(int64(p.Sharding.TPA))
	e.close('}')
	e.key("ttft_seconds")
	e.float(p.TTFTSeconds)
	e.key("token_seconds")
	e.tokens(p.TokenSeconds, keep)
	e.key("latency")
	e.open('{')
	e.key("mean_seconds")
	e.float(p.Latency.MeanSeconds)
	e.key("p50_seconds")
	e.float(p.Latency.P50Seconds)
	e.key("p95_seconds")
	e.float(p.Latency.P95Seconds)
	e.key("max_seconds")
	e.float(p.Latency.MaxSeconds)
	e.close('}')
	e.key("seconds_per_token")
	e.float(p.SecondsPerToken)
	e.key("tokens_per_second")
	e.float(p.TokensPerSecond)
	e.key("kv_bytes_per_device")
	e.int(p.KVBytesPerDevice)
	e.key("weight_bytes_per_device")
	e.int(p.WeightBytesPerDevice)
	e.key("comm")
	e.open('{')
	e.key("all_gather_seconds")
	e.float(p.Comm.AllGatherSeconds)
	e.key("all_to_all_seconds")
	e.float(p.Comm.AllToAllSeconds)
	e.key("all_reduce_seconds")
	e.float(p.Comm.AllReduceSeconds)
	e.key("total_seconds")
	e.float(p.Comm.TotalSeconds)
	e.close('}')
	e.key("compute_seconds")
	e.float(p.ComputeSeconds)
	e.close('}')
}

// tokens writes a token_seconds array. The best point's array is kept; an
// array that is the same slice (same backing array and length) copies its
// lines instead of formatting every number again.
func (e *encoder) tokens(ts []float64, keep bool) {
	if ts == nil {
		e.null()
		return
	}
	e.open('[')
	if len(ts) > 0 && len(ts) == len(e.kept) && &ts[0] == &e.kept[0] {
		e.reuse()
	} else {
		from := len(e.out)
		for _, f := range ts {
			e.next()
			e.float(f)
		}
		if keep {
			e.kept, e.keptFrom, e.keptTo, e.keptDepth = ts, from, len(e.out), e.depth
		}
	}
	e.close(']')
}

// reuse writes the kept array's elements at the current depth. Each of its
// lines is a newline, the indent of keptDepth and one number with its
// comma.
func (e *encoder) reuse() {
	lines := e.out[e.keptFrom:e.keptTo]
	indent := 1 + 2*e.keptDepth
	for len(lines) > 0 {
		end := bytes.IndexByte(lines[1:], '\n') + 1
		if end == 0 {
			end = len(lines)
		}
		e.newline()
		e.out = append(e.out, lines[indent:end]...)
		lines = lines[end:]
	}
	e.empty = false
}

// open starts an object or array.
func (e *encoder) open(c byte) {
	e.out = append(e.out, c)
	e.depth++
	e.empty = true
}

// close ends an object or array; an empty one stays {} or [].
func (e *encoder) close(c byte) {
	e.depth--
	if !e.empty {
		e.newline()
	}
	e.out = append(e.out, c)
	e.empty = false
}

// next starts a member or element on a new line, after a comma unless it
// is the first.
func (e *encoder) next() {
	if !e.empty {
		e.out = append(e.out, ',')
	}
	e.empty = false
	e.newline()
}

// key starts an object member; every field name is plain ASCII.
func (e *encoder) key(name string) {
	e.next()
	e.out = append(e.out, '"')
	e.out = append(e.out, name...)
	e.out = append(e.out, '"', ':', ' ')
}

// indents is a newline and the indent of the deepest level a report has: a
// point's token_seconds, in the points array, in the report.
const indents = "\n        "

// newline appends a newline and the indent of the current depth.
func (e *encoder) newline() { e.out = append(e.out, indents[:1+2*e.depth]...) }

func (e *encoder) null() { e.out = append(e.out, "null"...) }

func (e *encoder) int(v int64) { e.out = strconv.AppendInt(e.out, v, 10) }

// float appends f as encoding/json formats a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from 1e21
// up, with a one-digit exponent not padded (e-9, not e-09).
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.out = strconv.AppendFloat(e.out, f, format, -1, 64)
	if n := len(e.out); format == 'e' && e.out[n-4] == 'e' && e.out[n-3] == '-' && e.out[n-2] == '0' {
		e.out[n-2] = e.out[n-1]
		e.out = e.out[:n-1]
	}
}

// htmlSafe marks the bytes encoding/json copies into a string unescaped:
// ASCII from the space up, DEL included, but the quote, backslash, <, >
// and &.
var htmlSafe = func() (t [256]bool) {
	for c := ' '; c <= 0x7f; c++ {
		t[c] = true
	}
	for _, c := range []byte(`"\<>&`) {
		t[c] = false
	}
	return t
}()

// str appends s quoted as encoding/json quotes it. Plain ASCII is copied
// as it is; anything else is rare in a report and goes through
// json.Marshal, which cannot fail on a string.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if !htmlSafe[s[i]] {
			quoted, _ := json.Marshal(s)
			e.out = append(e.out, quoted...)
			return
		}
	}
	e.out = append(e.out, '"')
	e.out = append(e.out, s...)
	e.out = append(e.out, '"')
}

// Summary renders the search accounting — scenario shape, objective, grid
// size, and the per-reason prune counts — as one line per fact.
func (r *Report) Summary() string {
	var b strings.Builder
	sc := r.Scenario
	attn := fmt.Sprintf("gqa k=%d", sc.Heads.KVHeads)
	if sc.Heads.MLA {
		attn = fmt.Sprintf("mla c=%d", sc.Heads.LatentDim)
	}
	fmt.Fprintf(&b, "model %s (%s) on %d x %s, context %d + %d tokens, %d sessions\n",
		sc.Model, attn, sc.GPUs, r.GPU, sc.ContextLen, sc.DecodeTokens, sc.Sessions)
	fmt.Fprintf(&b, "objective %s, budget %.1f GB per GPU\n", r.Objective, gb(r.BudgetBytes))
	fmt.Fprintf(&b, "grid %d shardings, evaluated %d\n", r.GridSize, r.Evaluated)
	for _, reason := range []string{PruneGeometry, PruneKVMemory} {
		if n := r.Pruned[reason]; n > 0 {
			fmt.Fprintf(&b, "pruned %d (%s)\n", n, reason)
		}
	}
	if r.Best != nil {
		fmt.Fprintf(&b, "best %s: %.2f ms/token, %.1f tokens/s\n",
			r.Best.Sharding, r.Best.SecondsPerToken*1e3, r.Best.TokensPerSecond)
	}
	return b.String()
}

// Table renders every evaluated sharding as an aligned ASCII table in
// stream order (ascending TPA).
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s per sharding\n", r.Objective)
	if len(r.Points) == 0 {
		b.WriteString("(no feasible shardings)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-5s %-5s %-12s %-12s %-12s %-12s %-10s %-10s %-10s\n",
		"kvp", "tpa", "ms/token", "p95 ms", "tokens/s", "ttft s", "kv GB", "comm ms", "compute ms")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-5d %-5d %-12.3f %-12.3f %-12.1f %-12.1f %-10.1f %-10.3f %-10.3f\n",
			p.Sharding.KVP, p.Sharding.TPA,
			p.SecondsPerToken*1e3, p.Latency.P95Seconds*1e3, p.TokensPerSecond,
			p.TTFTSeconds, gb(p.KVBytesPerDevice),
			p.Comm.TotalSeconds*1e3, p.ComputeSeconds*1e3)
	}
	return b.String()
}

func gb(bytes int64) float64 { return float64(bytes) / (1 << 30) }

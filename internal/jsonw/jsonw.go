// Package jsonw writes the indented JSON of the report and spec writers
// (all but the decode report's, which encodes its fixed shape itself): the
// bytes json.Encoder writes with SetIndent("", "  "), produced in one pass
// over the compact encoding.
//
// json.Encoder indents by stepping its full JSON scanner over every output
// byte. The compact encoding needs none of that: it is valid JSON with no
// whitespace outside strings (the encoder compacts MarshalJSON and
// json.RawMessage output too), so indenting it only has to tell strings
// apart from the brackets, commas and colons around them.
package jsonw

import (
	"encoding/json"
	"io"
	"sync"
)

// MaxPooled is the largest buffer Write returns to its pool. Reports run to
// a few hundred KiB; a buffer grown far past that by an outsized value is
// dropped, so the pool never keeps it alive.
const MaxPooled = 4 << 20

// indenter is the writer a compact json.Encoder encodes into: it indents
// the encoding as it arrives, in whatever pieces it arrives, into out.
type indenter struct {
	enc   *json.Encoder
	out   []byte
	depth int
	// inString and escaped track a string, and a backslash escape in it,
	// that a piece may end inside of.
	inString, escaped bool
	// open marks a '{' or '[' whose newline waits for the next byte: none
	// is written if that byte closes it, so an empty container stays {} or
	// [].
	open bool
}

var pool = sync.Pool{New: func() any {
	x := new(indenter)
	x.enc = json.NewEncoder(x)
	return x
}}

// Write writes v to w as json.NewEncoder(w) with SetIndent("", "  ") would:
// the same bytes, HTML escaping and trailing newline included, in one Write
// call. An encoding error writes nothing.
func Write(w io.Writer, v any) error {
	x := pool.Get().(*indenter)
	x.out = x.out[:0]
	// Encode marshals exactly as json.Marshal does and writes the result,
	// and a newline, to x; it writes nothing on an error. A whole encoding
	// leaves x at depth 0 outside any string, ready for the next.
	if err := x.enc.Encode(v); err != nil {
		pool.Put(x)
		return err
	}
	_, err := w.Write(x.out)
	if cap(x.out) <= MaxPooled {
		pool.Put(x)
	}
	return err
}

// spaces indents up to 32 levels in one append; deeper levels take several.
const spaces = "                                                                "

// plain marks the bytes copied as they are outside strings: every byte but
// the quote, brackets, comma and colon.
var plain = func() (t [256]bool) {
	for i := range t {
		t[i] = true
	}
	for _, c := range []byte(`"{}[],:`) {
		t[c] = false
	}
	return t
}()

// Write indents the next piece of the compact encoding: strings and runs of
// plain bytes are copied whole, each bracket opens or closes a level, a
// comma ends a line and a colon is followed by one space.
func (x *indenter) Write(p []byte) (int, error) {
	for i := 0; i < len(p); i++ {
		if x.inString {
			j := i
			for ; j < len(p); j++ {
				if x.escaped {
					x.escaped = false
				} else if p[j] == '\\' {
					x.escaped = true
				} else if p[j] == '"' {
					x.inString = false
					break
				}
			}
			x.out = append(x.out, p[i:min(j+1, len(p))]...)
			i = j
			continue
		}
		c := p[i]
		if x.open {
			x.open = false
			if c == '}' || c == ']' {
				x.out = append(x.out, c)
				continue
			}
			x.depth++
			x.newline()
		}
		switch c {
		case '"':
			x.inString = true
			x.out = append(x.out, c)
		case '{', '[':
			x.open = true
			x.out = append(x.out, c)
		case '}', ']':
			x.depth--
			x.newline()
			x.out = append(x.out, c)
		case ',':
			x.out = append(x.out, c)
			x.newline()
		case ':':
			x.out = append(x.out, c, ' ')
		default:
			j := i + 1
			for j < len(p) && plain[p[j]] {
				j++
			}
			x.out = append(x.out, p[i:j]...)
			i = j - 1
		}
	}
	return len(p), nil
}

// newline appends a newline and the indent of the current depth.
func (x *indenter) newline() {
	x.out = append(x.out, '\n')
	for n := 2 * x.depth; n > 0; n -= len(spaces) {
		x.out = append(x.out, spaces[:min(n, len(spaces))]...)
	}
}

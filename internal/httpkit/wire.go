package httpkit

import (
	"encoding/json"
	"math"
	"strconv"
)

// The wire vocabulary. The batched and scatter-gathered endpoints move
// a handful of fixed JSON shapes at rates where encoding/json's
// reflection costs more than the work the bodies describe, so those
// shapes are scanned and rendered by hand — once, here (codec.go holds
// the shapes, this file the primitives), for daemon and router alike.
// The contract, held by a differential fuzz target per piece:
//
//   - A scanner accepts only the canonical encoding of its shape — the
//     expected keys in order, plain integers, JSON whitespace between
//     tokens, nothing after the value — on which it provably agrees with
//     the strict reflective decoder. For anything else (reordered or
//     capitalised keys, 1.0 for an int, a float out of range, trailing
//     bytes) it reports ok=false and the caller decodes reflectively, so
//     acceptance and every error message are the reflective decoder's.
//   - An encoder emits exactly encoding/json's bytes, and reports
//     ok=false for what JSON cannot carry (a non-finite float):
//     WriteEncoded then runs the reflective writer, which fails the
//     request the way it always has.

// Span is the half-open byte range [Lo, Hi) of a value inside a body.
type Span struct{ Lo, Hi int }

// Of returns the bytes of b the span covers.
func (s Span) Of(b []byte) []byte { return b[s.Lo:s.Hi] }

// cursor reads a body left to right. A false from any method means the
// input is not canonical and the position is no longer meaningful.
type cursor struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (c *cursor) space() {
	for c.i < len(c.b) && (c.b[c.i] == ' ' || c.b[c.i] == '\t' || c.b[c.i] == '\n' || c.b[c.i] == '\r') {
		c.i++
	}
}

// tok matches s after optional whitespace.
func (c *cursor) tok(s string) bool {
	c.space()
	if len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

// key matches sep — the brace or comma before a member — then `"name":`.
func (c *cursor) key(sep, name string) bool { return c.tok(sep) && c.tok(name) && c.tok(":") }

// member reads `"name": <integer>` after sep.
func (c *cursor) member(sep, name string) (int, bool) {
	if !c.key(sep, name) {
		return 0, false
	}
	return c.integer()
}

// end reports whether only whitespace remains.
func (c *cursor) end() bool {
	c.space()
	return c.i == len(c.b)
}

// integer reads a plain integer literal: an optional minus, digits, no
// leading zero, within int. A fraction or exponent is left for the next
// token match to refuse, which is how 1.0 and 1e2 reach the strict
// decoder's error.
func (c *cursor) integer() (int, bool) {
	c.space()
	i := c.i
	neg := i < len(c.b) && c.b[i] == '-'
	if neg {
		i++
	}
	start, v, limit := i, uint64(0), uint64(math.MaxInt)
	if neg {
		limit++
	}
	for ; i < len(c.b) && c.b[i]-'0' <= 9 && v <= (math.MaxUint64-9)/10; i++ {
		v = v*10 + uint64(c.b[i]-'0')
	}
	if i == start || (i-start > 1 && c.b[start] == '0') || v > limit || (i < len(c.b) && c.b[i]-'0' <= 9) {
		return 0, false
	}
	c.i = i
	if neg {
		return int(-int64(v)), true
	}
	return int(v), true
}

// number reads a JSON number literal and converts it exactly as
// encoding/json does for a float64 field: strconv.ParseFloat on the
// literal, a range error refusing the value.
func (c *cursor) number() (float64, bool) {
	c.space()
	i := c.i
	digits := func() bool {
		start := i
		for i < len(c.b) && c.b[i]-'0' <= 9 {
			i++
		}
		return i > start
	}
	if i < len(c.b) && c.b[i] == '-' {
		i++
	}
	if lead := i; !digits() || (i-lead > 1 && c.b[lead] == '0') {
		return 0, false
	}
	if i < len(c.b) && c.b[i] == '.' {
		if i++; !digits() {
			return 0, false
		}
	}
	if i < len(c.b) && c.b[i]|0x20 == 'e' {
		if i++; i < len(c.b) && (c.b[i] == '+' || c.b[i] == '-') {
			i++
		}
		if !digits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(c.b[c.i:i]), 64)
	c.i = i
	return f, err == nil
}

// skip steps over one value of any kind. It balances brackets and
// honours string escapes but does not validate: callers that need
// validity run json.Valid over the body first.
func (c *cursor) skip() bool {
	c.space()
	start, depth := c.i, 0
	for ; c.i < len(c.b); c.i++ {
		switch c.b[c.i] {
		case '"':
			for c.i++; c.i < len(c.b) && c.b[c.i] != '"'; c.i++ {
				if c.b[c.i] == '\\' {
					c.i++
				}
			}
			if c.i >= len(c.b) {
				return false
			}
		case '{', '[':
			depth++
			continue
		case '}', ']':
			if depth == 0 { // the enclosing container closes: a scalar ended
				return c.i > start
			}
			depth--
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return c.i > start
			}
			continue
		default: // a byte of a number, true, false or null
			continue
		}
		if depth == 0 { // a string or a container just closed at the top
			c.i++
			return true
		}
	}
	return depth == 0 && c.i > start // a scalar that runs to the end of the body
}

// list scans {"<key>":[elem,...]} as a whole body; elem consumes one
// element at the cursor.
func (c *cursor) list(key string, elem func() bool) bool {
	if !c.key("{", key) || !c.tok("[") {
		return false
	}
	for first := true; !c.tok("]"); first = false {
		if !first && !c.tok(",") || !elem() {
			return false
		}
	}
	return c.tok("}") && c.end()
}

// AppendFloatJSON appends f the way encoding/json does: shortest
// round-trip form, 'f' format in the human range, 'e' outside it with
// the exponent's leading zero trimmed. ok=false, nothing appended, for
// NaN and the infinities.
func AppendFloatJSON(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	abs, format := math.Abs(f), byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}

// AppendStringJSON appends s quoted with encoding/json's default
// escaping. Printable ASCII — every message the data plane builds — is
// rendered here: quote and backslash escaped, the HTML-unsafe <, >, &
// as \u00XX, newline, return and tab by their short forms. A string
// holding anything else (other control bytes, whose escapes changed in
// Go 1.22; bytes ≥ 0x80, where encoding/json escapes U+2028/U+2029 and
// replaces invalid UTF-8) is handed to encoding/json whole.
func AppendStringJSON(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	mark := len(b)
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '<' || c == '>' || c == '&':
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		case c >= 0x20 && c < 0x80:
			b = append(b, c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c == '\t':
			b = append(b, '\\', 't')
		default:
			quoted, _ := json.Marshal(s) //nolint:errcheck // a string always marshals
			return append(b[:mark], quoted...)
		}
	}
	return append(b, '"')
}

package eventlog

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// The event-derived outputs (the JSONL log, the Chrome trace, the
// attribution report) are written by hand with the helpers below, not by
// encoding/json: reflection plus a compact-marshal-then-indent pass cost
// more host time than simulating the run. The helpers reproduce
// encoding/json's bytes exactly (HTML-safe string escaping, its float
// format, json.Indent's layout); the encoding/json writers they replaced
// live on in the package tests as the reference.

// jsonPlain marks the bytes a JSON string carries unescaped under
// encoding/json's HTML-safe rules: printable ASCII except `"`, `\`, `<`,
// `>` and `&`. It spans every byte value so the lookup needs no range
// check.
var jsonPlain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendJSONString appends s as a JSON string literal, escaped exactly as
// encoding/json escapes it. Plain ASCII is copied straight through;
// anything else takes json.Marshal, so the rare escaped string is exact
// by construction.
func appendJSONString[S ~string | ~[]byte](dst []byte, s S) []byte {
	for i := 0; i < len(s); i++ {
		if !jsonPlain[s[i]] {
			q, _ := json.Marshal(string(s)) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendJSONFloat appends f as encoding/json formats a float64: the
// shortest 'f' form, switching to 'e' below 1e-6 or from 1e21 up, with
// the exponent's leading zero dropped (e-09 → e-9). NaN and ±Inf, which
// JSON cannot carry, return encoding/json's error and leave dst
// unchanged.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// JSONWriter appends an indented JSON document to Buf in the layout
// json.Indent gives with an empty prefix: every member and element on its
// own line, nested one indent deeper, `": "` after keys, and `{}` / `[]`
// for empty containers. The caller walks the document: Open a
// container, then Key (objects) or Elem (arrays) before each value.
type JSONWriter struct {
	Buf    []byte
	indent string
	nl     []byte // "\n" then indent repeated, as deep as written so far
	depth  int
	first  bool // no member written yet in the innermost open container
	err    error
}

// NewJSONWriter returns a writer indenting by indent that appends to buf.
func NewJSONWriter(indent string, buf []byte) *JSONWriter {
	return &JSONWriter{Buf: buf, indent: indent}
}

// Err returns the first value error (a non-finite float), if any.
func (w *JSONWriter) Err() error { return w.err }

// Open starts an object ('{') or array ('[').
func (w *JSONWriter) Open(c byte) {
	w.Buf = append(w.Buf, c)
	w.depth++
	w.first = true
}

// Close ends the innermost container with '}' or ']'.
func (w *JSONWriter) Close(c byte) {
	w.depth--
	if !w.first {
		w.newline()
	}
	w.Buf = append(w.Buf, c)
	w.first = false
}

// Key starts an object member; its value follows.
func (w *JSONWriter) Key(k string) {
	w.Elem()
	w.Buf = appendJSONString(w.Buf, k)
	w.Buf = append(w.Buf, ':', ' ')
}

// Elem starts an array element; its value follows.
func (w *JSONWriter) Elem() {
	if !w.first {
		w.Buf = append(w.Buf, ',')
	}
	w.first = false
	w.newline()
}

func (w *JSONWriter) newline() {
	n := 1 + w.depth*len(w.indent)
	if len(w.nl) < n {
		if len(w.nl) == 0 {
			w.nl = append(w.nl, '\n')
		}
		for len(w.nl) < n {
			w.nl = append(w.nl, w.indent...)
		}
	}
	w.Buf = append(w.Buf, w.nl[:n]...)
}

// String writes a string value.
func (w *JSONWriter) String(s string) { w.Buf = appendJSONString(w.Buf, s) }

// Int writes an integer value.
func (w *JSONWriter) Int(v int64) { w.Buf = strconv.AppendInt(w.Buf, v, 10) }

// Float writes a float value; NaN and ±Inf are recorded in Err instead.
func (w *JSONWriter) Float(f float64) {
	var err error
	w.Buf, err = appendJSONFloat(w.Buf, f)
	if err != nil && w.err == nil {
		w.err = err
	}
}

// Raw writes a literal value such as null or true.
func (w *JSONWriter) Raw(lit string) { w.Buf = append(w.Buf, lit...) }

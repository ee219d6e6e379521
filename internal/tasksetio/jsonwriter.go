package tasksetio

import (
	"encoding/json"
	"math"
	"strconv"

	"hydra/internal/rts"
)

// appendString appends s as encoding/json encodes a string, escaping
// HTML characters as json.Marshal does. A printable-ASCII string without
// '"', '\\', '<', '>' or '&' is copied between quotes; any other string is
// escaped by encoding/json itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < ' ' || c > '~', c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends f as encoding/json encodes a float64: the shortest
// decimal that round-trips, in 'f' form, or in 'e' form when
// 0 < |f| < 1e-6 or |f| >= 1e21. It reports false and appends nothing when
// f is NaN or infinite, which encoding/json refuses to encode.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json shortens e-07 to e-7.
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// JSONWriter appends one JSON value to Buf laid out as
// json.MarshalIndent(v, "", "  ") lays out v: one member or element per
// line, two spaces of indent per level, and "{}" or "[]" for an empty
// object or array. Strings and floats are the bytes appendString and
// appendFloat give. The caller supplies the structure: Key before each
// object member, Elem before each array element.
type JSONWriter struct {
	Buf       []byte
	depth     int
	empty     bool // the innermost open object or array has no member yet
	nonFinite bool
}

// OK reports whether every float written was finite. When it is false Buf
// holds no valid document: encoding/json fails on the same value.
func (w *JSONWriter) OK() bool { return !w.nonFinite }

// Key starts an object member. k must be a plain name that needs no
// escaping, as struct field tags are.
func (w *JSONWriter) Key(k string) *JSONWriter {
	w.next()
	w.Buf = append(w.Buf, '"')
	w.Buf = append(w.Buf, k...)
	w.Buf = append(w.Buf, `": `...)
	return w
}

// Elem starts an array element.
func (w *JSONWriter) Elem() *JSONWriter {
	w.next()
	return w
}

func (w *JSONWriter) next() {
	if !w.empty {
		w.Buf = append(w.Buf, ',')
	}
	w.empty = false
	w.newline()
}

// newline ends the line and indents the next to the current depth.
func (w *JSONWriter) newline() {
	w.Buf = append(w.Buf, '\n')
	for i := 0; i < w.depth; i++ {
		w.Buf = append(w.Buf, "  "...)
	}
}

// BeginObject opens an object.
func (w *JSONWriter) BeginObject() { w.begin('{') }

// EndObject closes the innermost object.
func (w *JSONWriter) EndObject() { w.end('}') }

// BeginArray opens an array.
func (w *JSONWriter) BeginArray() { w.begin('[') }

// EndArray closes the innermost array.
func (w *JSONWriter) EndArray() { w.end(']') }

func (w *JSONWriter) begin(c byte) {
	w.Buf = append(w.Buf, c)
	w.depth++
	w.empty = true
}

func (w *JSONWriter) end(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.Buf = append(w.Buf, c)
	w.empty = false
}

// String writes a string.
func (w *JSONWriter) String(s string) { w.Buf = appendString(w.Buf, s) }

// Float writes a float64; a NaN or infinity marks the writer not OK.
func (w *JSONWriter) Float(f float64) {
	var ok bool
	w.Buf, ok = appendFloat(w.Buf, f)
	w.nonFinite = w.nonFinite || !ok
}

// Bool writes a bool.
func (w *JSONWriter) Bool(v bool) { w.Buf = strconv.AppendBool(w.Buf, v) }

// Int writes an int.
func (w *JSONWriter) Int(i int) { w.Buf = strconv.AppendInt(w.Buf, int64(i), 10) }

// Uint writes a uint64.
func (w *JSONWriter) Uint(u uint64) { w.Buf = strconv.AppendUint(w.Buf, u, 10) }

// PlacedRT writes a committed real-time task as the object both documents
// of a hosted system carry, GET /v1/systems/{id} and snapshot.json: name,
// wcet_ms, period_ms, deadline_ms only when the deadline differs from the
// period and is nonzero, then core.
func (w *JSONWriter) PlacedRT(t rts.RTTask, core int) {
	w.BeginObject()
	w.Key("name").String(t.Name)
	w.Key("wcet_ms").Float(t.C)
	w.Key("period_ms").Float(t.T)
	if t.D != t.T && t.D != 0 {
		w.Key("deadline_ms").Float(t.D)
	}
	w.Key("core").Int(core)
	w.EndObject()
}

// PlacedSecurity writes the members both documents of a hosted system give a
// committed security task, into an object the caller begins and ends: name,
// wcet_ms, desired_period_ms, max_period_ms, weight only when nonzero, core
// and the adapted period_ms. GET /v1/systems/{id} follows them with the
// task's tightness.
func (w *JSONWriter) PlacedSecurity(t rts.SecurityTask, core int, period float64) {
	w.Key("name").String(t.Name)
	w.Key("wcet_ms").Float(t.C)
	w.Key("desired_period_ms").Float(t.TDes)
	w.Key("max_period_ms").Float(t.TMax)
	if t.Weight != 0 {
		w.Key("weight").Float(t.Weight)
	}
	w.Key("core").Int(core)
	w.Key("period_ms").Float(period)
}

// Result writes the result document: the bytes encoding/json gives rj, with
// reason, tasks and rt_partition left out where omitempty leaves them out.
// It is the one renderer of the /v1/allocate body and of hydra -json.
func (w *JSONWriter) Result(rj *ResultJSON) {
	w.BeginObject()
	w.Key("scheme").String(rj.Scheme)
	w.Key("schedulable").Bool(rj.Schedulable)
	if rj.Reason != "" {
		w.Key("reason").String(rj.Reason)
	}
	w.Key("cumulative_tightness").Float(rj.CumulativeTightness)
	if len(rj.Tasks) > 0 {
		w.Key("tasks").BeginArray()
		for i := range rj.Tasks {
			t := &rj.Tasks[i]
			w.Elem().BeginObject()
			w.Key("name").String(t.Name)
			w.Key("core").Int(t.Core)
			w.Key("period_ms").Float(t.PeriodMS)
			w.Key("tightness").Float(t.Tightness)
			w.Key("accepted").Bool(t.Accepted)
			w.EndObject()
		}
		w.EndArray()
	}
	if len(rj.RTPartition) > 0 {
		w.Key("rt_partition").BeginArray()
		for _, t := range rj.RTPartition {
			w.Elem().BeginObject()
			w.Key("name").String(t.Name)
			w.Key("core").Int(t.Core)
			w.EndObject()
		}
		w.EndArray()
	}
	w.EndObject()
}

package tasksetio

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"hydra/internal/rts"
)

// FuzzDecode checks that arbitrary input never panics the decoder and that
// every accepted document survives an encode/decode round trip.
func FuzzDecode(f *testing.F) {
	f.Add(sample)
	f.Add(`{"cores": 1}`)
	f.Add(`{"cores": 3, "rt_tasks": [{"name":"x","wcet_ms":1,"period_ms":2}]}`)
	f.Add(`[]`)
	f.Add(``)
	f.Add(`{"cores": 2, "security_tasks": [{"name":"s","wcet_ms":1,"desired_period_ms":5,"max_period_ms":50}]}`)
	f.Fuzz(func(t *testing.T, doc string) {
		p, err := Decode(strings.NewReader(doc))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := Encode(&buf, p); err != nil {
			t.Fatalf("accepted problem failed to encode: %v", err)
		}
		p2, err := Decode(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, buf.String())
		}
		if len(p2.RT) != len(p.RT) || len(p2.Sec) != len(p.Sec) || p2.M != p.M {
			t.Fatal("round trip changed the problem shape")
		}
	})
}

// FuzzAppendJSON checks the JSON primitives against encoding/json: for any
// string and any float64 bit pattern, each appends exactly the bytes
// json.Marshal returns, or both fail. So does JSONWriter.Result on a
// one-task result document whose names and reason are the string and whose
// floats are the float64, and so do the placement writers on the number
// text of such tasks (checkPlacedText). The committed corpus seeds NaN, the
// infinities, -0, a subnormal, the 'e'-form cutoffs, invalid UTF-8, U+2028,
// HTML characters and control characters.
func FuzzAppendJSON(f *testing.F) {
	// Each primitive appends to a fresh copy of prefix, so what it leaves
	// before its output is checked too.
	const prefix = "p"
	f.Fuzz(func(t *testing.T, s string, bits uint64) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("json.Marshal(%q): %v", s, err)
		}
		if got := appendString([]byte(prefix), s); string(got) != prefix+string(want) {
			t.Fatalf("appendString(%q) = %q, json.Marshal = %q", s, got, want)
		}
		x := math.Float64frombits(bits)
		want, err = json.Marshal(x)
		got, ok := appendFloat([]byte(prefix), x)
		switch {
		case ok != (err == nil):
			t.Fatalf("appendFloat(%v) ok = %t, json.Marshal error = %v", x, ok, err)
		case ok && string(got) != prefix+string(want):
			t.Fatalf("appendFloat(%v) = %q, json.Marshal = %q", x, got, want)
		case !ok && string(got) != prefix:
			t.Fatalf("appendFloat(%v) failed but appended to %q", x, got)
		}
		rj := &ResultJSON{
			Scheme: "hydra", Schedulable: true, Reason: s, CumulativeTightness: x,
			Tasks:       []TaskResultJSON{{Name: s, Core: 1, PeriodMS: x, Tightness: x, Accepted: true}},
			RTPartition: []RTPlacementJSON{{Name: s, Core: 0}},
		}
		want, err = referenceResult(rj)
		got, ok = renderResult(rj)
		switch {
		case ok != (err == nil):
			t.Fatalf("result document of %q, %v: ok = %t, encoding/json error = %v", s, x, ok, err)
		case ok && string(got) != string(want):
			t.Fatalf("result document of %q, %v:\n%s\nencoding/json:\n%s", s, x, got, want)
		}
		checkPlacedText(t, s, x)
	})
}

// checkPlacedText renders a hosted system's placements through their number
// text, every float x and the deadline x/2, and compares them with
// encoding/json's rendering of the members the documents give them.
func checkPlacedText(t *testing.T, s string, x float64) {
	type rtRef struct {
		Name     string  `json:"name"`
		WCET     float64 `json:"wcet_ms"`
		Period   float64 `json:"period_ms"`
		Deadline float64 `json:"deadline_ms,omitempty"`
		Core     int     `json:"core"`
	}
	type secRef struct {
		Name      string   `json:"name"`
		WCET      float64  `json:"wcet_ms"`
		Desired   float64  `json:"desired_period_ms"`
		Max       float64  `json:"max_period_ms"`
		Weight    float64  `json:"weight,omitempty"`
		Core      int      `json:"core"`
		Period    float64  `json:"period_ms"`
		Tightness *float64 `json:"tightness,omitempty"`
	}
	rt := rts.RTTask{Name: s, C: x, T: x, D: x / 2}
	sec := rts.SecurityTask{Name: s, C: x, TDes: x, TMax: x, Weight: x}
	deadline, eta := 0.0, sec.Tightness(x)
	if rt.D != rt.T {
		deadline = rt.D
	}
	for _, c := range []struct {
		ref    any
		render func(*JSONWriter)
	}{
		{rtRef{s, x, x, deadline, 0}, func(w *JSONWriter) { w.PlacedRT(s, PlacedRTText(rt), 0) }},
		{secRef{s, x, x, x, x, 1, x, &eta}, func(w *JSONWriter) { w.PlacedSecurity(s, PlacedSecText(sec, x), 1, true) }},
		{secRef{s, x, x, x, x, 1, x, nil}, func(w *JSONWriter) { w.PlacedSecurity(s, PlacedSecText(sec, x), 1, false) }},
	} {
		want, err := json.MarshalIndent(c.ref, "", "  ")
		var w JSONWriter
		c.render(&w)
		switch {
		case w.OK() != (err == nil):
			t.Fatalf("placement of %q, %v: ok = %t, encoding/json error = %v", s, x, w.OK(), err)
		case w.OK() && string(w.Buf) != string(want):
			t.Fatalf("placement of %q, %v:\n%s\nencoding/json:\n%s", s, x, w.Buf, want)
		}
	}
}

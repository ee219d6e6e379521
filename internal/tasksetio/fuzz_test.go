package tasksetio

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
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
// floats are the float64. The committed corpus seeds NaN, the infinities,
// -0, a subnormal, the 'e'-form cutoffs, invalid UTF-8, U+2028, HTML
// characters and control characters.
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
	})
}

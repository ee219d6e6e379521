package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hydra/internal/stats"
	"hydra/internal/taskgen"
	"hydra/internal/tasksetio"
)

// oddBodies are POST /v1/allocate bodies outside the plain subset or on its
// edges. The handler must answer each exactly as the encoding/json decode of
// the same bytes dictates; they also seed FuzzDecodeAllocate.
var oddBodies = []struct{ name, body string }{
	{"escaped name", `{"taskset": {"cores": 2, "rt_tasks": [{"name": "c\u0074l", "wcet_ms": 5, "period_ms": 20}], "security_tasks": [{"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000}]}}`},
	{"non-ASCII name", `{"taskset": {"cores": 2, "rt_tasks": [{"name": "ctl-é", "wcet_ms": 5, "period_ms": 20}], "security_tasks": [{"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000}]}}`},
	{"case-variant key", `{"taskset": {"Cores": 2, "rt_tasks": [{"name": "ctl", "wcet_ms": 5, "period_ms": 20}], "security_tasks": [{"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000}]}}`},
	{"duplicate taskset", `{"taskset": {"cores": 2, "rt_tasks": [{"name": "ctl", "wcet_ms": 5, "period_ms": 20}], "security_tasks": [{"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000}]}, "taskset": {"cores": 4}}`},
	{"null", `null`},
	{"integral float for an int", `{"taskset": {"cores": 2.0, "rt_tasks": [{"name": "ctl", "wcet_ms": 5, "period_ms": 20}], "security_tasks": [{"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000}]}}`},
	{"out-of-range float", `{"taskset": {"cores": 2, "rt_tasks": [{"name": "ctl", "wcet_ms": 1e400, "period_ms": 20}], "security_tasks": [{"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000}]}}`},
	{"negative zero", `{"taskset": {"cores": 2, "rt_tasks": [{"name": "ctl", "wcet_ms": 5, "period_ms": 20, "deadline_ms": -0}], "security_tasks": [{"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000, "weight": -0}]}}`},
	{"trailing garbage", `{"taskset": {"cores": 2, "rt_tasks": [{"name": "ctl", "wcet_ms": 5, "period_ms": 20}], "security_tasks": [{"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000}]}} ]x{"`},
	{"empty body", ``},
	{"empty rt_partition", `{"taskset": {"cores": 2, "rt_tasks": [{"name": "ctl", "wcet_ms": 5, "period_ms": 20}], "security_tasks": [{"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000}], "rt_partition": []}}`},
	{"unknown nested field", `{"taskset": {"cores": 2, "rt_tasks": [{"name": "ctl", "wcet_ms": 5, "period_ms": 20, "priority": 1}], "security_tasks": [{"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000}]}}`},
}

// sameRequest reports whether two decoded requests are identical: floats
// compare by bit pattern (0 and -0 differ), slices by nil-ness as well as by
// elements.
func sameRequest(a, b AllocateRequest) bool {
	return sameValue(reflect.ValueOf(a), reflect.ValueOf(b))
}

func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// plainBody re-encodes a decoded request as a plain body that decodes back
// to an equal request. Floats compare with ==, because json.Marshal omits a
// -0 under omitempty, and the service reads those fields' -0 and 0 alike.
// An empty rt_partition, omitted too, decodes differently from an absent
// one, so it is spelled out.
func plainBody(t *testing.T, req AllocateRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if p := req.Taskset.RTPartition; p != nil && len(p) == 0 {
		b = bytes.Replace(b, []byte(`"taskset":{`), []byte(`"taskset":{"rt_partition":[],`), 1)
	}
	var back AllocateRequest
	if err := decodeStrict(b, &back); err != nil || !reflect.DeepEqual(back, req) {
		t.Fatalf("re-encoded body %s does not decode back to %+v (%v)", b, req, err)
	}
	return string(b)
}

// TestAllocateOddBodies posts each odd body and expects the answer the
// strict decode of its bytes implies: that decode's error as a 400, or else
// the response to the same request sent as a plain body.
func TestAllocateOddBodies(t *testing.T) {
	s := newServer(t)
	for _, c := range oddBodies {
		t.Run(c.name, func(t *testing.T) {
			got := post(t, s, "/v1/allocate", c.body)
			var want AllocateRequest
			if err := decodeStrict([]byte(c.body), &want); err != nil {
				var resp errorResponse
				if got.Code != http.StatusBadRequest || json.Unmarshal(got.Body.Bytes(), &resp) != nil {
					t.Fatalf("status %d, body %s; want 400 for %v", got.Code, got.Body, err)
				}
				if resp.Error != "parse request: "+err.Error() {
					t.Fatalf("error %q, want %q", resp.Error, "parse request: "+err.Error())
				}
				return
			}
			ref := post(t, s, "/v1/allocate", plainBody(t, want))
			if got.Code != ref.Code || got.Body.String() != ref.Body.String() {
				t.Fatalf("odd body got %d %s\nplain body got %d %s", got.Code, got.Body, ref.Code, ref.Body)
			}
		})
	}
}

// m8Body is a POST /v1/allocate body for a generated M=8 taskset (64 tasks,
// 5.8 KB), in the compact form of hydra-bench's allocate requests.
func m8Body(tb testing.TB) []byte {
	tb.Helper()
	w, err := taskgen.Generate(taskgen.DefaultParams(8, 4), stats.Split(1, 1))
	if err != nil {
		tb.Fatal(err)
	}
	var doc, compact bytes.Buffer
	if err := tasksetio.Encode(&doc, &tasksetio.Problem{M: 8, RT: w.RT, Sec: w.Sec}); err != nil {
		tb.Fatal(err)
	}
	if err := json.Compact(&compact, []byte(allocateBody(doc.String(), ""))); err != nil {
		tb.Fatal(err)
	}
	return compact.Bytes()
}

// FuzzDecodeAllocate checks the plain decoder against encoding/json: on any
// bytes it either declines, or returns exactly the value the strict decode
// returns, and the strict decode succeeds.
func FuzzDecodeAllocate(f *testing.F) {
	for _, c := range oddBodies {
		f.Add([]byte(c.body))
	}
	f.Add([]byte(allocateBody(sampleTaskset, "")))
	f.Add([]byte(allKeysBody))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := decodeAllocatePlain(body)
		if !ok {
			return
		}
		var want AllocateRequest
		if err := decodeStrict(body, &want); err != nil {
			t.Fatalf("plain decode accepted a body encoding/json rejects (%v): %q", err, body)
		}
		if !sameRequest(got, want) {
			t.Fatalf("plain decode = %+v\nencoding/json = %+v\nbody %q", got, want, body)
		}
	})
}

// TestPlainBodiesTakeFastPath pins which bodies skip encoding/json: the
// service's own sample, a JSON encoder's compact output, and a body using
// every key.
func TestPlainBodiesTakeFastPath(t *testing.T) {
	for name, body := range map[string][]byte{
		"sample":   []byte(allocateBody(sampleTaskset, "")),
		"m8":       m8Body(t),
		"all keys": []byte(allKeysBody),
	} {
		got, ok := decodeAllocatePlain(body)
		if !ok {
			t.Errorf("%s: plain decode declined", name)
			continue
		}
		var want AllocateRequest
		if err := decodeStrict(body, &want); err != nil || !sameRequest(got, want) {
			t.Errorf("%s: plain decode = %+v, encoding/json = %+v (%v)", name, got, want, err)
		}
	}
}

// TestPlainDecodeBoundsSizeHint sends a run of braces, which the plain
// decoder declines: sizing the task slice from the brace count must not
// reserve memory in proportion to the run.
func TestPlainDecodeBoundsSizeHint(t *testing.T) {
	body := []byte(`{"taskset": {"rt_tasks": [` + strings.Repeat("{", 1<<20))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, ok := decodeAllocatePlain(body); ok {
		t.Fatal("plain decode accepted a run of braces")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("declining a 1 MiB body allocated %d bytes", got)
	}
}

// allKeysBody sets every field of AllocateRequest and its taskset.
const allKeysBody = "{\"scheme\":\"hydra\", \"heuristic\":\"worst-fit\",\t\"results_version\":1,\r\n" +
	`"taskset": {"cores": 2, "rt_partition": [1, 0],
	  "rt_tasks": [{"name": "ctl", "wcet_ms": 5e0, "period_ms": 20.0, "deadline_ms": 1.8E+1},
	               {"name": "nav", "wcet_ms": 0.3e2, "period_ms": 100, "deadline_ms": -0.0}],
	  "security_tasks": [{"name": "tw", "wcet_ms": 50, "desired_period_ms": 1000, "max_period_ms": 10000, "weight": 2.5},
	                     {"name": "b ro", "wcet_ms": 30, "desired_period_ms": 500, "max_period_ms": 5e3, "weight": 1e-1}]}}`

// BenchmarkDecodeAllocate times decode plus ToProblem of the M=8 body,
// through the plain decoder and through encoding/json alone.
func BenchmarkDecodeAllocate(b *testing.B) {
	body := m8Body(b)
	for _, bc := range []struct {
		name   string
		decode func([]byte) (AllocateRequest, error)
	}{
		{"plain", decodeAllocate},
		{"strict", func(body []byte) (AllocateRequest, error) {
			var req AllocateRequest
			err := decodeStrict(body, &req)
			return req, err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req, err := bc.decode(body)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := req.Taskset.ToProblem(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

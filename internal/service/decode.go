package service

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"

	"hydra/internal/tasksetio"
)

// decodeStrict parses one JSON value from body into v with encoding/json,
// rejecting unknown fields. Bytes after the value are ignored. It words
// every JSON error the service reports for a request body.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// decodeAllocate parses a POST /v1/allocate body. Plain bodies — what JSON
// encoders emit for a request — skip reflection; any other body, and every
// malformed one, goes through decodeStrict, so both paths agree on the value
// and only encoding/json words errors.
func decodeAllocate(body []byte) (AllocateRequest, error) {
	if req, ok := decodeAllocatePlain(body); ok {
		return req, nil
	}
	var req AllocateRequest
	err := decodeStrict(body, &req)
	return req, err
}

// decodeAllocatePlain decodes body without reflection when it is plain:
//
//   - every key is an exact-case key of AllocateRequest, tasksetio.Document
//     or its task types, and no key repeats within an object;
//   - every string is printable ASCII without escapes;
//   - every number is a JSON number that strconv parses for its field: with
//     ParseFloat(s, 64) for floats, ParseInt(s, 10, strconv.IntSize) for ints;
//   - there is no null or boolean.
//
// On a plain body it returns the value decodeStrict would produce: [] is a
// non-nil empty slice, and bytes after the top-level object are ignored.
// Otherwise it reports false and the caller must decode strictly. Strings in
// the result are substrings of one copy of body.
func decodeAllocatePlain(body []byte) (AllocateRequest, bool) {
	d := plainDecoder{s: string(body)}
	var req AllocateRequest
	d.space()
	ok := d.object(func(key string) bool {
		switch key {
		case "scheme":
			return d.string(&req.Scheme)
		case "heuristic":
			return d.string(&req.Heuristic)
		case "results_version":
			return d.int(&req.ResultsVersion)
		case "taskset":
			return d.document(&req.Taskset)
		}
		return false
	})
	return req, ok
}

// plainDecoder is a cursor over a plain body. Its methods consume one JSON
// token or value at the cursor and report false on anything outside the
// plain subset, leaving the cursor undefined.
type plainDecoder struct {
	s string
	i int
}

func (d *plainDecoder) document(doc *tasksetio.Document) bool {
	return d.object(func(key string) bool {
		switch key {
		case "cores":
			return d.int(&doc.Cores)
		case "rt_tasks":
			doc.RTTasks = make([]tasksetio.RTTaskJSON, 0, d.objects())
			return d.array(func() bool {
				doc.RTTasks = append(doc.RTTasks, tasksetio.RTTaskJSON{})
				return d.rtTask(&doc.RTTasks[len(doc.RTTasks)-1])
			})
		case "security_tasks":
			doc.SecurityTasks = make([]tasksetio.SecurityTaskJSON, 0, d.objects())
			return d.array(func() bool {
				doc.SecurityTasks = append(doc.SecurityTasks, tasksetio.SecurityTaskJSON{})
				return d.securityTask(&doc.SecurityTasks[len(doc.SecurityTasks)-1])
			})
		case "rt_partition":
			doc.RTPartition = []int{}
			return d.array(func() bool {
				doc.RTPartition = append(doc.RTPartition, 0)
				return d.int(&doc.RTPartition[len(doc.RTPartition)-1])
			})
		}
		return false
	})
}

func (d *plainDecoder) rtTask(t *tasksetio.RTTaskJSON) bool {
	return d.object(func(key string) bool {
		switch key {
		case "name":
			return d.string(&t.Name)
		case "wcet_ms":
			return d.float(&t.WCET)
		case "period_ms":
			return d.float(&t.Period)
		case "deadline_ms":
			return d.float(&t.Deadline)
		}
		return false
	})
}

func (d *plainDecoder) securityTask(t *tasksetio.SecurityTaskJSON) bool {
	return d.object(func(key string) bool {
		switch key {
		case "name":
			return d.string(&t.Name)
		case "wcet_ms":
			return d.float(&t.WCET)
		case "desired_period_ms":
			return d.float(&t.DesiredPeriod)
		case "max_period_ms":
			return d.float(&t.MaxPeriod)
		case "weight":
			return d.float(&t.Weight)
		}
		return false
	})
}

// maxPlainKeys bounds the keys of one plain object: no decoded type has more
// fields, so a longer object repeats or misspells a key.
const maxPlainKeys = 5

// object consumes an object, calling field with the cursor on each member's
// value; field consumes the value and reports false for an unknown key.
func (d *plainDecoder) object(field func(key string) bool) bool {
	if !d.consume('{') {
		return false
	}
	d.space()
	if d.consume('}') {
		return true
	}
	var seen [maxPlainKeys]string
	for n := 0; ; n++ {
		var key string
		if n == len(seen) || !d.string(&key) {
			return false
		}
		for _, k := range seen[:n] {
			if k == key {
				return false
			}
		}
		seen[n] = key
		d.space()
		if !d.consume(':') {
			return false
		}
		d.space()
		if !field(key) {
			return false
		}
		d.space()
		if d.consume('}') {
			return true
		}
		if !d.consume(',') {
			return false
		}
		d.space()
	}
}

// array consumes an array, calling elem with the cursor on each element.
func (d *plainDecoder) array(elem func() bool) bool {
	if !d.consume('[') {
		return false
	}
	d.space()
	if d.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		d.space()
		if d.consume(']') {
			return true
		}
		if !d.consume(',') {
			return false
		}
		d.space()
	}
}

// maxObjectsHint caps objects: a run of '{' bytes, which no plain body has,
// must not reserve more memory than the elements a body decodes into.
const maxObjectsHint = 1024

// objects counts the '{' bytes between the cursor and the next ']', up to
// maxObjectsHint: the length of an array of flat objects at the cursor, used
// only to size the slice it decodes into.
func (d *plainDecoder) objects() int {
	rest := d.s[d.i:]
	if end := strings.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return min(strings.Count(rest, "{"), maxObjectsHint)
}

// string consumes a string of printable ASCII without escapes.
func (d *plainDecoder) string(dst *string) bool {
	if !d.consume('"') {
		return false
	}
	for start := d.i; d.i < len(d.s); d.i++ {
		switch c := d.s[d.i]; {
		case c == '"':
			*dst = d.s[start:d.i]
			d.i++
			return true
		case c < ' ' || c > '~' || c == '\\':
			return false
		}
	}
	return false
}

func (d *plainDecoder) float(dst *float64) bool {
	v, err := strconv.ParseFloat(d.number(), 64)
	*dst = v
	return err == nil
}

func (d *plainDecoder) int(dst *int) bool {
	v, err := strconv.ParseInt(d.number(), 10, strconv.IntSize)
	*dst = int(v)
	return err == nil
}

// number consumes a literal matching the JSON number grammar and returns it,
// or returns "" (which no strconv parser accepts) when there is none.
func (d *plainDecoder) number() string {
	start := d.i
	d.consume('-')
	if !d.consume('0') && !d.digits() {
		return ""
	}
	if d.consume('.') && !d.digits() {
		return ""
	}
	if d.consume('e') || d.consume('E') {
		if !d.consume('+') {
			d.consume('-')
		}
		if !d.digits() {
			return ""
		}
	}
	return d.s[start:d.i]
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (d *plainDecoder) digits() bool {
	start := d.i
	for d.i < len(d.s) && '0' <= d.s[d.i] && d.s[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// space consumes JSON whitespace.
func (d *plainDecoder) space() {
	for d.i < len(d.s) {
		switch d.s[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume advances past c when it is the next byte.
func (d *plainDecoder) consume(c byte) bool {
	if d.i < len(d.s) && d.s[d.i] == c {
		d.i++
		return true
	}
	return false
}

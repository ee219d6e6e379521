package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParsePrometheus reads a text-format exposition back into a flat
// series→value map, keyed exactly as rendered (name plus the literal label
// body, e.g. `hydra_allocate_seconds_count{outcome="hit"}`). It exists for the
// scrape-parse round-trip tests and the CI load smoke: the exposition this
// package writes must survive a parse with no information loss. Duplicate
// series are an error — Prometheus rejects them too.
func ParsePrometheus(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("obs: exposition line %d: no value separator: %q", lineNo, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: bad value %q: %v", lineNo, valStr, err)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("obs: exposition line %d: duplicate series %q", lineNo, key)
		}
		out[key] = val
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// SumSeries sums every parsed series whose name (the part before any '{')
// equals name — the across-labels total that scrape consumers compare
// against /v1/stats.
func SumSeries(series map[string]float64, name string) float64 {
	var sum float64
	for k, v := range series {
		base := k
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		if base == name {
			sum += v
		}
	}
	return sum
}

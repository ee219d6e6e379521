package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"hydra/internal/engine"
	"hydra/internal/stats"
)

// Hooks carries the campaign seams of a spec run: total-cell announcement,
// per-cell checkpointing, and checkpoint replay. The zero value disables all
// three, which is a plain uninterrupted run. Cell results cross the seam as
// their JSON encoding so a campaign store can persist them without knowing
// the spec's internal result types; every spec's cell results round-trip
// through JSON losslessly, which is what makes a resumed campaign
// byte-identical to an uninterrupted one.
type Hooks struct {
	// Total, when non-nil, is called once with the grid's cell count before
	// any cell runs.
	Total func(cells int)
	// OnCell, when non-nil, receives the JSON encoding of each freshly
	// evaluated cell result. Calls may come concurrently from engine
	// workers.
	OnCell func(idx int, encoded []byte)
	// Resume, when non-nil, supplies the JSON encoding of an already
	// completed cell; such cells are replayed instead of re-evaluated.
	// Calls may come concurrently from engine workers.
	Resume func(idx int) ([]byte, bool)
	// ResultsVersion, when non-zero, is the RNG version pinned by the
	// campaign manifest the spec runs under (stats.RNGVersion). A resumed
	// campaign replays under the version that produced its checkpoints; a
	// config that explicitly pins a different version is an error, never a
	// silent stream change. Zero leaves the choice to the spec config
	// (absent there too selects stats.DefaultResultsVersion).
	ResultsVersion stats.RNGVersion
}

// Spec is one registered experiment campaign: a named runner over a JSON
// config document. Mirroring the allocator registry, specs are selected by
// name (RegisterSpec / LookupSpec / SpecNames) so services and CLIs can host
// any experiment uniformly. Run returns the experiment's plot-ready result
// (the same value the figure drivers return), which marshals to the
// campaign's result document.
type Spec interface {
	// Name returns the registry key, e.g. "fig2".
	Name() string
	// Run decodes config (strict JSON; empty selects the paper's defaults)
	// and executes the experiment with the given campaign hooks.
	Run(ctx context.Context, config json.RawMessage, h Hooks) (any, error)
}

// specFunc adapts a function to the Spec interface.
type specFunc struct {
	name string
	run  func(ctx context.Context, config json.RawMessage, h Hooks) (any, error)
}

func (s specFunc) Name() string { return s.name }
func (s specFunc) Run(ctx context.Context, config json.RawMessage, h Hooks) (any, error) {
	return s.run(ctx, config, h)
}

var (
	specMu   sync.RWMutex
	specRegn = map[string]Spec{}
	// specNames mirrors specRegn's keys in sorted order, maintained at
	// registration time so no reader ever iterates the map: catalogue order
	// is deterministic by construction, not by a sort bolted onto each call.
	specNames []string
)

// RegisterSpec adds a spec to the global registry. Like core.Register it
// panics on an empty name or a duplicate: specs are identities, and silently
// replacing one would corrupt every campaign that selects it by name.
func RegisterSpec(s Spec) {
	name := s.Name()
	if name == "" {
		panic("experiments: RegisterSpec with empty spec name")
	}
	specMu.Lock()
	defer specMu.Unlock()
	if _, dup := specRegn[name]; dup {
		panic(fmt.Sprintf("experiments: RegisterSpec called twice for spec %q", name))
	}
	specRegn[name] = s
	i := sort.SearchStrings(specNames, name)
	specNames = append(specNames, "")
	copy(specNames[i+1:], specNames[i:])
	specNames[i] = name
}

// LookupSpec returns the registered spec with the given name.
func LookupSpec(name string) (Spec, bool) {
	specMu.RLock()
	defer specMu.RUnlock()
	s, ok := specRegn[name]
	return s, ok
}

// ResolveSpec is LookupSpec with a helpful error listing the catalogue; it
// is the parsing seam for experiment names arriving from flags or requests.
func ResolveSpec(name string) (Spec, error) {
	s, ok := LookupSpec(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (available: %s)", name, strings.Join(SpecNames(), ", "))
	}
	return s, nil
}

// SpecNames returns all registered spec names, sorted.
func SpecNames() []string {
	specMu.RLock()
	defer specMu.RUnlock()
	out := make([]string, len(specNames))
	copy(out, specNames)
	return out
}

// decodeSpecConfig strictly parses a spec's JSON config; empty input selects
// the zero config (the paper's defaults throughout).
func decodeSpecConfig[T any](raw json.RawMessage) (T, error) {
	var cfg T
	if len(raw) == 0 || string(raw) == "null" {
		return cfg, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("experiments: parse config: %w", err)
	}
	return cfg, nil
}

// resolveResultsVersion reconciles a spec config's results_version with the
// campaign manifest's (Hooks.ResultsVersion), for spec name in errors. The
// rules, in order:
//
//   - an explicit config version must parse, and must equal a non-zero
//     manifest version — a mismatch is an explicit error (the manifest names
//     the streams the checkpoints were drawn from; changing it mid-campaign
//     would silently mix generators);
//   - an absent config version defers to the manifest's;
//   - absent everywhere selects stats.DefaultResultsVersion (new direct runs
//     get the fast generator).
func resolveResultsVersion(name string, cfgVersion int, h Hooks) (stats.RNGVersion, error) {
	if cfgVersion != 0 {
		v, err := stats.ParseResultsVersion(cfgVersion)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		if h.ResultsVersion != 0 && h.ResultsVersion != v {
			return 0, fmt.Errorf("%s: config results_version %s conflicts with the campaign's pinned %s", name, v, h.ResultsVersion)
		}
		return v, nil
	}
	if h.ResultsVersion != 0 {
		if _, err := stats.ParseResultsVersion(int(h.ResultsVersion)); err != nil {
			return 0, fmt.Errorf("%s: campaign: %w", name, err)
		}
		return h.ResultsVersion, nil
	}
	return stats.DefaultResultsVersion, nil
}

// campaignEngineOptions wires the byte-level checkpoint seam of Hooks into
// typed engine options for cell-result type R. Corrupt checkpoint entries
// (undecodable bytes) are simply recomputed — determinism makes recomputation
// indistinguishable from replay.
func campaignEngineOptions[R any](opts engine.Options, h Hooks) engine.Options {
	if h.OnCell != nil {
		onCell := h.OnCell
		opts.OnCell = func(idx int, result any) {
			b, err := json.Marshal(result.(R))
			if err != nil {
				return // cell results are plain data; Marshal cannot fail on them
			}
			onCell(idx, b)
		}
	}
	if h.Resume != nil {
		resume := h.Resume
		opts.Precomputed = func(idx int) (any, bool) {
			b, ok := resume(idx)
			if !ok {
				return nil, false
			}
			var r R
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, false
			}
			return r, true
		}
	}
	return opts
}

// The experiment catalogue: every table and figure of the paper's
// evaluation, runnable by name with a JSON config.
func init() {
	RegisterSpec(specFunc{name: "table1", run: func(ctx context.Context, config json.RawMessage, h Hooks) (any, error) {
		if _, err := decodeSpecConfig[struct{}](config); err != nil {
			return nil, err
		}
		if h.Total != nil {
			h.Total(1)
		}
		rows := Table1()
		if h.OnCell != nil {
			if b, err := json.Marshal(rows); err == nil {
				h.OnCell(0, b)
			}
		}
		return rows, nil
	}})
	registerConfigured("fig1", runFig1)
	registerConfigured("fig2", runFig2)
	registerConfigured("fig3", runFig3)
	registerConfigured("ablation", runAblation)
	registerConfigured("online", runOnline)
}

// registerConfigured registers a spec that strictly decodes its config into
// C and runs it.
func registerConfigured[C, R any](name string, run func(context.Context, C, Hooks) (R, error)) {
	RegisterSpec(specFunc{name: name, run: func(ctx context.Context, config json.RawMessage, h Hooks) (any, error) {
		cfg, err := decodeSpecConfig[C](config)
		if err != nil {
			return nil, err
		}
		return run(ctx, cfg, h)
	}})
}

// Package jobs turns experiment campaigns — full design-space sweeps such as
// the paper's fig1/fig2/fig3, the ablation grid, or Table I — into resumable
// background jobs. A campaign runs a registered experiment spec
// (experiments.LookupSpec) over the parallel engine and checkpoints every
// completed grid cell to disk, so a killed or restarted process resumes
// exactly where it left off. Because each engine cell draws its RNG from the
// run seed and its own stream label (never shared state), replaying
// checkpointed cells and computing the rest yields a result byte-identical
// to a single uninterrupted run, for any worker count.
//
// # Campaign directory layout (the checkpoint format)
//
// A campaign lives in one directory with at most three files:
//
//	campaign.json   The campaign manifest, rewritten atomically
//	                (filelog.WriteFile) on every state change:
//
//	                  {
//	                    "spec":   "fig2",          // experiments registry name
//	                    "config": { ... },         // spec config, verbatim JSON
//	                    "state":  "running",       // running|done|failed|cancelled
//	                    "error":  "..."            // present when state == "failed"
//	                  }
//
//	cells.jsonl     The append-only cell checkpoint log. One line per
//	                completed grid cell, appended (and flushed) as cells
//	                finish, in completion order — NOT cell order:
//
//	                  {"idx": 17, "result": <cell-result JSON>}
//
//	                The <cell-result JSON> payload is the spec's own cell
//	                encoding (experiments.Hooks.OnCell). Lines may appear in
//	                any order; later duplicates of an idx win. A process
//	                killed mid-append leaves a truncated final line, which
//	                Open discards (and truncates away) before resuming —
//	                the lost cell is simply recomputed, and determinism
//	                makes the recomputation indistinguishable from replay.
//
//	result.json     The final result document (the spec result marshaled
//	                with indentation), written atomically once the campaign
//	                completes. Its bytes are the contract: resumed and
//	                uninterrupted runs of the same campaign produce
//	                identical files.
//
// Like internal/syspersist, the store reads its log with filelog.Replay and
// writes its documents with filelog.WriteFile, without fsync: its files
// survive a killed process, not a kernel crash.
package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"hydra/internal/experiments"
	"hydra/internal/filelog"
	"hydra/internal/stats"
)

// State is a campaign's persisted lifecycle state.
type State string

const (
	// StateRunning marks a campaign that has been created and not yet
	// finished; a campaign found in this state at startup was interrupted
	// and is resumable.
	StateRunning State = "running"
	// StateDone marks a campaign whose result.json has been written.
	StateDone State = "done"
	// StateFailed marks a campaign whose spec returned an error.
	StateFailed State = "failed"
	// StateCancelled marks a campaign cancelled by the user; it is not
	// resumed at startup.
	StateCancelled State = "cancelled"
)

const (
	metaFile   = "campaign.json"
	cellsFile  = "cells.jsonl"
	resultFile = "result.json"
)

// Meta is the campaign manifest persisted as campaign.json.
type Meta struct {
	Spec   string          `json:"spec"`
	Config json.RawMessage `json:"config,omitempty"`
	State  State           `json:"state"`
	Error  string          `json:"error,omitempty"`
	// ResultsVersion is the RNG family the campaign's streams draw from
	// (stats.RNGVersion: 1 = historical math/rand, 2 = SplitMix64). Create
	// stamps it on every new campaign (the config's explicit version, else
	// the default); manifests written before versioning existed carry none
	// and replay under v1 — the streams that produced their checkpoints.
	ResultsVersion int `json:"results_version,omitempty"`
}

// Progress is a snapshot of a running campaign, delivered to Run's progress
// callback after every cell (replayed or fresh).
type Progress struct {
	// Total is the grid's cell count (0 until the spec announces it).
	Total int
	// Done counts completed cells, including replayed ones.
	Done int
	// Replayed counts cells satisfied from the checkpoint log.
	Replayed int
}

// Campaign is one on-disk experiment campaign. Create starts a new one, Open
// loads an existing directory; Run executes (or resumes) it.
type Campaign struct {
	dir  string
	meta Meta

	mu      sync.Mutex
	done    map[int][]byte // checkpointed cells, idx -> cell-result JSON
	running bool
}

// ErrCancelled is returned by Run for campaigns in StateCancelled.
var ErrCancelled = errors.New("jobs: campaign cancelled")

// Create initializes a new campaign directory for the named experiment spec
// with the given JSON config (empty config selects the spec's defaults). It
// fails if the spec is unknown or the directory already holds a campaign.
func Create(dir, spec string, config json.RawMessage) (*Campaign, error) {
	if _, err := experiments.ResolveSpec(spec); err != nil {
		return nil, err
	}
	version, err := configResultsVersion(config)
	if err != nil {
		return nil, err
	}
	if version == 0 {
		version = stats.DefaultResultsVersion // new campaigns take the fast generator
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, metaFile)); err == nil {
		return nil, fmt.Errorf("jobs: %s already holds a campaign", dir)
	}
	c := &Campaign{
		dir:  dir,
		meta: Meta{Spec: spec, Config: config, State: StateRunning, ResultsVersion: int(version)},
		done: map[int][]byte{},
	}
	if err := c.writeMeta(); err != nil {
		return nil, err
	}
	return c, nil
}

// Open loads an existing campaign directory, replaying its checkpoint log.
// A truncated final log line (process killed mid-append) is discarded and
// truncated away so subsequent appends keep the log well-formed.
func Open(dir string) (*Campaign, error) {
	raw, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, fmt.Errorf("jobs: open campaign: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("jobs: parse %s: %w", metaFile, err)
	}
	if _, err := experiments.ResolveSpec(meta.Spec); err != nil {
		return nil, err
	}
	// An absent version means a pre-versioning manifest (replayed under v1
	// at Run); a present-but-unknown one is an explicit error — resuming it
	// under any known generator would silently change its streams.
	if meta.ResultsVersion != 0 {
		if _, err := stats.ParseResultsVersion(meta.ResultsVersion); err != nil {
			return nil, fmt.Errorf("jobs: %s: %w", metaFile, err)
		}
	}
	c := &Campaign{dir: dir, meta: meta}
	if c.done, err = loadCheckpoint(filepath.Join(dir, cellsFile)); err != nil {
		return nil, err
	}
	return c, nil
}

// Dir returns the campaign directory.
func (c *Campaign) Dir() string { return c.dir }

// Meta returns the campaign manifest.
func (c *Campaign) Meta() Meta {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.meta
}

// Checkpointed returns how many cells the checkpoint log holds.
func (c *Campaign) Checkpointed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Result returns the final result document, or an error when the campaign
// has not completed.
func (c *Campaign) Result() ([]byte, error) {
	return os.ReadFile(filepath.Join(c.dir, resultFile))
}

// MarkCancelled persists the cancelled state; a cancelled campaign refuses
// Run and is not resumed at startup.
func (c *Campaign) MarkCancelled() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.meta.State == StateDone {
		return nil // completed first; nothing to cancel
	}
	c.meta.State = StateCancelled
	return c.writeMetaLocked()
}

// Run executes the campaign to completion, resuming from the checkpoint log,
// and returns the final result document (also persisted as result.json). A
// campaign that already completed returns its persisted result unchanged. On
// cancellation (ctx) the campaign stays resumable; on a spec error it is
// marked failed. progress, when non-nil, is called after every replayed or
// freshly completed cell, serialized under the campaign lock.
func (c *Campaign) Run(ctx context.Context, progress func(Progress)) ([]byte, error) {
	c.mu.Lock()
	if c.running {
		c.mu.Unlock()
		return nil, fmt.Errorf("jobs: campaign already running")
	}
	switch c.meta.State {
	case StateCancelled:
		c.mu.Unlock()
		return nil, ErrCancelled
	case StateDone:
		c.mu.Unlock()
		return c.Result()
	}
	c.running = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.running = false
		c.mu.Unlock()
	}()

	spec, err := experiments.ResolveSpec(c.meta.Spec)
	if err != nil {
		return nil, err
	}
	log, err := os.OpenFile(filepath.Join(c.dir, cellsFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer log.Close()

	var prog Progress
	// replayed tracks cells counted as replayed this run: a checkpoint entry
	// that later turns out to be undecodable is recomputed and fires OnCell
	// for the same idx — reclassify it as fresh instead of double-counting.
	replayed := map[int]bool{}
	report := func() {
		if progress != nil {
			progress(prog)
		}
	}
	// The effective version: the stamped manifest's, or v1 for manifests
	// written before versioning existed (their checkpoints were drawn from
	// the v1 streams). The spec refuses a config that contradicts it.
	version := stats.RNGVersion(c.meta.ResultsVersion)
	if version == 0 {
		version = stats.LegacyResultsVersion
	}
	hooks := experiments.Hooks{
		ResultsVersion: version,
		Total: func(n int) {
			c.mu.Lock()
			prog.Total = n
			report()
			c.mu.Unlock()
		},
		OnCell: func(idx int, encoded []byte) {
			line, err := json.Marshal(checkpointLine{Idx: idx, Result: encoded})
			if err != nil {
				return
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			if _, err := log.Write(append(line, '\n')); err == nil {
				c.done[idx] = append([]byte(nil), encoded...)
			}
			if replayed[idx] {
				delete(replayed, idx)
				prog.Replayed-- // corrupt entry recomputed; Done already counted
			} else {
				prog.Done++
			}
			report()
		},
		Resume: func(idx int) ([]byte, bool) {
			c.mu.Lock()
			defer c.mu.Unlock()
			b, ok := c.done[idx]
			if ok && !replayed[idx] {
				replayed[idx] = true
				prog.Done++
				prog.Replayed++
				report()
			}
			return b, ok
		},
	}

	res, err := spec.Run(ctx, c.meta.Config, hooks)
	if err != nil {
		if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err // interrupted: stays StateRunning, resumable
		}
		c.mu.Lock()
		c.meta.State = StateFailed
		c.meta.Error = err.Error()
		werr := c.writeMetaLocked()
		c.mu.Unlock()
		if werr != nil {
			return nil, errors.Join(err, werr)
		}
		return nil, err
	}

	body, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	if err := filelog.WriteFile(filepath.Join(c.dir, resultFile), body, false); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.meta.State = StateDone
	c.meta.Error = "" // a re-run of a failed campaign succeeded; drop the stale error
	err = c.writeMetaLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return body, nil
}

// configResultsVersion peeks the results_version field of a spec config
// without decoding the rest (spec configs are strict-decoded by the spec
// itself at Run). Absent, null, or empty configs return 0; an explicit
// unknown version is an error at creation time, before anything is written.
func configResultsVersion(config json.RawMessage) (stats.RNGVersion, error) {
	if len(config) == 0 || string(config) == "null" {
		return 0, nil
	}
	var peek struct {
		ResultsVersion int `json:"results_version"`
	}
	if err := json.NewDecoder(bytes.NewReader(config)).Decode(&peek); err != nil {
		return 0, fmt.Errorf("jobs: parse config: %w", err)
	}
	if peek.ResultsVersion == 0 {
		return 0, nil
	}
	return stats.ParseResultsVersion(peek.ResultsVersion)
}

func (c *Campaign) writeMeta() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeMetaLocked()
}

func (c *Campaign) writeMetaLocked() error {
	body, err := json.MarshalIndent(c.meta, "", "  ")
	if err != nil {
		return err
	}
	return filelog.WriteFile(filepath.Join(c.dir, metaFile), append(body, '\n'), false)
}

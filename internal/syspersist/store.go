// Package syspersist makes the long-lived systems of internal/online durable.
// Every hosted system lives in its own directory as three files:
//
//	system.json    the creation manifest: id, scheme, heuristic, platform
//	               size, policy knobs and the initial taskset. Immutable.
//	events.jsonl   the write-ahead op log: one line per mutation attempt
//	               (add-rt, add-security, remove, reallocate), appended
//	               before the op is applied in memory. Append-only.
//	snapshot.json  a periodic atomic snapshot of the committed allocation
//	               plus the op-log position it reflects. Replaceable.
//
// The allocation engine is deterministic, so recovery is pure replay: rebuild
// the system from the manifest (or restore the snapshot, when one covers a
// log prefix) and re-apply the op tail through the same public methods a
// client would call. The recovered rts.AnalysisState, decision outcomes and
// event-log versions are bit-identical to the never-restarted process's. A
// torn final log line — the writing process died mid-append — is truncated
// away, like the jobs checkpoint reader; the op it carried was never
// acknowledged, so dropping it is correct.
//
// On top of the per-system store, Registry hosts every system of a process
// under one lock and one directory, <root>/shard-0/<id>, with exact
// live-system accounting and a rebalance path that rebuilds a system by
// closing its store and replaying its log.
package syspersist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hydra/internal/online"
	"hydra/internal/rts"
	"hydra/internal/tasksetio"
)

const (
	manifestName = "system.json"
	logName      = "events.jsonl"
	snapshotName = "snapshot.json"
)

// Manifest is the immutable birth record of one system: everything NewSystem
// needs to rebuild it from scratch before replaying the op log.
type Manifest struct {
	ID              string                       `json:"id"`
	Scheme          string                       `json:"scheme"`
	Heuristic       string                       `json:"heuristic"`
	Cores           int                          `json:"cores"`
	ReallocateAfter int                          `json:"reallocate_after,omitempty"`
	RTTasks         []tasksetio.RTTaskJSON       `json:"rt_tasks"`
	RTPartition     []int                        `json:"rt_partition,omitempty"`
	SecurityTasks   []tasksetio.SecurityTaskJSON `json:"security_tasks"`
}

// Op names of the write-ahead log records.
const (
	OpAddRT       = "add-rt"
	OpAddSecurity = "add-security"
	OpRemove      = "remove"
	OpReallocate  = "reallocate"
)

// Record is one events.jsonl line: a mutation attempt with its full input
// payload (replay needs inputs, not outcomes — the deterministic engine
// re-derives the outcome). Seq numbers records from 1; PreVersion is the
// system's event version just before the op was applied, re-checked during
// replay as a divergence guard.
type Record struct {
	Seq        uint64                      `json:"seq"`
	PreVersion uint64                      `json:"pre_version"`
	Op         string                      `json:"op"`
	RT         *tasksetio.RTTaskJSON       `json:"rt,omitempty"`
	Security   *tasksetio.SecurityTaskJSON `json:"security,omitempty"`
	Task       string                      `json:"task,omitempty"` // remove target
}

// PlacedRTJSON is one committed real-time task in a snapshot.
type PlacedRTJSON struct {
	tasksetio.RTTaskJSON
	Core int `json:"core"`
}

// PlacedSecJSON is one committed security task with its adapted period.
type PlacedSecJSON struct {
	tasksetio.SecurityTaskJSON
	Core     int     `json:"core"`
	PeriodMS float64 `json:"period_ms"`
}

// SnapshotFile is snapshot.json: the committed allocation in commit order
// plus every decision-affecting counter, as of op-log position Seq. Recovery
// restores it and replays only records with Seq greater than this.
// renderSnapshot writes it; recovery decodes into it.
type SnapshotFile struct {
	Seq           uint64          `json:"seq"`
	Version       uint64          `json:"version"`
	Cursor        int             `json:"cursor"`
	RejectStreak  int             `json:"reject_streak,omitempty"`
	RTTasks       []PlacedRTJSON  `json:"rt_tasks"`
	SecurityTasks []PlacedSecJSON `json:"security_tasks"`
}

func rtToJSON(t rts.RTTask) tasksetio.RTTaskJSON {
	j := tasksetio.RTTaskJSON{Name: t.Name, WCET: t.C, Period: t.T}
	if t.D != t.T {
		j.Deadline = t.D
	}
	return j
}

func rtFromJSON(j tasksetio.RTTaskJSON) rts.RTTask {
	d := j.Deadline
	if d == 0 {
		d = j.Period
	}
	return rts.RTTask{Name: j.Name, C: j.WCET, T: j.Period, D: d}
}

func secToJSON(t rts.SecurityTask) tasksetio.SecurityTaskJSON {
	return tasksetio.SecurityTaskJSON{Name: t.Name, WCET: t.C, DesiredPeriod: t.TDes, MaxPeriod: t.TMax, Weight: t.Weight}
}

func secFromJSON(j tasksetio.SecurityTaskJSON) rts.SecurityTask {
	return rts.SecurityTask{Name: j.Name, C: j.WCET, TDes: j.DesiredPeriod, TMax: j.MaxPeriod, Weight: j.Weight}
}

// renderSnapshot renders snapshot.json for a persisted state pinned to
// op-log position seq: the bytes json.MarshalIndent gives the SnapshotFile
// of that state, indented by two spaces, plus a newline. It reports false
// when the state holds a NaN or infinite float, which encoding/json refuses.
func renderSnapshot(ps online.PersistedState, seq uint64) ([]byte, bool) {
	var w tasksetio.JSONWriter
	w.BeginObject()
	w.Key("seq").Uint(seq)
	w.Key("version").Uint(ps.Version)
	w.Key("cursor").Int(ps.Cursor)
	if ps.RejectStreak != 0 {
		w.Key("reject_streak").Int(ps.RejectStreak)
	}
	w.Key("rt_tasks").BeginArray()
	for _, p := range ps.RT {
		w.Elem().PlacedRT(p.Task, p.Core)
	}
	w.EndArray()
	w.Key("security_tasks").BeginArray()
	for _, p := range ps.Sec {
		w.Elem().BeginObject()
		w.PlacedSecurity(p.Task, p.Core, p.Period)
		w.EndObject()
	}
	w.EndArray()
	w.EndObject()
	return append(w.Buf, '\n'), w.OK()
}

// persistedState converts the snapshot back to the engine's restore form.
func (sn *SnapshotFile) persistedState() online.PersistedState {
	ps := online.PersistedState{Version: sn.Version, Cursor: sn.Cursor, RejectStreak: sn.RejectStreak}
	for _, p := range sn.RTTasks {
		ps.RT = append(ps.RT, online.PlacedRT{Task: rtFromJSON(p.RTTaskJSON), Core: p.Core})
	}
	for _, p := range sn.SecurityTasks {
		ps.Sec = append(ps.Sec, online.PlacedSec{Task: secFromJSON(p.SecurityTaskJSON), Core: p.Core, Period: p.PeriodMS})
	}
	return ps
}

// Store is one system's open persistence directory: the append handle on the
// op log plus the bookkeeping to place new records and snapshots.
type Store struct {
	dir   string
	fsync bool
	obs   Observer // nil = unobserved; no clocks on the persistence paths
	log   *os.File
	seq   uint64 // last appended record's Seq
	buf   []byte // append scratch
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// Seq returns the last appended record's sequence number.
func (st *Store) Seq() uint64 { return st.seq }

// writeFileAtomic writes data via a temp file + rename so readers (and
// crash recovery) see either the old or the new content, never a torn write.
func writeFileAtomic(path string, data []byte, fsync bool) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// CreateStore initializes a fresh system directory: it writes the manifest
// atomically and opens an empty op log. The directory must not already hold a
// system (a half-created leftover is fine — it is overwritten). obs, when
// non-nil, receives append/fsync/snapshot timings.
func CreateStore(dir string, man Manifest, fsync bool, obs Observer) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	data, err := json.Marshal(&man)
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(filepath.Join(dir, manifestName), append(data, '\n'), fsync); err != nil {
		return nil, err
	}
	log, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, fsync: fsync, obs: obs, log: log}, nil
}

// openLog opens the op log of an existing system directory for appending,
// continuing after the given last sequence number.
func openLog(dir string, lastSeq uint64, fsync bool, obs Observer) (*Store, error) {
	log, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, fsync: fsync, obs: obs, log: log, seq: lastSeq}, nil
}

// Append assigns the next sequence number to rec and writes it as one log
// line, before the caller applies the op in memory. With fsync enabled the
// line is forced to stable storage before Append returns.
func (st *Store) Append(rec *Record) error {
	rec.Seq = st.seq + 1
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	st.buf = append(append(st.buf[:0], line...), '\n')
	var t0 time.Time
	if st.obs != nil {
		t0 = time.Now()
	}
	if _, err := st.log.Write(st.buf); err != nil {
		return fmt.Errorf("syspersist: append op log: %w", err)
	}
	if st.obs != nil {
		st.obs.ObserveWALAppend(time.Since(t0))
	}
	if st.fsync {
		if st.obs != nil {
			t0 = time.Now()
		}
		if err := st.log.Sync(); err != nil {
			return fmt.Errorf("syspersist: sync op log: %w", err)
		}
		if st.obs != nil {
			st.obs.ObserveWALFsync(time.Since(t0))
		}
	}
	st.seq = rec.Seq
	return nil
}

// WriteSnapshot atomically replaces snapshot.json with the persisted state
// pinned to op-log position seq.
func (st *Store) WriteSnapshot(ps online.PersistedState, seq uint64) error {
	data, ok := renderSnapshot(ps, seq)
	if !ok {
		return fmt.Errorf("syspersist: snapshot of op %d holds a non-finite float", seq)
	}
	var t0 time.Time
	if st.obs != nil {
		t0 = time.Now()
	}
	err := writeFileAtomic(filepath.Join(st.dir, snapshotName), data, st.fsync)
	if st.obs != nil && err == nil {
		st.obs.ObserveSnapshot(time.Since(t0))
	}
	return err
}

// Close closes the op-log handle. The store must not be used afterwards.
func (st *Store) Close() error { return st.log.Close() }

// readManifest loads and validates system.json.
func readManifest(dir string) (Manifest, error) {
	var man Manifest
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return man, fmt.Errorf("syspersist: read manifest: %w", err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return man, fmt.Errorf("syspersist: parse manifest %s: %w", filepath.Join(dir, manifestName), err)
	}
	return man, nil
}

// readSnapshot loads snapshot.json. A missing or unparseable snapshot returns
// nil (recovery falls back to full replay — the snapshot is an accelerator,
// never the source of truth).
func readSnapshot(dir string) *SnapshotFile {
	data, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		return nil
	}
	var sn SnapshotFile
	if err := json.Unmarshal(data, &sn); err != nil {
		return nil
	}
	return &sn
}

// readLog replays events.jsonl into records. The log is append-only and may
// end in a torn line when the writing process was killed mid-append;
// everything from the first malformed, truncated, or out-of-sequence line on
// is discarded and truncated away so future appends keep the file well-formed
// (the op a torn line carried was never acknowledged). A missing log is
// empty.
func readLog(dir string) ([]Record, error) {
	path := filepath.Join(dir, logName)
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("syspersist: read op log: %w", err)
	}
	var recs []Record
	valid := 0 // byte length of the well-formed prefix
	for off := 0; off < len(raw); {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			break // truncated final line
		}
		line := raw[off : off+nl]
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Seq != uint64(len(recs))+1 {
			break // corrupt from here on; drop the tail
		}
		recs = append(recs, rec)
		off += nl + 1
		valid = off
	}
	if valid < len(raw) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, fmt.Errorf("syspersist: trim torn op-log tail: %w", err)
		}
	}
	return recs, nil
}

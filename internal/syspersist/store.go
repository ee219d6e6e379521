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
// event-log versions are bit-identical to the never-restarted process's. The
// log is read by filelog.Replay, the reader the jobs checkpoint uses too: a
// torn final line — the writing process died mid-append — is truncated away;
// the op it carried was never acknowledged, so dropping it is correct. The
// manifest and snapshots are written by filelog.WriteFile.
//
// On top of the per-system store, Registry hosts every system of a process
// under one lock and one directory, <root>/shard-0/<id>, with exact
// live-system accounting.
package syspersist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hydra/internal/filelog"
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

// CreateStore initializes a fresh system directory: it writes the manifest
// atomically and then opens an empty op log, so a log never exists without
// its manifest. The directory must not already hold a system (a
// half-created leftover is fine — it is overwritten). With fsync, the new
// directory entries — the log in dir, and dir in its parent — are on stable
// storage before CreateStore returns. obs, when non-nil, receives
// append/fsync/snapshot timings.
func CreateStore(dir string, man Manifest, fsync bool, obs Observer) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	data, err := json.Marshal(&man)
	if err != nil {
		return nil, err
	}
	if err := filelog.WriteFile(filepath.Join(dir, manifestName), append(data, '\n'), fsync); err != nil {
		return nil, err
	}
	log, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if fsync {
		if err := errors.Join(filelog.SyncDir(dir), filelog.SyncDir(filepath.Dir(dir))); err != nil {
			log.Close()
			return nil, err
		}
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
	err := filelog.WriteFile(filepath.Join(st.dir, snapshotName), data, st.fsync)
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

// readLog replays events.jsonl into records, cutting the log back at the
// first malformed, torn or out-of-sequence line: the op a torn line carried
// was never acknowledged. A missing log is empty.
func readLog(dir string) ([]Record, error) {
	var recs []Record
	err := filelog.Replay(filepath.Join(dir, logName), func(line []byte) bool {
		var rec Record
		if json.Unmarshal(line, &rec) != nil || rec.Seq != uint64(len(recs))+1 {
			return false
		}
		recs = append(recs, rec)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("syspersist: replay op log: %w", err)
	}
	return recs, nil
}

package syspersist

import (
	"fmt"
	"math"
	"sync"

	"hydra/internal/online"
	"hydra/internal/partition"
	"hydra/internal/rts"
)

// ErrClosed is returned by mutations on a system whose store has been closed:
// the system was deleted, or the registry is shutting down.
var ErrClosed = fmt.Errorf("syspersist: system closed")

// DurableSystem pairs one online.System with its write-ahead store. Every
// mutation appends its op record to events.jsonl before applying it in
// memory: an append failure mutates nothing, and a crash after the append is
// harmless because the op was never acknowledged and replays
// deterministically on recovery. Reads go straight to the underlying system.
//
// The wrapper mutex serializes append+apply pairs so the log order always
// equals the apply order — the invariant replay depends on.
type DurableSystem struct {
	mu        sync.Mutex
	sys       *online.System
	store     *Store
	every     int // ops between snapshots
	sinceSnap int
	closed    bool
	snapBusy  bool // an async snapshot write is in flight (guarded by mu)

	snapWG  sync.WaitGroup
	snapMu  sync.Mutex // serializes snapshot file writes
	snapSeq uint64     // highest snapshot seq written (guarded by snapMu)
}

// System returns the underlying in-memory system for read paths (Snapshot,
// EventsSince, accessors). Mutations must go through the wrapper.
func (d *DurableSystem) System() *online.System { return d.sys }

// ID returns the system id.
func (d *DurableSystem) ID() string { return d.sys.ID() }

// Snapshot returns a copy of the committed state.
func (d *DurableSystem) Snapshot() online.Snapshot { return d.sys.Snapshot() }

// Version returns the system's current event version.
func (d *DurableSystem) Version() uint64 { return d.sys.Version() }

// EventsSince exposes the decision log's snapshot-then-wait seam.
func (d *DurableSystem) EventsSince(since uint64) ([]online.Event, <-chan struct{}) {
	return d.sys.EventsSince(since)
}

// Wake wakes event watchers without logging anything.
func (d *DurableSystem) Wake() { d.sys.Wake() }

// Dir returns the system's persistence directory.
func (d *DurableSystem) Dir() string { return d.store.dir }

// append writes rec ahead of the op it describes; callers hold d.mu.
func (d *DurableSystem) appendLocked(rec *Record) error {
	if d.closed {
		return fmt.Errorf("%w: %q", ErrClosed, d.sys.ID())
	}
	rec.PreVersion = d.sys.Version()
	return d.store.Append(rec)
}

// maybeSnapshotLocked schedules a snapshot every `every` applied ops. The
// write happens on a background goroutine: a snapshot is only a recovery
// accelerator — the op log is the source of truth — so it must not tax the
// admit ack path with a file write. At most one writer is in flight; if the
// cadence fires while one is still running, the snapshot is simply skipped
// until the next multiple (recovery replays a slightly longer tail).
func (d *DurableSystem) maybeSnapshotLocked() {
	d.sinceSnap++
	if d.sinceSnap < d.every || d.snapBusy || d.closed {
		return
	}
	d.sinceSnap = 0
	d.snapBusy = true
	ps, seq := d.sys.PersistedState(), d.store.seq
	d.snapWG.Add(1)
	go func() {
		defer d.snapWG.Done()
		_ = d.writeSnap(ps, seq) // best effort: failure only slows recovery
		d.mu.Lock()
		d.snapBusy = false
		d.mu.Unlock()
	}()
}

// writeSnap persists one captured state unless a newer snapshot already
// landed (async writers and Flush may interleave; seq ordering keeps the
// file monotonic so recovery never replays from an older cut than needed).
func (d *DurableSystem) writeSnap(ps online.PersistedState, seq uint64) error {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	if seq < d.snapSeq {
		return nil
	}
	if err := d.store.WriteSnapshot(ps, seq); err != nil {
		return err
	}
	d.snapSeq = seq
	return nil
}

// AddRT durably try-admits a real-time task: the op is logged, then applied.
// Validation and duplicate names fail before anything is logged (they would
// not advance the decision log).
func (d *DurableSystem) AddRT(t rts.RTTask) (online.Placement, error) {
	if err := t.Validate(); err != nil {
		return online.Placement{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sys.Has(t.Name) {
		return online.Placement{}, fmt.Errorf("%w: %q", online.ErrDuplicateName, t.Name)
	}
	j := rtToJSON(t)
	if err := d.appendLocked(&Record{Op: OpAddRT, RT: &j}); err != nil {
		return online.Placement{}, err
	}
	p, err := d.sys.AddRT(t)
	d.maybeSnapshotLocked()
	return p, err
}

// AddSecurity durably try-admits a security task. Like a duplicate name, a
// weight that would make the system's Σ ω non-finite fails before anything
// is logged: the cumulative tightness must stay a reportable number.
func (d *DurableSystem) AddSecurity(t rts.SecurityTask) (online.Placement, error) {
	if err := t.Validate(); err != nil {
		return online.Placement{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sys.Has(t.Name) {
		return online.Placement{}, fmt.Errorf("%w: %q", online.ErrDuplicateName, t.Name)
	}
	if sum := d.sys.WeightSum() + t.EffectiveWeight(); math.IsInf(sum, 0) {
		return online.Placement{}, fmt.Errorf("syspersist: admitting %q makes the security task weights sum to %g; their sum must be finite", t.Name, sum)
	}
	j := secToJSON(t)
	if err := d.appendLocked(&Record{Op: OpAddSecurity, Security: &j}); err != nil {
		return online.Placement{}, err
	}
	p, err := d.sys.AddSecurity(t)
	d.maybeSnapshotLocked()
	return p, err
}

// Remove durably retires the named task.
func (d *DurableSystem) Remove(name string) (online.Removed, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.sys.Has(name) {
		return online.Removed{}, fmt.Errorf("%w: %q", online.ErrNotFound, name)
	}
	if err := d.appendLocked(&Record{Op: OpRemove, Task: name}); err != nil {
		return online.Removed{}, err
	}
	r, err := d.sys.Remove(name)
	d.maybeSnapshotLocked()
	return r, err
}

// Reallocate durably re-runs the system's scheme from scratch. Both outcomes
// advance the decision log, so the op is always recorded.
func (d *DurableSystem) Reallocate() (online.Snapshot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.appendLocked(&Record{Op: OpReallocate}); err != nil {
		return online.Snapshot{}, err
	}
	snap, err := d.sys.Reallocate()
	d.maybeSnapshotLocked()
	return snap, err
}

// Flush writes a snapshot at the current op-log position so the next
// recovery replays nothing (graceful-shutdown path).
func (d *DurableSystem) Flush() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrClosed, d.sys.ID())
	}
	ps, seq := d.sys.PersistedState(), d.store.seq
	d.sinceSnap = 0
	d.mu.Unlock()
	return d.writeSnap(ps, seq)
}

// close closes the store; further mutations return ErrClosed. Any in-flight
// async snapshot write is drained first so the directory is quiescent before
// a caller removes it. In-flight watchers are woken so follow streams
// re-check liveness.
func (d *DurableSystem) close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	d.snapWG.Wait()
	d.mu.Lock()
	err := d.store.Close()
	d.mu.Unlock()
	d.sys.Wake()
	return err
}

// applyRecord replays one op on a system. Outcomes are intentionally ignored:
// the engine is deterministic, so a rejected (or failed) op rejects again
// identically, advancing the event version exactly as the original run did.
// The PreVersion chain is the divergence guard.
func applyRecord(sys *online.System, rec Record) error {
	if v := sys.Version(); v != rec.PreVersion {
		return fmt.Errorf("syspersist: replay diverged at op %d: version %d, log recorded %d", rec.Seq, v, rec.PreVersion)
	}
	switch rec.Op {
	case OpAddRT:
		if rec.RT == nil {
			return fmt.Errorf("syspersist: op %d: add-rt without rt payload", rec.Seq)
		}
		_, _ = sys.AddRT(rtFromJSON(*rec.RT)) //lint:allow walorder replay applies an op already on the log
	case OpAddSecurity:
		if rec.Security == nil {
			return fmt.Errorf("syspersist: op %d: add-security without security payload", rec.Seq)
		}
		_, _ = sys.AddSecurity(secFromJSON(*rec.Security)) //lint:allow walorder replay applies an op already on the log
	case OpRemove:
		_, _ = sys.Remove(rec.Task) //lint:allow walorder replay applies an op already on the log
	case OpReallocate:
		_, _ = sys.Reallocate() //lint:allow walorder replay applies an op already on the log
	default:
		return fmt.Errorf("syspersist: op %d: unknown op %q", rec.Seq, rec.Op)
	}
	return nil
}

// Recover rebuilds one system from its directory: manifest load, snapshot
// restore when a valid snapshot covers a log prefix (a snapshot claiming ops
// the log does not contain is ignored — full replay from the manifest), then
// replay of the op tail, and finally reopening the log for appends. No event
// is re-logged for replayed history, so event versions stay contiguous with
// the previous life. obs, when non-nil, observes the reopened store's
// persistence latencies (replay itself is not timed — it is recovery, not
// serving).
func Recover(dir string, snapshotEvery int, fsync bool, obs Observer) (*DurableSystem, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	h, err := partition.ParseHeuristic(man.Heuristic)
	if err != nil {
		return nil, fmt.Errorf("syspersist: manifest %s: %w", dir, err)
	}
	recs, err := readLog(dir)
	if err != nil {
		return nil, err
	}
	var lastSeq uint64
	if len(recs) > 0 {
		lastSeq = recs[len(recs)-1].Seq
	}
	var sys *online.System
	replayFrom := uint64(0)
	if sn := readSnapshot(dir); sn != nil && sn.Seq <= lastSeq {
		if restored, err := online.RestoreSystem(man.ID, man.Scheme, h, man.Cores, man.ReallocateAfter, sn.persistedState()); err == nil {
			sys, replayFrom = restored, sn.Seq
		}
	}
	if sys == nil {
		rt := make([]rts.RTTask, 0, len(man.RTTasks))
		for _, j := range man.RTTasks {
			rt = append(rt, rtFromJSON(j))
		}
		sec := make([]rts.SecurityTask, 0, len(man.SecurityTasks))
		for _, j := range man.SecurityTasks {
			sec = append(sec, secFromJSON(j))
		}
		sys, err = online.NewSystem(man.ID, man.Scheme, h, man.Cores, rt, man.RTPartition, sec)
		if err != nil {
			return nil, fmt.Errorf("syspersist: rebuild %s from manifest: %w", man.ID, err)
		}
		sys.SetReallocateAfter(man.ReallocateAfter)
	}
	for _, rec := range recs {
		if rec.Seq <= replayFrom {
			continue
		}
		if err := applyRecord(sys, rec); err != nil {
			return nil, err
		}
	}
	store, err := openLog(dir, lastSeq, fsync, obs)
	if err != nil {
		return nil, err
	}
	return &DurableSystem{sys: sys, store: store, every: snapshotEvery}, nil
}

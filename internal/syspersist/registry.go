package syspersist

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"

	"hydra/internal/online"
	"hydra/internal/partition"
	"hydra/internal/rts"
	"hydra/internal/tasksetio"
)

// Counters aggregates registry activity for /v1/stats: gauges over the live
// systems plus monotone decision counters fed by every hosted system's event
// log (they keep counting for systems that are later deleted). Counters are
// process-lifetime: decisions replayed during recovery are history, not new
// activity, and are not re-counted.
type Counters struct {
	Active        int    `json:"active"`
	Created       uint64 `json:"created"`
	Deleted       uint64 `json:"deleted"`
	Admitted      uint64 `json:"admitted"`
	Rejected      uint64 `json:"rejected"`
	Removed       uint64 `json:"removed"`
	Reallocations uint64 `json:"reallocations"`
	Events        uint64 `json:"events"`
}

// idPattern restricts caller-chosen system ids to path- and log-safe names —
// doubly important now that the id names a directory on disk.
var idPattern = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// ErrSystemExists is returned by Create for an id already in use — a
// conflict with existing state, not a malformed request.
var ErrSystemExists = fmt.Errorf("syspersist: system id already in use")

// ErrRegistryFull is returned by Create when the live-system bound is
// reached; the request is well-formed, capacity is the problem.
var ErrRegistryFull = fmt.Errorf("syspersist: registry full")

// homeDir is the subdirectory of the persistence root that holds every
// system. It keeps the name earlier sharded registries gave their first
// shard, so a directory written with one shard opens without any rename.
const homeDir = "shard-0"

// Options tunes a Registry.
type Options struct {
	// Dir is the persistence root; systems live in its shard-0 subdirectory.
	// Empty selects a fresh temporary directory, which Close removes (systems
	// then do not survive the process); Close never removes a caller's Dir.
	Dir string
	// MaxSystems bounds the live systems, exactly. Zero or negative selects
	// 64.
	MaxSystems int
	// SnapshotEvery is the op count between per-system snapshots. Zero or
	// negative selects 64.
	SnapshotEvery int
	// Fsync forces every op-log append to stable storage before the mutation
	// is acknowledged, and every manifest, snapshot and new directory entry
	// before the write that made it returns. Off by default: the admit path
	// stays in the page cache, and a kernel crash (not a process crash) can
	// lose the tail.
	Fsync bool
	// Observer, when non-nil, receives append/fsync/snapshot latencies from
	// every system's store. Nil keeps the persistence paths clock-free.
	Observer Observer
}

// Registry hosts the durable systems of one server process. Create with
// Open, which also recovers every system found under the directory.
type Registry struct {
	dir       string
	home      string // dir/shard-0, the parent of every system directory
	ephemeral bool   // dir was created by Open; Close removes it
	fsync     bool
	obs       Observer
	every     int
	max       int

	mu sync.Mutex
	// systems maps ids to live systems. A nil value reserves an id while its
	// system is being created; reservations count toward max.
	systems map[string]*DurableSystem
	n       Counters // Active is derived from systems on read
}

// Open builds the registry and recovers every persisted system under
// opts.Dir. Systems that an earlier, sharded registry left in another
// shard-<k> directory are moved into shard-0 before recovery, and the
// emptied shard-<k> directories are removed.
func Open(opts Options) (*Registry, error) {
	dir, ephemeral := opts.Dir, opts.Dir == ""
	if ephemeral {
		tmp, err := os.MkdirTemp("", "hydra-systems-*")
		if err != nil {
			return nil, err
		}
		dir = tmp
	}
	max := opts.MaxSystems
	if max <= 0 {
		max = 64
	}
	every := opts.SnapshotEvery
	if every <= 0 {
		every = 64
	}
	r := &Registry{
		dir:       dir,
		home:      filepath.Join(dir, homeDir),
		ephemeral: ephemeral,
		fsync:     opts.Fsync,
		obs:       opts.Observer,
		every:     every,
		max:       max,
		systems:   map[string]*DurableSystem{},
	}
	if err := os.MkdirAll(r.home, 0o755); err != nil {
		return nil, err
	}
	if err := r.recoverAll(); err != nil {
		return nil, err
	}
	return r, nil
}

// recoverAll scans every shard-* directory, moves each system found outside
// shard-0 into it, and replays each into memory.
func (r *Registry) recoverAll() error {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "shard-") {
			continue
		}
		shardDir := filepath.Join(r.dir, e.Name())
		systems, err := os.ReadDir(shardDir)
		if err != nil {
			return err
		}
		for _, se := range systems {
			if !se.IsDir() {
				continue
			}
			id := se.Name()
			src := filepath.Join(shardDir, id)
			dst := filepath.Join(r.home, id)
			if src != dst {
				if err := os.Rename(src, dst); err != nil {
					return fmt.Errorf("syspersist: rehome %s: %w", id, err)
				}
			}
			ds, err := Recover(dst, r.every, r.fsync, r.obs)
			if err != nil {
				return fmt.Errorf("syspersist: recover %s: %w", id, err)
			}
			if got := ds.ID(); got != id {
				return fmt.Errorf("syspersist: directory %s holds manifest for id %q", dst, got)
			}
			// Attach the counter sink only after replay: replayed decisions
			// are a previous life's activity, already counted then.
			ds.sys.SetEventSink(r.countEvent)
			r.systems[id] = ds
		}
		if shardDir != r.home {
			_ = os.Remove(shardDir) // fails (harmlessly) unless empty
		}
	}
	return nil
}

// countEvent folds one system event into the registry counters. It is called
// under the emitting system's lock; it takes only the registry lock (lock
// order: system before registry, never the reverse).
func (r *Registry) countEvent(e online.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n.Events++
	switch e.Type {
	case online.EventAdmit:
		r.n.Admitted++
	case online.EventReject:
		r.n.Rejected++
	case online.EventRemove:
		r.n.Removed++
	case online.EventReallocate:
		r.n.Reallocations++
	}
}

// Dir returns the persistence root.
func (r *Registry) Dir() string { return r.dir }

// Create builds a new durable system: the cold allocation runs first (no
// disk state for infeasible tasksets), then the manifest is written and the
// op log opened, and only then is the system visible. An empty id draws a
// random one; a caller-chosen id must match [a-zA-Z0-9._-]{1,64} (starting
// alphanumeric) and be unused. reallocateAfter sets the system's
// auto-reallocate policy (0 = off).
func (r *Registry) Create(id, scheme string, h partition.Heuristic, m int, rt []rts.RTTask, part []int, sec []rts.SecurityTask, reallocateAfter int) (*DurableSystem, error) {
	if id == "" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return nil, err
		}
		id = hex.EncodeToString(b[:])
	} else if !idPattern.MatchString(id) {
		return nil, fmt.Errorf("syspersist: invalid system id %q (want 1-64 chars of [a-zA-Z0-9._-], starting alphanumeric)", id)
	}
	r.mu.Lock()
	if len(r.systems) >= r.max {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w (%d systems); delete one first", ErrRegistryFull, r.max)
	}
	if _, dup := r.systems[id]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrSystemExists, id)
	}
	// Reserve the id while the (lock-free) cold allocation runs.
	r.systems[id] = nil
	r.mu.Unlock()

	ds, err := r.buildSystem(id, scheme, h, m, rt, part, sec, reallocateAfter)
	if err != nil {
		r.mu.Lock()
		delete(r.systems, id)
		r.mu.Unlock()
		return nil, err
	}
	// The system is not visible yet, so no event can slip past the sink.
	ds.sys.SetEventSink(r.countEvent)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n.Events++ // NewSystem logged its create event before the sink was attached
	r.n.Created++
	r.systems[id] = ds
	return ds, nil
}

// buildSystem runs the cold allocation and initializes the on-disk store; no
// locks are held.
func (r *Registry) buildSystem(id, scheme string, h partition.Heuristic, m int, rt []rts.RTTask, part []int, sec []rts.SecurityTask, reallocateAfter int) (*DurableSystem, error) {
	sys, err := online.NewSystem(id, scheme, h, m, rt, part, sec)
	if err != nil {
		return nil, err
	}
	if reallocateAfter < 0 {
		reallocateAfter = 0
	}
	sys.SetReallocateAfter(reallocateAfter)
	man := Manifest{
		ID:              id,
		Scheme:          sys.Scheme(),
		Heuristic:       sys.Heuristic().String(),
		Cores:           m,
		ReallocateAfter: reallocateAfter,
		RTTasks:         []tasksetio.RTTaskJSON{},
		RTPartition:     part,
		SecurityTasks:   []tasksetio.SecurityTaskJSON{},
	}
	for _, t := range rt {
		man.RTTasks = append(man.RTTasks, rtToJSON(t))
	}
	for _, t := range sec {
		man.SecurityTasks = append(man.SecurityTasks, secToJSON(t))
	}
	dir := filepath.Join(r.home, id)
	store, err := CreateStore(dir, man, r.fsync, r.obs)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	return &DurableSystem{sys: sys, store: store, every: r.every}, nil
}

// Get returns the system with the given id.
func (r *Registry) Get(id string) (*DurableSystem, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ds := r.systems[id]
	return ds, ds != nil // a reserved id mid-creation counts as absent
}

// Delete removes a system from the registry and erases its persistence
// directory (a deleted system must not resurrect on the next recovery). Its
// in-flight operations finish or fail with ErrClosed; watchers of its event
// stream observe no further events.
func (r *Registry) Delete(id string) bool {
	r.mu.Lock()
	ds := r.systems[id]
	if ds == nil {
		r.mu.Unlock()
		return false
	}
	delete(r.systems, id)
	r.n.Deleted++
	r.mu.Unlock()
	// Outside r.mu: the lock order is system before registry (countEvent),
	// never the reverse.
	_ = ds.close()
	_ = os.RemoveAll(ds.Dir())
	return true
}

// List returns the live systems sorted by id.
func (r *Registry) List() []*DurableSystem {
	r.mu.Lock()
	out := make([]*DurableSystem, 0, len(r.systems))
	for _, ds := range r.systems {
		if ds != nil {
			out = append(out, ds)
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID() < out[b].ID() })
	return out
}

// Counters snapshots the registry counters.
func (r *Registry) Counters() Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.n
	for _, ds := range r.systems {
		if ds != nil {
			c.Active++
		}
	}
	return c
}

// Close flushes a final snapshot for every system (so the next recovery
// replays nothing), closes the op logs, and removes the directory if Open
// created it. The registry must not be used afterwards.
func (r *Registry) Close() {
	for _, ds := range r.List() {
		_ = ds.Flush()
		_ = ds.close()
	}
	if r.ephemeral {
		_ = os.RemoveAll(r.dir)
	}
}

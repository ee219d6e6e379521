package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hydra/internal/partition"
)

// Allocator is the uniform seam every allocation scheme implements: given a
// fully specified problem it produces a Result. Implementations must be pure
// (no retained state between calls) and safe for concurrent use — the
// experiment engine calls Allocate from many goroutines.
//
// An Allocator receives the Input with the caller's real-time partition over
// all M cores. Schemes that repartition the real-time tasks themselves (e.g.
// SingleCore, which evicts them from the dedicated security core) record the
// partition they actually used in Result.RTPartition; consumers that need the
// effective problem (verification, simulation) obtain it with EffectiveInput.
type Allocator interface {
	// Name returns the registry key, e.g. "hydra" or "singlecore".
	Name() string
	// Allocate solves the problem. It never returns nil: infeasible or
	// invalid inputs yield a Result with Schedulable=false and a Reason.
	Allocate(in *Input) *Result
}

// SelfPartitions reports whether the allocator ignores the Input's
// real-time partition and solves against one of its own (recorded in
// Result.RTPartition): singlecore, built by NewSingleCoreAllocator. Callers
// use it to decide whether a scheme can still run when no valid partition of
// the real-time tasks over all M cores exists.
func SelfPartitions(a Allocator) bool {
	_, ok := a.(singlecore)
	return ok
}

// WithHeuristic returns the allocator that runs a with real-time heuristic
// h: a self-partitioning singlecore repacks with h, and every other scheme,
// which solves the caller's partition, is a itself.
func WithHeuristic(a Allocator, h partition.Heuristic) Allocator {
	if SelfPartitions(a) {
		return singlecore{h}
	}
	return a
}

// allocatorFunc adapts a function to the Allocator interface.
type allocatorFunc struct {
	name string
	fn   func(*Input) *Result
}

func (a allocatorFunc) Name() string { return a.name }

// Allocate runs the scheme and labels its result with the registry name, so
// a variant (hydra-gp, opt-gp, ...) never answers with its base scheme's.
func (a allocatorFunc) Allocate(in *Input) *Result {
	r := a.fn(in)
	r.Scheme = a.name
	return r
}

// NewAllocator wraps a plain function as a named Allocator.
func NewAllocator(name string, fn func(*Input) *Result) Allocator {
	return allocatorFunc{name: name, fn: fn}
}

// NewHydraAllocator builds a HYDRA allocator with the given options. The name
// encodes the non-default knobs: "hydra", "hydra-first-feasible",
// "hydra-least-loaded", with a "-gp" suffix for the GP solver route.
func NewHydraAllocator(opt HydraOptions) Allocator {
	name := "hydra"
	switch opt.Policy {
	case FirstFeasible:
		name += "-first-feasible"
	case LeastLoaded:
		name += "-least-loaded"
	}
	if opt.UseGP {
		name += "-gp"
	}
	return NewAllocator(name, func(in *Input) *Result { return Hydra(in, opt) })
}

// NewHydraExtAllocator builds a HydraExt allocator; non-preemptive security
// execution is encoded as a "-np" suffix on the corresponding HYDRA name.
func NewHydraExtAllocator(opt ExtOptions) Allocator {
	name := NewHydraAllocator(opt.HydraOptions).Name()
	if opt.NonPreemptiveSecurity {
		name += "-np"
	}
	return NewAllocator(name, func(in *Input) *Result { return HydraExt(in, opt) })
}

// NewOptimalAllocator builds an exhaustive-optimal allocator ("opt", or
// "opt-gp" with the sequential-GP period refinement).
func NewOptimalAllocator(opt OptimalOptions) Allocator {
	name := "opt"
	if opt.RefineJointGP {
		name += "-gp"
	}
	return NewAllocator(name, func(in *Input) *Result { return Optimal(in, opt) })
}

// NewSingleCoreAllocator builds the dedicated-security-core baseline. The
// allocator ignores the Input's RT partition and repacks the real-time tasks
// onto M-1 cores with heuristic h; the partition it used is recorded in
// Result.RTPartition.
func NewSingleCoreAllocator(h partition.Heuristic) Allocator { return singlecore{h} }

// singlecore is the allocator NewSingleCoreAllocator builds: SingleCore
// with heuristic h.
type singlecore struct{ h partition.Heuristic }

func (singlecore) Name() string                 { return "singlecore" }
func (a singlecore) Allocate(in *Input) *Result { return SingleCore(in.M, in.RT, in.Sec, a.h) }

// NewPartitionBaselineAllocator builds a "partition-<heuristic>" baseline:
// security tasks are bin-packed at their desired periods with no period
// adaptation (see PartitionBaseline).
func NewPartitionBaselineAllocator(h partition.Heuristic) Allocator {
	return NewAllocator("partition-"+h.String(), func(in *Input) *Result {
		return PartitionBaseline(in, h)
	})
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Allocator{}
)

// Register adds an allocator to the global registry. It panics on an empty
// name or a duplicate registration — schemes are identities; silently
// replacing one would corrupt every experiment that selects it by name.
func Register(a Allocator) {
	name := a.Name()
	if name == "" {
		panic("core: Register with empty allocator name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("core: Register called twice for allocator %q", name))
	}
	registry[name] = a
}

// Lookup returns the registered allocator with the given name.
func Lookup(name string) (Allocator, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	a, ok := registry[name]
	return a, ok
}

// MustLookup is Lookup that panics on unknown names; use for scheme names
// fixed at compile time.
func MustLookup(name string) Allocator {
	a, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("core: unknown allocator %q (have: %s)", name, strings.Join(Names(), ", ")))
	}
	return a
}

// Resolve maps scheme names to allocators, failing with a helpful message on
// the first unknown name. It is the parsing seam for -schemes CLI flags.
func Resolve(names ...string) ([]Allocator, error) {
	out := make([]Allocator, 0, len(names))
	for _, name := range names {
		a, ok := Lookup(name)
		if !ok {
			return nil, fmt.Errorf("core: unknown scheme %q (available: %s)", name, strings.Join(Names(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// Names returns all registered scheme names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// The standard scheme catalogue. Paper defaults throughout: best-fit RT
// partitioning, and a capped search space for the exponential "opt" baseline
// (instances beyond the cap report an explanatory infeasible Result instead
// of running forever).
func init() {
	Register(NewHydraAllocator(HydraOptions{}))
	Register(NewHydraAllocator(HydraOptions{UseGP: true}))
	Register(NewHydraAllocator(HydraOptions{Policy: FirstFeasible}))
	Register(NewHydraAllocator(HydraOptions{Policy: LeastLoaded}))
	Register(NewHydraExtAllocator(ExtOptions{NonPreemptiveSecurity: true}))
	Register(NewHydraExtAllocator(ExtOptions{HydraOptions: HydraOptions{Policy: FirstFeasible}, NonPreemptiveSecurity: true}))
	Register(NewHydraExtAllocator(ExtOptions{HydraOptions: HydraOptions{Policy: LeastLoaded}, NonPreemptiveSecurity: true}))
	Register(NewSingleCoreAllocator(partition.BestFit))
	Register(NewOptimalAllocator(OptimalOptions{MaxAssignments: 1 << 20}))
	Register(NewOptimalAllocator(OptimalOptions{RefineJointGP: true, MaxAssignments: 1 << 20}))
	for _, h := range []partition.Heuristic{partition.FirstFit, partition.BestFit, partition.WorstFit, partition.NextFit} {
		Register(NewPartitionBaselineAllocator(h))
	}
}

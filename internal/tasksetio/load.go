package tasksetio

import (
	"fmt"
	"io"
	"os"

	"hydra/internal/core"
	"hydra/internal/partition"
)

// Load decodes a taskset document from the named file, or from stdin when
// path is "-" or empty. It is the shared input seam of cmd/hydra,
// cmd/hydra-sim and the allocation service, so all of them parse tasksets
// identically.
func Load(path string, stdin io.Reader) (*Problem, error) {
	var src io.Reader = stdin
	if path != "" && path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		src = f
	}
	return Decode(src)
}

// BuildInput partitions the problem's real-time tasks (honoring a fixed
// rt_partition in the document once it passes exact RTA, else running
// heuristic h) and bundles a core.Input for the allocator. When no valid
// partition over all M cores exists, schemes that repartition the real-time tasks themselves (see
// core.SelfPartitions) still run against a placeholder partition; everyone
// else gets the partitioning error.
//
// On success with a computed partition, p.RTPartition is filled in, so the
// problem records the real-time placement the allocation was solved against.
func BuildInput(p *Problem, alloc core.Allocator, h partition.Heuristic) (*core.Input, error) {
	part, err := p.Partition(h)
	if err != nil {
		if !core.SelfPartitions(alloc) {
			return nil, fmt.Errorf("partition real-time tasks: %w", err)
		}
		part = make([]int, len(p.RT))
	} else if p.RTPartition == nil {
		p.RTPartition = part
	}
	return core.NewInput(p.M, p.RT, part, p.Sec)
}

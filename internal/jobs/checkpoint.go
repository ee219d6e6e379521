package jobs

import (
	"encoding/json"
	"fmt"

	"hydra/internal/filelog"
)

// checkpointLine is one cells.jsonl record: a completed grid cell and its
// spec-encoded result.
type checkpointLine struct {
	Idx    int             `json:"idx"`
	Result json.RawMessage `json:"result"`
}

// loadCheckpoint replays a cells.jsonl log into an idx -> result map,
// cutting the log back at the first malformed or torn line (a cell whose
// append a kill cut short is recomputed). A missing log is empty.
func loadCheckpoint(path string) (map[int][]byte, error) {
	done := map[int][]byte{}
	err := filelog.Replay(path, func(line []byte) bool {
		var rec checkpointLine
		if json.Unmarshal(line, &rec) != nil || rec.Idx < 0 || len(rec.Result) == 0 {
			return false
		}
		done[rec.Idx] = rec.Result // Unmarshal copied it out of line
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("jobs: replay checkpoint: %w", err)
	}
	return done, nil
}

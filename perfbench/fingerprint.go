package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
)

// runFP is the fingerprint of one simulated run (or, for gate-http, of
// the response body every request must return). Two runs of the same
// program on the same inputs have bit-identical fingerprints; floats
// survive the JSON round trip exactly.
type runFP struct {
	Name        string   `json:"name"`
	Completed   uint64   `json:"completed,omitempty"`
	Throughput  float64  `json:"throughput,omitempty"`
	MeanRT      float64  `json:"mean_rt,omitempty"`
	Restarts    uint64   `json:"restarts,omitempty"`
	LockWaits   uint64   `json:"lock_waits,omitempty"`
	PoolHits    uint64   `json:"pool_hits,omitempty"`
	PoolMisses  uint64   `json:"pool_misses,omitempty"`
	Resubmitted uint64   `json:"resubmitted,omitempty"`
	Snapshots   int      `json:"snapshots,omitempty"`
	Routed      []uint64 `json:"routed,omitempty"`
	Body        string   `json:"body,omitempty"`
}

// references maps workload -> seed -> the fingerprints of one
// repetition, in run order. refs.json holds seeds 0 (the default) and
// 1000 (held out from tuning).
type references map[string]map[string][]runFP

//go:embed refs.json
var refsJSON []byte

func loadRefs() (references, error) {
	var r references
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return nil, fmt.Errorf("parse refs.json: %w", err)
	}
	return r, nil
}

// lookup returns the reference for a workload and seed, if stored.
func (r references) lookup(workload string, seed int64) ([]runFP, bool) {
	fps, ok := r[workload][strconv.FormatInt(seed, 10)]
	return fps, ok
}

// mismatches counts the runs of got that differ from want; a missing or
// extra run counts as one mismatch each.
func mismatches(got, want []runFP) int {
	n := 0
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || !reflect.DeepEqual(got[i], want[i]) {
			n++
		}
	}
	return n
}

// saveRef stores fps as the reference for workload and seed in the
// refs.json at path, keeping every other entry.
func saveRef(path, workload string, seed int64, fps []runFP) error {
	r := references{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
	}
	if r[workload] == nil {
		r[workload] = map[string][]runFP{}
	}
	r[workload][strconv.FormatInt(seed, 10)] = fps
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// workloads.json is the recorded description of every workload. Every
// parameter in it is read here and used by the run; the fields named why,
// working_set, questions and *note are prose for the reader and are not
// read.
//
//go:embed workloads.json
var workloadsJSON []byte

type config struct {
	Graph struct {
		Vertices int   `json:"vertices"`
		Seed     int64 `json:"seed"`
	} `json:"graph"`
	Provd struct {
		CacheCapacity   int `json:"cache_capacity"`
		CheckpointEvery int `json:"checkpoint_every"`
	} `json:"provd"`
	// CheckinBatches is how many vertex-only first-version batches store
	// fresh receives before any run batch.
	CheckinBatches int `json:"checkin_batches"`
	// Probe is the check-in probe every workload ends with: open-loop
	// batches alternating default and fresh at this rate for this long,
	// once the reads have stopped.
	Probe struct {
		Rate    float64 `json:"rate_per_s"`
		Seconds float64 `json:"seconds"`
	} `json:"checkin_probe"`
	Workloads map[string]workloadConfig `json:"workloads"`
}

type workloadConfig struct {
	Loop    string             `json:"loop"`
	Clients int                `json:"clients"`
	Mix     map[string]float64 `json:"mix"`
	// Pool is a fixed pool of reads drawn from PoolSeed (dashboard).
	Pool     map[string]int `json:"pool"`
	PoolSeed int64          `json:"pool_seed"`
	// WarmReads, GatePool and PrefillPerSecond describe a stream of
	// distinct reads (explore): how many distinct reads warm-up sends, the
	// distinct reads the correctness gates check, and how many reads per
	// measured second are generated before set-up.
	WarmReads        int            `json:"warm_reads"`
	GatePool         map[string]int `json:"gate_pool"`
	PrefillPerSecond float64        `json:"prefill_per_s"`
}

func loadConfig() (*config, error) {
	var c config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for name, wc := range c.Workloads {
		if wc.Loop != "closed" {
			return nil, fmt.Errorf("workloads.json: workload %s: loop %q, want closed", name, wc.Loop)
		}
	}
	return &c, nil
}

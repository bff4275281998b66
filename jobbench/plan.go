package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/campaign"
)

//go:embed workloads.json
var planJSON []byte

// Plan is workloads.json: the workload table and the harness settings
// every run shares.
type Plan struct {
	DefaultSeed        int64      `json:"default_seed"`
	AwaitPollMS        int        `json:"await_poll_ms"`
	CacheHitsPerJob    int        `json:"cache_hits_per_job"`
	WorkerPollMS       int        `json:"worker_poll_ms"`
	DistributedWorkers int        `json:"distributed_workers"`
	SetupsPerJob       int        `json:"setups_per_job"`
	ClosureFindingFrac float64    `json:"closure_finding_frac"`
	Workloads          []Workload `json:"workloads"`
}

// Workload is one named input. Spec is the submitted body without its
// seed; the seed is a benchmark argument.
type Workload struct {
	Name         string          `json:"name"`
	Spec         json.RawMessage `json:"spec"`
	PinnedSHA256 string          `json:"pinned_sha256"`
	RSSSamples   int             `json:"rss_samples"`
}

func loadPlan() (Plan, error) {
	var p Plan
	if err := json.Unmarshal(planJSON, &p); err != nil {
		return p, fmt.Errorf("workloads.json: %w", err)
	}
	return p, nil
}

func (p Plan) workload(name string) (Workload, error) {
	for _, w := range p.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

func (p Plan) awaitPoll() time.Duration {
	return time.Duration(p.AwaitPollMS) * time.Millisecond
}

func (p Plan) workerPoll() time.Duration {
	return time.Duration(p.WorkerPollMS) * time.Millisecond
}

// body returns the submitted spec: the workload's fields plus the seed.
// Fields the workload leaves out (execution on the local workloads)
// stay out, so the server's defaults decide them.
func (w Workload) body(seed int64) ([]byte, error) {
	var fields map[string]any
	if err := json.Unmarshal(w.Spec, &fields); err != nil {
		return nil, fmt.Errorf("workload %s spec: %w", w.Name, err)
	}
	fields["seed"] = seed
	return json.Marshal(fields)
}

// distributed reports whether the workload's spec asks for remote
// workers.
func (w Workload) distributed() bool {
	var s struct {
		Execution string `json:"execution"`
	}
	_ = json.Unmarshal(w.Spec, &s) // body() reports malformed specs
	return s.Execution == campaign.ExecutionDistributed
}

package netsim_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// TestPassiveHopCampaignOracle is the passive-hop fast path's end-to-end
// differential: a small campaign per scenario, traceroutes on, run once
// with the fast path and once with the per-hop oracle on every shard's
// simulator, must produce byte-identical datasets and identical hop
// observations and congestion samples.
func TestPassiveHopCampaignOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run campaign differential in -short mode")
	}
	for _, scenario := range campaign.Scenarios() {
		t.Run(scenario, func(t *testing.T) {
			run := func(perHop bool) (data []byte, obs string, passive uint64) {
				spec := campaign.DefaultSpec()
				spec.Scale = "small"
				spec.Traces = 2
				spec.Stride = 3
				spec.Scenario = scenario
				cfg, err := spec.Config()
				if err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				var sims []*netsim.Sim
				cfg.ShardHook = func(_ int, _ string, w *topology.World) {
					w.Sim.SetPerHopOracle(perHop)
					mu.Lock()
					sims = append(sims, w.Sim)
					mu.Unlock()
				}
				res, err := campaign.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := dataset.Write(&buf, res.Dataset); err != nil {
					t.Fatal(err)
				}
				for _, s := range sims {
					passive += s.PassiveHops()
				}
				return buf.Bytes(), res.ObservationDigest(), passive
			}
			fastData, fastObs, passive := run(false)
			oracleData, oracleObs, oraclePassive := run(true)
			if passive == 0 || oraclePassive != 0 {
				t.Fatalf("passive hops: fast %d, oracle %d; want >0 and 0", passive, oraclePassive)
			}
			if !bytes.Equal(fastData, oracleData) {
				t.Errorf("dataset differs between fast path and per-hop oracle (%d vs %d bytes)", len(fastData), len(oracleData))
			}
			if fastObs != oracleObs {
				t.Errorf("observation digest differs: fast %s, oracle %s", fastObs, oracleObs)
			}
		})
	}
}

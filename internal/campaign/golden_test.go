package campaign

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/dataset"
)

// TestGoldenSmallWorld pins the absolute small-world outputs, per
// scenario, at seed 2015 with traceroutes on: the dataset SHA-256 and
// the observation digest (hop observations + congestion samples). The
// determinism grid and the smokes only compare runs of one build with
// each other, so a behaviour change would silently re-pin them; these
// constants cannot move without an edit here. They are the spec
// cmd/determinism's base cell runs, so its printed hashes match.
//
// A change that is meant to alter simulated behaviour updates the
// constants and says why; a performance change must leave them alone.
func TestGoldenSmallWorld(t *testing.T) {
	golden := []struct {
		scenario, dataset, obs string
	}{
		{ScenarioUncongested,
			"81e2952878d5e0990abb0094d3f50769437b0837021e33a770418fe8fdbe0fa8",
			"95589eee3f29160070f455668c4f0374c0846d5e5ae8bda878d784b876818852"},
		{ScenarioCongestedEdge,
			"11a385cfcde28b15ad2f0e30a0f591f5ba7ac8be147fc6744c9c47a49bcc4fda",
			"0a78cd64e02ea2dbe93d005839aaca35f3b6cf00d1228b1f76724c9ba1af6b27"},
		{ScenarioCongestedTransit,
			"adda0bfd3dd1c8e4616778142bac487ba3893f18ecf739ccf1bb4f072ccd05b3",
			"91f6178f4d2c5d5b22b398da932bd17d915cf2c455b93fcaa546e50575567564"},
	}
	if len(golden) != len(Scenarios()) {
		t.Fatalf("golden table covers %d scenarios, campaign has %d", len(golden), len(Scenarios()))
	}
	for _, g := range golden {
		t.Run(g.scenario, func(t *testing.T) {
			spec := DefaultSpec()
			spec.Scale = "small"
			spec.Traces = 2
			spec.Stride = 3
			spec.Scenario = g.scenario
			cfg, err := spec.Config()
			if err != nil {
				t.Fatal(err)
			}
			res := runOrFatal(t, cfg)
			if len(res.PathObs) == 0 {
				t.Fatal("no traceroute observations: the golden spec must exercise forwarding")
			}
			h := sha256.New()
			if err := dataset.Write(h, res.Dataset); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != g.dataset {
				t.Errorf("dataset SHA-256 = %s, want %s", got, g.dataset)
			}
			if got := res.ObservationDigest(); got != g.obs {
				t.Errorf("observation digest = %s, want %s", got, g.obs)
			}
		})
	}
}

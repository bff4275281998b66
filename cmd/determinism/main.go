// Command determinism promotes the campaign engine's headline invariant
// — the merged dataset is byte-identical for any parallelism shape —
// from a test assertion to an explicit pipeline check. For every
// scenario it runs the same small-scale campaign across the full
// slices × workers grid, hashes each merged dataset (SHA-256 over the
// canonical JSON-lines encoding), and exits non-zero on any divergence.
//
// CI runs it as the `determinism` job; locally `make determinism` does
// the same. The grid comes from the shared campaign flag surface
// (campaign.BindSpecFlags in grid mode): -workers/-slices/-sched/
// -xtraffic/-scenario accept comma-separated axis values, a REPRO_*
// variable narrows its axis to one value, and the defaults — slices ∈
// {1, 2, 8} × workers ∈ {1, 4, 13} × schedulers {wheel, heap} ×
// cross-traffic drives {lazy, events} × all scenarios — span
// one-shard-per-vantage through more-slices-than-traces, sequential
// through one-goroutine-per-vantage, and both differential oracles
// (the heap scheduler and the event-per-boundary cross-traffic drive),
// whose hashes must all be equal.
//
// The hash this command prints for a spec is the control plane's
// correctness contract: a dataset served by cmd/reprod for the same
// spec must have the same SHA-256 (the service-smoke CI job asserts
// exactly that).
//
// The dataset bytes do not carry the traceroute sweep's hop
// observations or the congestion samples, so each cell also prints an
// obs= digest of both (campaign.Result.ObservationDigest), which must
// match across the grid too. The base spec keeps traceroutes on
// (stride 3) so that digest covers real forwarding: a TTL off by one
// changes it even when the dataset hash stays put.
//
// Every grid cell runs with a full telemetry set attached
// (campaign.NewMetrics), so the grid doubles as the out-of-band proof
// for the flight recorder: if instrumentation ever perturbed an event
// order or a PRNG draw, the cell's hash would diverge here before
// anything else caught it.
//
// Usage:
//
//	determinism [-seed N] [-traces N] [-workers 1,4,13] [-slices 1,2,8] [-scenario a,b] [-sched wheel,heap] [-xtraffic lazy,events]
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/telemetry"
)

func main() {
	base := campaign.DefaultSpec()
	base.Scale = "small"
	base.Traces = 2
	base.Stride = 3
	spec := campaign.BindSpecFlags(flag.CommandLine, campaign.FlagOptions{
		Base: base,
		Grid: &campaign.GridDefaults{
			Scenarios:  campaign.Scenarios(),
			Schedulers: []string{"wheel", "heap"},
			XTraffics:  []string{"lazy", "events"},
			Workers:    []int{1, 4, 13},
			Slices:     []int{1, 2, 8},
		},
	})
	flag.Parse()

	cells, err := spec.ResolveGrid()
	if err != nil {
		fatal("%v", err)
	}

	// Cells arrive scenario-outermost; each scenario's first cell sets
	// the reference hashes the rest of its block must match.
	failed := false
	scenario, ref, refObs := "", "", ""
	for _, cell := range cells {
		if cell.Scenario != scenario {
			scenario, ref, refObs = cell.Scenario, "", ""
		}
		sum, obs, err := runHash(cell)
		if err != nil {
			fatal("scenario %s sched=%s xtraffic=%s slices=%d workers=%d: %v",
				cell.Scenario, cell.Scheduler, cell.XTraffic, cell.SlicesPerVantage, cell.Workers, err)
		}
		fmt.Printf("%s  scenario=%s sched=%s xtraffic=%s slices=%d workers=%d obs=%s\n",
			sum, cell.Scenario, cell.Scheduler, cell.XTraffic, cell.SlicesPerVantage, cell.Workers, obs)
		if ref == "" {
			ref, refObs = sum, obs
		} else if sum != ref || obs != refObs {
			fmt.Fprintf(os.Stderr,
				"determinism: FAIL: scenario %s diverges at sched=%s xtraffic=%s slices=%d workers=%d\n",
				cell.Scenario, cell.Scheduler, cell.XTraffic, cell.SlicesPerVantage, cell.Workers)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("determinism: OK — %d merged datasets and observation digests identical across the slices × workers × scheduler × cross-traffic grid\n", len(cells))
}

// runHash executes one grid cell's campaign — telemetry attached — and
// returns the SHA-256 of its merged dataset in canonical JSON-lines
// form, plus its observation digest.
func runHash(spec campaign.Spec) (sum, obs string, err error) {
	cfg, err := spec.Config()
	if err != nil {
		return "", "", err
	}
	cfg.Metrics = campaign.NewMetrics(telemetry.NewRegistry())
	res, err := campaign.Run(cfg)
	if err != nil {
		return "", "", err
	}
	h := sha256.New()
	if err := dataset.Write(h, res.Dataset); err != nil {
		return "", "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), res.ObservationDigest(), nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "determinism: "+format+"\n", args...)
	os.Exit(1)
}

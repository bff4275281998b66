package main

// Self-test of the harness on tiny specs (a few shards each): every
// metric BENCHMARK.json names is emitted with its unit, a corrupted
// pinned hash is counted as failures rather than crashing, and both
// distributed workers complete shards.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/topology"
)

// tinyPlan keeps the embedded plan's settings but replaces its
// workloads with two tiny ones: a local spec of 2 shards and a
// distributed spec of 8.
func tinyPlan() {
	var plan map[string]any
	if err := json.Unmarshal(planJSON, &plan); err != nil {
		panic(err)
	}
	v := topology.VantageNames()
	plan["workloads"] = []map[string]any{
		{"name": "tiny-local", "rss_samples": 1,
			"spec": map[string]any{"scale": "small", "stride": 0,
				"trace_plan": map[string]int{v[0]: 1, v[1]: 1}}},
		{"name": "tiny-distributed", "rss_samples": 1,
			"spec": map[string]any{"scale": "small", "stride": 0, "slices_per_vantage": 2,
				"execution":  "distributed",
				"trace_plan": map[string]int{v[0]: 2, v[1]: 2, v[2]: 2, v[3]: 2}}},
	}
	raw, err := json.Marshal(plan)
	if err != nil {
		panic(err)
	}
	planJSON = raw
}

// TestMain serves the peak-RSS child processes the harness starts by
// re-running this binary.
func TestMain(m *testing.M) {
	tinyPlan()
	if len(os.Args) > 1 && os.Args[1] == "--rss-child" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// pinned returns a harness for a tiny workload whose pin is the
// direct campaign.Run hash, as cmd/determinism would print it.
func pinned(t *testing.T, name string) *harness {
	t.Helper()
	plan, err := loadPlan()
	if err != nil {
		t.Fatal(err)
	}
	w, err := plan.workload(name)
	if err != nil {
		t.Fatal(err)
	}
	body, err := w.body(plan.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if w.PinnedSHA256, err = directHash(body); err != nil {
		t.Fatal(err)
	}
	h, err := newHarness(plan, w, plan.DefaultSeed, t.TempDir(), os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func render(t *testing.T, opts options, res result, defs []metricDef) resultLine {
	t.Helper()
	var out, human bytes.Buffer
	printResult(&out, &human, opts, res, defs)
	var line resultLine
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatalf("result line %q: %v", out.String(), err)
	}
	t.Log(human.String())
	return line
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	e2e, layers := benchmarkMetrics(t)
	for _, name := range []string{"tiny-local", "tiny-distributed"} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				h := pinned(t, name)
				opts := options{workload: name, seed: h.seed, seconds: 0.1, trace: traced}
				want, defs := e2e, endToEnd
				res := runEndToEnd(context.Background(), h, opts)
				if traced {
					want, defs = layers, perLayer
					res = runTraced(context.Background(), h, opts)
				}
				line := render(t, opts, res, defs)
				if !line.Correct || line.Failed != 0 {
					t.Fatalf("run not correct: %+v", res.errs)
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(line.Metrics), len(want))
				}
				for metric, unit := range want {
					got, ok := line.Metrics[metric]
					switch {
					case !ok || got.Value == nil:
						t.Errorf("%s not emitted", metric)
					case got.Unit != unit:
						t.Errorf("%s unit %q, BENCHMARK.json says %q", metric, got.Unit, unit)
					}
				}
			})
		}
	}
}

func TestCorruptPinIsFailureNotCrash(t *testing.T) {
	h := pinned(t, "tiny-local")
	h.w.PinnedSHA256 = strings.Repeat("0", 64)
	opts := options{workload: h.w.Name, seed: h.seed, seconds: 0.1}
	res := runEndToEnd(context.Background(), h, opts)
	line := render(t, opts, res, endToEnd)
	if line.Correct {
		t.Fatal("run with a corrupted pin reported correct")
	}
	// The reference run and the cold job both fail the pin.
	if line.Failed < 2 || line.Failed > line.Attempted {
		t.Fatalf("failed %d of %d operations, want at least 2", line.Failed, line.Attempted)
	}
	if !strings.Contains(strings.Join(res.errs, "\n"), "differs from the pinned") {
		t.Fatalf("failures do not name the pin: %q", res.errs)
	}
}

func TestBothWorkersCompleteShards(t *testing.T) {
	h := pinned(t, "tiny-distributed")
	h.want = h.w.PinnedSHA256
	s := h.runSample(context.Background(), true)
	if !s.ok {
		t.Fatalf("sample failed: %q", s.errs)
	}
	if len(s.trace.workers) != 2 {
		t.Fatalf("%d workers ran, want 2", len(s.trace.workers))
	}
	for _, w := range s.trace.workers {
		if w.stats.Accepted < 1 {
			t.Errorf("worker %s completed no shard: %+v", w.id, w.stats)
		}
	}
}

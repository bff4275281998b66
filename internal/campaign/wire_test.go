package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/packet"
)

// stripWallClock zeroes the one non-deterministic ShardStats field
// (wall-clock Elapsed) so shard stats can be compared across runs.
func stripWallClock(stats []ShardStats) []ShardStats {
	out := make([]ShardStats, len(stats))
	copy(out, stats)
	for i := range out {
		out[i].Elapsed = 0
	}
	return out
}

// executeWires runs every planned shard through the remote worker
// path — ExecuteShard, then a full JSON round trip of the wire struct
// (what an HTTP upload does to it) — and returns the decoded results in
// plan order, exactly as a coordinator holds them before finalizing.
func executeWires(t *testing.T, cfg Config) []*ShardResultWire {
	t.Helper()
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	var wires []*ShardResultWire
	for _, info := range cfg.Shards() {
		w, err := ExecuteShard(cfg, bp, info.Shard, info.Slice)
		if err != nil {
			t.Fatalf("ExecuteShard(%d,%d): %v", info.Shard, info.Slice, err)
		}
		raw, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		decoded := new(ShardResultWire)
		if err := json.Unmarshal(raw, decoded); err != nil {
			t.Fatal(err)
		}
		wires = append(wires, decoded)
	}
	return wires
}

// TestWireMergeMatchesInProcess is the distributed path's determinism
// guarantee: executing every shard through ExecuteShard and JSON
// round-tripping each result, the coordinator's concatenating finalize
// (ConcatWire) yields exactly dataset.Write of the in-process
// campaign.Run's dataset, and the library merge (MergeWire) the same
// dataset, server list, congestion samples and shard stats — for every
// scenario, unsliced and sliced (8 slices of a 2-trace quota leaves
// most slices empty).
func TestWireMergeMatchesInProcess(t *testing.T) {
	for _, scenario := range []string{ScenarioUncongested, ScenarioCongestedEdge, ScenarioCongestedTransit} {
		t.Run(scenario, func(t *testing.T) {
			for _, slices := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("slices=%d", slices), func(t *testing.T) {
					cfg := testConfig()
					cfg.Scenario = scenario
					cfg.SlicesPerVantage = slices

					ref := runOrFatal(t, cfg)
					refData := encode(t, ref.Dataset)
					if len(refData) == 0 {
						t.Fatal("reference dataset is empty")
					}
					wires := executeWires(t, cfg)

					cat, catData, err := ConcatWire(wires)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(catData, refData) {
						t.Errorf("concatenated dataset differs from in-process run (%d vs %d bytes)",
							len(catData), len(refData))
					}
					if cat.Dataset != nil || cat.World != nil {
						t.Error("ConcatWire must leave Dataset and World nil")
					}

					got, err := MergeWire(wires)
					if err != nil {
						t.Fatal(err)
					}
					if gotData := encode(t, got.Dataset); !bytes.Equal(gotData, refData) {
						t.Errorf("wire-merged dataset differs from in-process run (%d vs %d bytes)",
							len(gotData), len(refData))
					}
					for _, res := range []*Result{cat, got} {
						if !reflect.DeepEqual(res.Servers, ref.Servers) {
							t.Errorf("servers differ: %v vs %v", res.Servers, ref.Servers)
						}
						if !reflect.DeepEqual(stripWallClock(res.Shards), stripWallClock(ref.Shards)) {
							t.Errorf("shard stats differ:\n%+v\nvs\n%+v", res.Shards, ref.Shards)
						}
						if !reflect.DeepEqual(res.Congestion, ref.Congestion) {
							t.Errorf("congestion samples differ:\n%+v\nvs\n%+v", res.Congestion, ref.Congestion)
						}
						if res.Events != ref.Events || res.PhantomEvents != ref.PhantomEvents ||
							res.ReplayedBoundaries != ref.ReplayedBoundaries {
							t.Errorf("event totals differ: (%d,%d,%d) vs (%d,%d,%d)",
								res.Events, res.PhantomEvents, res.ReplayedBoundaries,
								ref.Events, ref.PhantomEvents, ref.ReplayedBoundaries)
						}
					}
				})
			}
		})
	}
}

// TestExecuteShardUnknownShard rejects coordinates outside the plan.
func TestExecuteShardUnknownShard(t *testing.T) {
	cfg := testConfig()
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteShard(cfg, bp, 99, 0); err == nil {
		t.Fatal("want error for shard outside the plan")
	}
}

// TestMergeWireRejectsBadBatches covers the coordinator-side guards:
// empty batches, nil entries, wrong wire versions and out-of-order
// uploads are all refused before any merge happens.
func TestMergeWireRejectsBadBatches(t *testing.T) {
	cfg := testConfig()
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		t.Fatal(err)
	}
	infos := cfg.Shards()
	if len(infos) < 2 {
		t.Fatalf("test plan too small: %d shards", len(infos))
	}
	a, err := ExecuteShard(cfg, bp, infos[0].Shard, infos[0].Slice)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecuteShard(cfg, bp, infos[1].Shard, infos[1].Slice)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := MergeWire(nil); err == nil {
		t.Error("want error for empty batch")
	}
	if _, err := MergeWire([]*ShardResultWire{a, nil}); err == nil {
		t.Error("want error for nil entry")
	}
	bad := *a
	bad.Version = ShardWireVersion + 1
	if _, err := MergeWire([]*ShardResultWire{&bad}); err == nil {
		t.Error("want error for wire version mismatch")
	}
	if _, err := MergeWire([]*ShardResultWire{b, a}); err == nil {
		t.Error("want error for out-of-order results")
	}
	if _, err := MergeWire([]*ShardResultWire{a, a}); err == nil {
		t.Error("want error for duplicate shard coordinates")
	}

	// Line-level guards: each mutation of a valid batch must be refused
	// by the concatenating merge itself, not only by a later decode.
	withLine := func(w *ShardResultWire, i int, line string) *ShardResultWire {
		c := *w
		c.Lines = append([]json.RawMessage(nil), w.Lines...)
		c.Lines[i] = json.RawMessage(line)
		return &c
	}
	first := string(a.Lines[0])
	dropped := *a
	dropped.Lines = a.Lines[1:]
	renamed := *a
	renamed.Vantage = b.Vantage
	for name, batch := range map[string][]*ShardResultWire{
		"indices not starting at 0":       {b},
		"line count disagrees with stats": {&dropped, b},
		"vantage disagrees with lines":    {&renamed, b},
		"line is not an object":           {withLine(a, 0, `[1,2,3]`), b},
		"line spans two lines":            {withLine(a, 0, strings.Replace(first, `,"started":`, ",\n\"started\":", 1)), b},
		"line is truncated":               {withLine(a, 0, first[:len(first)-1]), b},
		"index off by one":                {withLine(a, 0, strings.Replace(first, `"index":0,`, `"index":1,`, 1)), b},
	} {
		if _, _, err := ConcatWire(batch); err == nil {
			t.Errorf("%s: ConcatWire accepted the batch", name)
		}
		if _, err := MergeWire(batch); err == nil {
			t.Errorf("%s: MergeWire accepted the batch", name)
		}
	}
	if _, err := MergeWire([]*ShardResultWire{a, b}); err != nil {
		t.Errorf("the unmutated batch must merge: %v", err)
	}
}

// syntheticWires builds a canonical batch of shards results with
// tracesPer traces of obsPer observations each — shaped like real
// uploads, without running a simulation.
func syntheticWires(shards, tracesPer, obsPer int) []*ShardResultWire {
	wires := make([]*ShardResultWire, shards)
	index := 0
	for s := range wires {
		w := &ShardResultWire{
			Version: ShardWireVersion,
			Shard:   s,
			Vantage: fmt.Sprintf("vantage %d", s),
			Servers: []packet.Addr{packet.AddrFromUint32(uint32(s)), packet.AddrFromUint32(1000)},
			Stats:   ShardStats{Shard: s, Traces: tracesPer, Events: 10},
		}
		for k := 0; k < tracesPer; k++ {
			tr := dataset.Trace{Vantage: w.Vantage, Batch: 1 + k%2, Index: index}
			for o := 0; o < obsPer; o++ {
				tr.Observations = append(tr.Observations, dataset.Observation{
					Server: packet.AddrFromUint32(uint32(o)), UDPReachable: o%3 == 0, HTTPStatus: 200,
				})
			}
			line, err := dataset.MarshalLine(&tr)
			if err != nil {
				panic(err)
			}
			w.Lines = append(w.Lines, line)
			index++
		}
		wires[s] = w
	}
	return wires
}

// TestConcatWireAllocsPerShard: the coordinator's finalize costs
// O(shards) allocations — one output buffer, the merged stats — never
// O(traces × observations). Growing every shard from 1 to 64 traces
// would add over a thousand allocations if any were per trace; it may
// add none beyond the few the race detector's sync.Pool drops cause.
func TestConcatWireAllocsPerShard(t *testing.T) {
	const shards = 16
	// A collection triggered by the large output buffer allocates on
	// its own; keep it out of the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(tracesPer int) float64 {
		wires := syntheticWires(shards, tracesPer, 50)
		return testing.AllocsPerRun(20, func() {
			if _, _, err := ConcatWire(wires); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1), allocs(64)
	if large >= small+shards {
		t.Errorf("allocations grow with traces: %.0f at 1 trace/shard, %.0f at 64", small, large)
	}
	if limit := float64(8*shards + 32); small > limit {
		t.Errorf("%.0f allocations for %d shards, want at most %.0f", small, shards, limit)
	}
}

// FuzzMergeWire feeds arbitrary JSON batches to the merge. It must
// never panic, and whatever it accepts must be a consistent merge: the
// decoded dataset re-encodes to exactly the concatenated bytes, with
// campaign-wide indices 0..n-1 and every trace under its shard's
// vantage.
func FuzzMergeWire(f *testing.F) {
	for _, wires := range [][]*ShardResultWire{
		syntheticWires(2, 2, 3),
		syntheticWires(1, 1, 0),
	} {
		raw, err := json.Marshal(wires)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`[{"v":2,"shard":0,"vantage":"a","lines":[{"vantage":"a","batch":1,"index":0,"started":0,"observations":null}],"stats":{"Traces":1}}]`))
	f.Add([]byte(`[{"v":1,"traces":[{"vantage":"a"}]}]`))
	f.Add([]byte(`[null]`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var wires []*ShardResultWire
		if json.Unmarshal(raw, &wires) != nil {
			return
		}
		res, err := MergeWire(wires)
		if err != nil {
			return
		}
		_, data, err := ConcatWire(wires)
		if err != nil {
			t.Fatalf("MergeWire accepted a batch ConcatWire refuses: %v", err)
		}
		var buf bytes.Buffer
		if err := dataset.Write(&buf, res.Dataset); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("merged dataset re-encodes differently:\n%s\nvs\n%s", buf.Bytes(), data)
		}
		i := 0
		for _, w := range wires {
			for range w.Lines {
				if tr := res.Dataset.Traces[i]; tr.Index != i || tr.Vantage != w.Vantage {
					t.Fatalf("trace %d is index %d of %q, want %q", i, tr.Index, tr.Vantage, w.Vantage)
				}
				i++
			}
		}
	})
}

// TestAppendJSONDecodesLikeMarshal: the verbatim-lines encoding decodes
// to exactly the wire json.Marshal's encoding decodes to — for real
// shard results, for a shard without lines, and inside a larger
// document, which is how uploads and journal records embed it.
func TestAppendJSONDecodesLikeMarshal(t *testing.T) {
	cfg := testConfig()
	cfg.Scenario = ScenarioCongestedEdge
	wires := append(executeWires(t, cfg)[:2], syntheticWires(1, 0, 0)...)
	for i, w := range wires {
		w.SpecHash = "feedface"
		std, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := w.AppendJSON([]byte(`{"result":`))
		if err != nil {
			t.Fatal(err)
		}
		fast = append(fast, '}')
		var want ShardResultWire
		var got struct{ Result ShardResultWire }
		if err := json.Unmarshal(std, &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(fast, &got); err != nil {
			t.Fatalf("wire %d: AppendJSON output does not parse: %v", i, err)
		}
		if !reflect.DeepEqual(got.Result, want) {
			t.Errorf("wire %d decodes differently:\n%+v\nvs\n%+v", i, got.Result, want)
		}
	}
}

package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/topology"
)

// This file is the distributed execution seam: the versioned wire form
// of one shard's result, the entry point a remote worker uses to
// execute exactly one leased (vantage, slice) shard, and the merge the
// coordinator runs over uploaded results.
//
// The contract is the engine's determinism invariant stretched across
// machines: ExecuteShard runs the identical history-free shard context
// runShard uses in-process (same frozen blueprint, same derived seeds,
// same epoch-pinned virtual timeline) and encodes each trace once, on
// the worker, as its final dataset line — campaign-wide index
// included, since the plan fixes every shard's first index in advance
// (ShardInfo.First). The coordinator's merge (ConcatWire) is then a
// byte concatenation in canonical (vantage, slice) order, so the merged dataset is
// byte-identical to campaign.Run whatever machine ran which shard.
// cmd/determinism's pinned hash is the cross-machine acceptance check.

// ShardWireVersion is the current shard-result wire schema. A worker
// built against a different schema is rejected at upload rather than
// silently merged, and a journaled result of another version fails
// its job at recovery. Version 1 carried decoded traces with
// per-shard indices; version 2 carries final dataset lines.
const ShardWireVersion = 2

// ShardResultWire is one executed shard's result in wire form: the
// shard's final dataset lines, its congestion sample (congested
// scenarios), its probed server list, and its execution stats. It
// carries the spec hash it was computed for so a stale worker — one
// holding a lease from a different job generation or an entirely
// different spec — cannot poison a job's merge.
type ShardResultWire struct {
	// Version is the wire schema version (ShardWireVersion).
	Version int `json:"v"`
	// SpecHash is the cache key (campaign.Spec.CacheKey) of the spec
	// the worker actually executed; the coordinator rejects uploads
	// whose hash differs from the job's.
	SpecHash string `json:"spec_hash"`

	// Shard and Slice identify the (vantage, slice) unit in the
	// canonical plan; Vantage is the vantage every line must name.
	Shard   int    `json:"shard"`
	Slice   int    `json:"slice"`
	Vantage string `json:"vantage"`

	// Lines are the shard's traces in per-shard order, each exactly the
	// bytes dataset.Write emits for the trace (dataset.MarshalLine, no
	// newline), with Index already set to its campaign-wide value: the
	// traces of every earlier shard in plan order plus the position
	// here. JSON carries them verbatim, so the journal and the merge
	// never decode a trace.
	Lines []json.RawMessage `json:"lines,omitempty"`
	// Servers is the shard's probed target list (ground truth or
	// per-shard DNS discovery); the merge unions it in canonical shard
	// order for the run report.
	Servers []packet.Addr `json:"servers"`
	// Congestion is the shard's CE-mark sample on congested scenarios.
	Congestion *analysis.CEMarkSample `json:"congestion,omitempty"`
	// Stats are the shard's execution counters.
	Stats ShardStats `json:"stats"`
}

// wireFromShardResult converts an executed shard to wire form, encoding
// each trace as its final dataset line numbered from the plan's
// campaign-wide first index. The traceroute sweep's path
// observations are not carried: they are not part of the stored
// artifact set (dataset + run meta) the control plane files, so the
// wire stays lean.
func wireFromShardResult(r shardResult, first int) (*ShardResultWire, error) {
	lines := make([]json.RawMessage, len(r.data.Traces))
	for i := range r.data.Traces {
		t := &r.data.Traces[i]
		t.Index = first + i
		line, err := dataset.MarshalLine(t)
		if err != nil {
			return nil, fmt.Errorf("campaign: encode trace %d: %w", t.Index, err)
		}
		lines[i] = line
	}
	return &ShardResultWire{
		Version:    ShardWireVersion,
		Shard:      r.stats.Shard,
		Slice:      r.stats.Slice,
		Vantage:    r.stats.Vantage,
		Lines:      lines,
		Servers:    r.servers,
		Congestion: r.congestion,
		Stats:      r.stats,
	}, nil
}

// AppendJSON appends w's JSON document to b. It decodes to the same
// wire as json.Marshal's output, but the lines are copied verbatim
// (last in the document) instead of being re-compacted one by one —
// the marshal cost of a result is then its small header, not its
// dataset bytes. Every line must be a single-line JSON value, as the
// lines ExecuteShard encodes and the lines a JSON decode produced are.
func (w *ShardResultWire) AppendJSON(b []byte) ([]byte, error) {
	head := *w
	head.Lines = nil
	enc, err := json.Marshal(&head)
	if err != nil {
		return nil, err
	}
	if len(w.Lines) == 0 {
		return append(b, enc...), nil
	}
	b = append(append(b, enc[:len(enc)-1]...), `,"lines":[`...)
	for i, line := range w.Lines {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, line...)
	}
	return append(b, "]}"...), nil
}

// shardResult converts an uploaded wire result to the merge's internal
// form, minus the dataset: the merge concatenates lines instead. The
// world pointer is nil — a coordinator merging remote results never
// instantiated the shard's world, and nothing in the stored artifacts
// needs it.
func (w *ShardResultWire) shardResult() shardResult {
	return shardResult{
		servers:    w.Servers,
		congestion: w.Congestion,
		stats:      w.Stats,
	}
}

// CheckPlan validates an uploaded result against the plan slot it was
// posted for, info. It checks the wire version, the coordinates and vantage, that there is
// one line per planned trace, and each line's framing and leading
// vantage/index, numbered from info.First (see checkLines). It catches a result meant for
// another shard, plan or build; it does not re-derive the traces, so
// the dataset hash stays the end-to-end check.
func (w *ShardResultWire) CheckPlan(info ShardInfo) error {
	if w.Version != ShardWireVersion {
		return fmt.Errorf("shard result has wire version %d (this build speaks %d)",
			w.Version, ShardWireVersion)
	}
	if w.Shard != info.Shard || w.Slice != info.Slice || w.Vantage != info.Vantage {
		return fmt.Errorf("payload is for shard (%d,%d) %q but the plan slot is (%d,%d) %q",
			w.Shard, w.Slice, w.Vantage, info.Shard, info.Slice, info.Vantage)
	}
	if len(w.Lines) != info.Traces {
		return fmt.Errorf("shard (%d,%d) carries %d dataset lines, the plan has %d traces",
			w.Shard, w.Slice, len(w.Lines), info.Traces)
	}
	return w.checkLines(info.First)
}

// checkLines verifies that w's lines are final dataset lines of its
// vantage, numbered from campaign-wide index first. Each line must be
// a single line (no raw CR or LF: an encoder escapes them inside
// strings), close with '}', and open with the canonical encoding's
// prefix {"vantage":V,"batch":B,"index":I, with V the shard's vantage
// and I = first + position. Lines that arrived through a JSON decode
// are known to be valid JSON, so these checks make each one a trace
// object in its planned slot. Only the prefix is parsed; no trace is
// decoded. Stats.Traces must agree with the line count, since the
// merged run's trace total is summed from it.
func (w *ShardResultWire) checkLines(first int) error {
	if w.Stats.Traces != len(w.Lines) {
		return fmt.Errorf("shard (%d,%d) reports %d traces but carries %d lines",
			w.Shard, w.Slice, w.Stats.Traces, len(w.Lines))
	}
	vantage, err := json.Marshal(w.Vantage)
	if err != nil {
		return err
	}
	head := append(append([]byte(`{"vantage":`), vantage...), `,"batch":`...)
	var num [20]byte
	for i, line := range w.Lines {
		if why := lineMismatch(line, head, strconv.AppendInt(num[:0], int64(first+i), 10)); why != "" {
			return fmt.Errorf("shard (%d,%d) line %d is not trace %d of %q: %s",
				w.Shard, w.Slice, i, first+i, w.Vantage, why)
		}
	}
	return nil
}

// lineMismatch reports why line is not a trace line opening with head
// (its vantage) and carrying index, or "" when it is one.
func lineMismatch(line, head, index []byte) string {
	rest, ok := bytes.CutPrefix(line, head)
	if !ok {
		return "wrong vantage or not a canonical trace line"
	}
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	if n == 0 {
		return "batch is not a number"
	}
	rest, ok = bytes.CutPrefix(rest[n:], []byte(`,"index":`))
	if ok {
		rest, ok = bytes.CutPrefix(rest, index)
	}
	if !ok || len(rest) == 0 || rest[0] != ',' {
		return "wrong index"
	}
	if line[len(line)-1] != '}' || bytes.ContainsAny(line, "\r\n") {
		return "not a single-line JSON object"
	}
	return ""
}

// CompileBlueprint compiles the campaign's frozen world blueprint —
// the same compile-once artifact Run shares across its shard pool. A
// worker compiles it once per job and instantiates it into every
// leased shard's private simulation.
func (cfg Config) CompileBlueprint() (*topology.Blueprint, error) {
	topo, err := cfg.topologyConfig()
	if err != nil {
		return nil, err
	}
	return topology.Compile(topo, cfg.Seed)
}

// ExecuteShard executes exactly one (vantage-index, slice) shard of
// the campaign plan against a pre-compiled blueprint and returns its
// wire-form result. It runs the identical code path Run's worker pool
// uses (runShard: reseeded, transient-reset, epoch-pinned per-trace
// contexts), so the returned lines are byte-identical to the same
// traces in campaign.Run's dataset — the property that makes
// cross-machine merges exact. SpecHash is left empty; the uploading
// caller stamps the hash of the spec it derived cfg from.
func ExecuteShard(cfg Config, bp *topology.Blueprint, shard, slice int) (*ShardResultWire, error) {
	sched, ok := netsim.SchedulerByName(cfg.Scheduler)
	if !ok {
		return nil, fmt.Errorf("campaign: unknown scheduler %q (want wheel or heap)", cfg.Scheduler)
	}
	xmode, ok := netsim.XTrafficModeByName(cfg.XTraffic)
	if !ok {
		return nil, fmt.Errorf("campaign: unknown cross-traffic drive %q (want lazy or events)", cfg.XTraffic)
	}
	for _, sh := range cfg.shardSpecs() {
		if sh.shard != shard || sh.slice != slice {
			continue
		}
		r, err := runShard(cfg, bp, sh, sched, xmode)
		if err != nil {
			return nil, err
		}
		return wireFromShardResult(r, sh.first)
	}
	return nil, fmt.Errorf("campaign: plan has no shard (%d, %d)", shard, slice)
}

// ConcatWire is the coordinator's merge. It checks uploaded shard
// results — which must arrive in canonical (vantage, slice) plan
// order, one per planned shard, their lines numbered consecutively
// from 0 — and assembles the run by concatenation: data is every
// shard's lines, each followed by a newline, in that order, which is
// byte-for-byte dataset.Write of campaign.Run's dataset. res carries
// everything else the canonical merge derives (shard stats, event
// totals, the server union, per-vantage congestion); its Dataset and
// World are nil. No trace is decoded or re-encoded: the cost is one
// copy of the bytes and O(shards) allocations.
func ConcatWire(wires []*ShardResultWire) (res *Result, data []byte, err error) {
	if len(wires) == 0 {
		return nil, nil, fmt.Errorf("campaign: merge of zero shard results")
	}
	results := make([]shardResult, len(wires))
	size, next := 0, 0 // next is the merged dataset's next trace index
	for i, w := range wires {
		if w == nil {
			return nil, nil, fmt.Errorf("campaign: shard result %d missing from merge", i)
		}
		if w.Version != ShardWireVersion {
			return nil, nil, fmt.Errorf("campaign: shard result %d has wire version %d (this build speaks %d)",
				i, w.Version, ShardWireVersion)
		}
		if i > 0 {
			prev := wires[i-1]
			if w.Shard < prev.Shard || (w.Shard == prev.Shard && w.Slice <= prev.Slice) {
				return nil, nil, fmt.Errorf("campaign: shard results out of canonical order: (%d,%d) after (%d,%d)",
					w.Shard, w.Slice, prev.Shard, prev.Slice)
			}
		}
		if err := w.checkLines(next); err != nil {
			return nil, nil, fmt.Errorf("campaign: shard result %d: %w", i, err)
		}
		next += len(w.Lines)
		for _, line := range w.Lines {
			size += len(line) + 1
		}
		results[i] = w.shardResult()
	}
	data = make([]byte, 0, size)
	for _, w := range wires {
		for _, line := range w.Lines {
			data = append(append(data, line...), '\n')
		}
	}
	return mergeShards(results), data, nil
}

// MergeWire is ConcatWire for library callers that want the decoded
// dataset: it concatenates the uploaded results and decodes the merged
// lines into Result.Dataset. It accepts only canonical lines — the
// decoded dataset must re-encode to exactly the concatenated bytes —
// so every trace is the one its line's prefix named. Result.World is
// nil (no world was instantiated here); every stored artifact (dataset
// bytes, run meta, CE-mark report) derives without it.
func MergeWire(wires []*ShardResultWire) (*Result, error) {
	res, data, err := ConcatWire(wires)
	if err != nil {
		return nil, err
	}
	d, err := dataset.Read(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("campaign: merged shard results: %w", err)
	}
	var again bytes.Buffer
	again.Grow(len(data))
	if err := dataset.Write(&again, d); err != nil {
		return nil, fmt.Errorf("campaign: merged shard results: %w", err)
	}
	if !bytes.Equal(again.Bytes(), data) {
		return nil, fmt.Errorf("campaign: merged shard results are not canonical dataset lines")
	}
	res.Dataset = d
	return res, nil
}

package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/dataset"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/worker"
)

// decomp is one spec run layer by layer through the layers' public
// functions, serially, each call timed from outside: compile the
// blueprint, then per shard instantiate a world and execute the shard,
// encode, gzip (as a worker's upload does) and decode its wire form;
// then merge, write the dataset and file it in a store.
type decomp struct {
	sha string

	compile, instantiate float64
	busy, maxBusy        float64 // ExecuteShard minus instantiate: sum, slowest shard
	encode, gzip, decode float64
	merge, write, put    float64

	shards                  int
	wireBytes, datasetBytes float64

	events, phantom, replayed, cascades float64
}

func decompose(body []byte, storeDir string) (*decomp, error) {
	spec, err := campaign.ParseSpec(body)
	if err != nil {
		return nil, err
	}
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	sched, ok := netsim.SchedulerByName(cfg.Scheduler)
	if !ok {
		return nil, fmt.Errorf("unknown scheduler %q", cfg.Scheduler)
	}
	d := &decomp{}
	start := time.Now()
	bp, err := cfg.CompileBlueprint()
	if err != nil {
		return nil, err
	}
	d.compile = time.Since(start).Seconds()

	plan := cfg.Shards()
	wires := make([]*campaign.ShardResultWire, 0, len(plan))
	for _, sh := range plan {
		start = time.Now()
		if _, err := bp.Instantiate(netsim.NewSimSched(cfg.Seed, sched)); err != nil {
			return nil, err
		}
		inst := time.Since(start).Seconds()

		start = time.Now()
		wire, err := campaign.ExecuteShard(cfg, bp, sh.Shard, sh.Slice)
		if err != nil {
			return nil, err
		}
		busy := time.Since(start).Seconds() - inst

		start = time.Now()
		raw, err := json.Marshal(wire)
		if err != nil {
			return nil, err
		}
		d.encode += time.Since(start).Seconds()
		start = time.Now()
		zw := gzip.NewWriter(io.Discard)
		if _, err := zw.Write(raw); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
		d.gzip += time.Since(start).Seconds()
		start = time.Now()
		var back campaign.ShardResultWire
		if err := json.Unmarshal(raw, &back); err != nil {
			return nil, err
		}
		d.decode += time.Since(start).Seconds()

		d.instantiate += inst
		d.busy += busy
		d.maxBusy = math.Max(d.maxBusy, busy)
		d.wireBytes += float64(len(raw))
		st := back.Stats
		d.events += float64(st.Events)
		d.phantom += float64(st.PhantomEvents)
		d.replayed += float64(st.ReplayedBoundaries)
		d.cascades += float64(st.WheelCascades)
		wires = append(wires, &back)
	}
	d.shards = len(wires)

	start = time.Now()
	res, err := campaign.MergeWire(wires)
	if err != nil {
		return nil, err
	}
	d.merge = time.Since(start).Seconds()

	var buf bytes.Buffer
	start = time.Now()
	if err := dataset.Write(&buf, res.Dataset); err != nil {
		return nil, err
	}
	d.write = time.Since(start).Seconds()
	d.datasetBytes = float64(buf.Len())
	d.sha = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))

	key, err := spec.CacheKey()
	if err != nil {
		return nil, err
	}
	canonical, err := spec.Normalized().Canonical()
	if err != nil {
		return nil, err
	}
	store, err := server.OpenStore(storeDir)
	if err != nil {
		return nil, err
	}
	meta := server.RunMeta{Key: key, Spec: spec.Normalized(), DatasetSHA256: d.sha,
		DatasetBytes: int64(buf.Len()), Traces: len(res.Dataset.Traces), Shards: d.shards}
	start = time.Now()
	if err := store.Put(key, canonical, meta, buf.Bytes()); err != nil {
		return nil, err
	}
	d.put = time.Since(start).Seconds()
	return d, nil
}

// tracedJob is the outside view of one traced cold job: its job
// timestamps and shard table, the /v1/metrics delta across it, and the
// per-route times the client's and each worker's timing RoundTripper
// saw.
type tracedJob struct {
	jobS    float64
	job     apiclient.Job
	shards  []apiclient.Shard
	metrics map[string]float64
	client  map[string]routeStat
	workers []workerTrace
}

type workerTrace struct {
	id                  string
	stats               worker.Stats
	routes              map[string]routeStat
	claims, emptyClaims int
}

// collectTrace reads the server side of a finished traced cold job.
func collectTrace(ctx context.Context, e *env, job apiclient.Job, before map[string]float64) (*tracedJob, error) {
	client := e.tracer.snapshot()
	text, err := e.client.MetricsText(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape /v1/metrics: %w", err)
	}
	shards, err := e.client.Shards(ctx, job.ID)
	if err != nil {
		return nil, fmt.Errorf("shards: %w", err)
	}
	return &tracedJob{job: job, shards: shards, client: client,
		metrics: promDelta(before, promSeries(text))}, nil
}

// addWorkers records what each stopped worker did.
func (tj *tracedJob) addWorkers(ws []*workerRun) {
	for _, wr := range ws {
		wt := workerTrace{id: wr.id, stats: wr.stats, routes: wr.tracer.snapshot()}
		wt.claims, wt.emptyClaims = wr.tracer.claimCounts()
		tj.workers = append(tj.workers, wt)
	}
}

func (tj *tracedJob) queueWait() float64 {
	if tj.job.Started == nil {
		return 0
	}
	return tj.job.Started.Sub(tj.job.Submitted).Seconds()
}

// lanes returns each execution lane's busy time from the shard table:
// per worker on the distributed path; on the local path the engine's
// pool of `pool` goroutines, each taking the next shard in plan order
// when it frees up.
func (tj *tracedJob) lanes(pool int) []float64 {
	if len(tj.workers) > 0 {
		busy := make([]float64, len(tj.workers))
		for _, sh := range tj.shards {
			for i, w := range tj.workers {
				if sh.Worker == w.id {
					busy[i] += sh.ElapsedSeconds
				}
			}
		}
		return busy
	}
	pool = max(1, min(pool, len(tj.shards)))
	busy := make([]float64, pool)
	for _, sh := range tj.shards {
		free := 0
		for i := range busy {
			if busy[i] < busy[free] {
				free = i
			}
		}
		busy[free] += sh.ElapsedSeconds
	}
	return busy
}

// blockingPath sums the layer times a cold job waits on: submit, queue
// wait, compile, the slowest lane, merge and store, then fetch. On the
// distributed path a lane is one worker's compile, shard execution,
// wire encoding and gzip, claims and uploads; the final upload carries the
// server's merge and store put, so those are not added again.
func (tj *tracedJob) blockingPath(d *decomp, pool int) float64 {
	path := tj.client["submit"].Secs + tj.queueWait() + tj.client["fetch"].Secs
	busy := tj.lanes(pool)
	if len(tj.workers) == 0 {
		return path + d.compile + maxOf(busy) + d.merge + d.write + d.put
	}
	// Wire encoding and gzip are shared out by the worker's share of
	// the shard busy time.
	perBusy := (d.encode + d.gzip) / sum(busy)
	var worst float64
	for i, w := range tj.workers {
		lane := d.compile + busy[i]*(1+perBusy) + w.routes["claim"].Secs + w.routes["upload"].Secs
		worst = math.Max(worst, lane)
	}
	return path + worst
}

// serviceLayers returns the per-layer values one traced job shows.
func (tj *tracedJob) serviceLayers(d *decomp, pool int) map[string]float64 {
	m := tj.metrics
	busy := tj.lanes(pool)
	out := map[string]float64{
		"aqm.enqueued":               promSum(m, "repro_aqm_enqueued_total"),
		"aqm.ce_marked":              promSum(m, "repro_aqm_ce_marked_total"),
		"aqm.dropped":                promSum(m, "repro_aqm_dropped_total"),
		"campaign.lane_imbalance":    maxOf(busy) / (sum(busy) / float64(len(busy))),
		"server.queue_wait_s":        tj.queueWait(),
		"client.submit_s":            tj.client["submit"].Secs,
		"client.fetch_s":             tj.client["fetch"].Secs,
		"client.await_polls":         float64(tj.client["poll"].N),
		"server.http_requests":       promSum(m, "repro_http_requests_total"),
		"server.http_busy_s":         promSum(m, "repro_http_request_duration_seconds_sum"),
		"server.journal_syncs":       promSum(m, "repro_journal_syncs_total"),
		"server.journal_bytes":       promSum(m, "repro_journal_bytes_total"),
		"server.store_bytes_written": promSum(m, "repro_store_dataset_bytes_written_total"),
		"server.lease_grants":        promSum(m, "repro_lease_events_total", `event="grant"`),
		"server.results_duplicate":   promSum(m, "repro_shard_results_total", `result="duplicate"`),
		"closure.residual_frac":      (tj.jobS - tj.blockingPath(d, pool)) / tj.jobS,
	}
	var claimS, uploadS, claims, empty, retries float64
	for _, w := range tj.workers {
		claimS += w.routes["claim"].Secs
		uploadS += w.routes["upload"].Secs
		claims += float64(w.claims)
		empty += float64(w.emptyClaims)
		retries += float64(w.stats.Retries)
	}
	out["client.claim_s"] = claimS
	out["client.upload_s"] = uploadS
	out["worker.claims"] = claims
	out["worker.retries"] = retries
	out["worker.empty_claim_frac"] = 0
	if claims > 0 {
		out["worker.empty_claim_frac"] = empty / claims
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Command jobbench is the repository's end-to-end benchmark: one
// closed-loop client submits a campaign spec to the real control plane
// (server.New behind a loopback listener, production defaults), waits
// for the job with apiclient.AwaitJob, fetches the dataset, then
// resubmits the spec and fetches it again as cache hits. Every
// dataset is checked against a pinned SHA-256. Workloads, their specs,
// pins and expectations live in workloads.json.
//
// Usage, from the repository root:
//
//	bash jobbench/run.sh --workload <name> [--seed 2015] [--seconds 25] [--trace 0|1]
//
// run.sh builds this module with its build cache under .bench_build.
// With --trace 0 the last stdout line reports the end-to-end metrics
// (job_s, cache_hit_s, cpu_s, peak_rss_mb, setup_s); with --trace 1 it
// reports the per-layer ledger of a traced run, measured from outside
// the program: timed calls into the layers' public functions, job
// timestamps, /v1/jobs/{id}/shards, /v1/metrics deltas and a timing
// http.RoundTripper. A readable report goes to stderr. The harness
// self-test is `go test` in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runBudget caps one run so it ends within the three minutes a run
// may take, however slow the program under test is.
const runBudget = 170 * time.Second

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"job_s", "s"},
	{"cache_hit_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"netsim.events", "count"},
	{"netsim.ns_per_event", "ns"},
	{"netsim.phantom_events", "count"},
	{"netsim.replayed_boundaries", "count"},
	{"netsim.wheel_cascades", "count"},
	{"aqm.enqueued", "count"},
	{"aqm.ce_marked", "count"},
	{"aqm.dropped", "count"},
	{"topology.compile_s", "s"},
	{"topology.instantiate_s", "s"},
	{"campaign.shards", "count"},
	{"campaign.shard_busy_s", "s"},
	{"campaign.shard_max_s", "s"},
	{"campaign.lane_imbalance", "ratio"},
	{"campaign.wire_bytes", "bytes"},
	{"campaign.wire_encode_s", "s"},
	{"campaign.wire_gzip_s", "s"},
	{"campaign.wire_decode_s", "s"},
	{"campaign.merge_s", "s"},
	{"dataset.write_s", "s"},
	{"dataset.bytes", "bytes"},
	{"server.store_put_s", "s"},
	{"server.queue_wait_s", "s"},
	{"client.submit_s", "s"},
	{"client.claim_s", "s"},
	{"client.upload_s", "s"},
	{"client.fetch_s", "s"},
	{"client.await_polls", "count"},
	{"server.http_requests", "count"},
	{"server.http_busy_s", "s"},
	{"server.journal_syncs", "count"},
	{"server.journal_bytes", "bytes"},
	{"server.store_bytes_written", "bytes"},
	{"server.lease_grants", "count"},
	{"server.results_duplicate", "count"},
	{"worker.claims", "count"},
	{"worker.empty_claim_frac", "ratio"},
	{"worker.retries", "count"},
	{"closure.residual_frac", "ratio"},
	{"trace.job_s", "s"},
	{"trace.untraced_job_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// options are one run's arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// result is one run's outcome: the operations and the metrics, with a
// readable report.
type result struct {
	outcome
	values map[string]float64
	report []string
}

func main() {
	var (
		opts     options
		trace    int
		rssChild bool
		want     string
	)
	flag.StringVar(&opts.workload, "workload", "", "workload name from workloads.json")
	flag.Int64Var(&opts.seed, "seed", 2015, "campaign seed of the submitted spec")
	flag.Float64Var(&opts.seconds, "seconds", 25, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.BoolVar(&rssChild, "rss-child", false, "run one sample and print its outcome (peak RSS child process)")
	flag.StringVar(&want, "want", "", "reference dataset SHA-256 (with --rss-child)")
	flag.Parse()
	opts.trace = trace == 1

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		os.Exit(1)
	}
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if opts.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	plan, err := loadPlan()
	if err != nil {
		fatal(err)
	}
	w, err := plan.workload(opts.workload)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()
	root, err := os.MkdirTemp("", "jobbench-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(root)
	h, err := newHarness(plan, w, opts.seed, root, os.Stderr)
	if err != nil {
		fatal(err)
	}

	if rssChild {
		h.want = want
		s := h.runSample(ctx, false)
		out, _ := json.Marshal(childResult{Attempted: s.attempted, Failed: s.failed, Errors: s.errs})
		fmt.Println(string(out))
		return
	}

	var res result
	if opts.trace {
		res = runTraced(ctx, h, opts)
	} else {
		res = runEndToEnd(ctx, h, opts)
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	printResult(os.Stdout, os.Stderr, opts, res, defs)
}

// runEndToEnd measures the end-to-end metrics: untraced cold jobs, each
// followed by its cache hits and by setup-only control planes, for the
// window; then the peak-RSS child processes.
func runEndToEnd(ctx context.Context, h *harness, opts options) result {
	var res result
	sum, err := directHash(h.body)
	res.add(h.setWant("campaign.Run", sum, err))

	var jobs, hits, cpus, setups, rss []float64
	deadline := time.Now().Add(time.Duration(opts.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		s := h.runSample(ctx, false)
		res.add(s.outcome)
		fmt.Fprintf(h.log, "jobbench: sample %d: job %.4fs cpu %.4fs setup %.5fs cache hit median %.4fs ok %v\n",
			i+1, s.job, s.cpu, s.setup, median(s.hits), s.ok)
		if s.setup > 0 {
			setups = append(setups, s.setup)
		}
		if s.ok {
			jobs = append(jobs, s.job)
			hits = append(hits, s.hits...)
			cpus = append(cpus, s.cpu)
		}
		for j := 0; j < h.plan.SetupsPerJob && ctx.Err() == nil; j++ {
			v, o := h.setupOnly(ctx)
			res.add(o)
			if o.failed == 0 {
				setups = append(setups, v)
			}
		}
		if ctx.Err() != nil {
			break
		}
	}
	for i := 0; i < h.w.RSSSamples && ctx.Err() == nil; i++ {
		v, o := h.runChild(ctx)
		res.add(o)
		if o.failed == 0 {
			rss = append(rss, v)
		}
	}

	res.values = map[string]float64{
		"job_s":       median(jobs),
		"cache_hit_s": median(hits),
		"cpu_s":       median(cpus),
		"peak_rss_mb": median(rss),
		"setup_s":     median(setups),
	}
	res.report = []string{
		"job_s: " + tail(jobs, "s"),
		"cache_hit_s: " + tail(hits, "s"),
		"cpu_s: " + tail(cpus, "s"),
		"peak_rss_mb: " + tail(rss, "MB"),
		"setup_s: " + tail(setups, "s"),
	}
	return res
}

// runTraced builds the per-layer ledger: the layer-by-layer
// decomposition first (it is also the reference run), then cold jobs
// alternating untraced and traced for the window. Service-side values
// are medians over the traced jobs.
func runTraced(ctx context.Context, h *harness, opts options) result {
	var res result
	d, err := decompose(h.body, filepath.Join(h.root, "decompose-store"))
	sum := ""
	if err == nil {
		sum = d.sha
	}
	res.add(h.setWant("layer decomposition", sum, err))

	var untraced, traced []float64
	var jobs []*tracedJob
	deadline := time.Now().Add(time.Duration(opts.seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		s := h.runSample(ctx, i%2 == 1)
		res.add(s.outcome)
		fmt.Fprintf(h.log, "jobbench: sample %d (traced %v): job %.4fs cpu %.4fs ok %v\n",
			i+1, s.trace != nil, s.job, s.cpu, s.ok)
		switch {
		case !s.ok:
		case s.trace != nil:
			s.trace.jobS = s.job
			traced = append(traced, s.job)
			jobs = append(jobs, s.trace)
		default:
			untraced = append(untraced, s.job)
		}
		if ctx.Err() != nil {
			break
		}
	}
	if d == nil {
		return res
	}

	res.values = map[string]float64{
		"netsim.events":              d.events,
		"netsim.ns_per_event":        d.busy / d.events * 1e9,
		"netsim.phantom_events":      d.phantom,
		"netsim.replayed_boundaries": d.replayed,
		"netsim.wheel_cascades":      d.cascades,
		"topology.compile_s":         d.compile,
		"topology.instantiate_s":     d.instantiate,
		"campaign.shards":            float64(d.shards),
		"campaign.shard_busy_s":      d.busy,
		"campaign.shard_max_s":       d.maxBusy,
		"campaign.wire_bytes":        d.wireBytes,
		"campaign.wire_encode_s":     d.encode,
		"campaign.wire_gzip_s":       d.gzip,
		"campaign.wire_decode_s":     d.decode,
		"campaign.merge_s":           d.merge,
		"dataset.write_s":            d.write,
		"dataset.bytes":              d.datasetBytes,
		"server.store_put_s":         d.put,
		"trace.job_s":                median(traced),
		"trace.untraced_job_s":       median(untraced),
		"trace.overhead_frac":        median(traced)/median(untraced) - 1,
	}
	pool := runtime.GOMAXPROCS(0)
	perJob := make(map[string][]float64)
	for _, tj := range jobs {
		for k, v := range tj.serviceLayers(d, pool) {
			perJob[k] = append(perJob[k], v)
		}
	}
	for k, vs := range perJob {
		res.values[k] = median(vs)
	}

	residual := res.values["closure.residual_frac"]
	res.report = append(res.report,
		fmt.Sprintf("traced cold jobs: %d; untraced: %d", len(traced), len(untraced)),
		fmt.Sprintf("tracing overhead: traced job_s %.4f s against untraced %.4f s (%+.1f%%)",
			median(traced), median(untraced), 100*res.values["trace.overhead_frac"]),
		fmt.Sprintf("closure: %.1f%% of job_s is not covered by submit, queue wait, compile, "+
			"slowest lane, merge, store and fetch", 100*residual))
	if h.dist {
		res.report = append(res.report, fmt.Sprintf(
			"wire serialization: encode %.4f s + gzip %.4f s + decode %.4f s = %.1f%% of traced job_s",
			d.encode, d.gzip, d.decode, 100*(d.encode+d.gzip+d.decode)/median(traced)))
	}
	if math.Abs(residual) > h.plan.ClosureFindingFrac {
		res.report = append(res.report, fmt.Sprintf(
			"FINDING: closure residual %.1f%% exceeds %.0f%%: the blocking-path layers do not explain job_s",
			100*residual, 100*h.plan.ClosureFindingFrac))
	}
	return res
}

// printResult writes the readable report to human and the result line
// to out. A metric that could not be measured reads 0 and the run is
// not correct.
func printResult(out, human io.Writer, opts options, res result, defs []metricDef) {
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metricOut, len(defs))
	correct := res.failed == 0
	mode := "end-to-end"
	if opts.trace {
		mode = "traced"
	}
	fmt.Fprintf(human, "jobbench: %s seed %d, %s run, window %gs: %d operations, %d failed (failed_frac %.4g)\n",
		opts.workload, opts.seed, mode, opts.seconds, res.attempted, res.failed,
		float64(res.failed)/math.Max(1, float64(res.attempted)))
	for _, e := range res.errs {
		fmt.Fprintln(human, "  failure:", e)
	}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			correct = false
			v = 0
		}
		metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(human, "  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, line := range res.report {
		fmt.Fprintln(human, "  "+line)
	}
	line, _ := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, max(1, res.attempted), res.failed, metrics})
	fmt.Fprintln(out, strings.TrimSpace(string(line)))
}

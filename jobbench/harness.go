package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/apiclient"
	"repro/internal/campaign"
	"repro/internal/dataset"
)

// opTimeout bounds one cold job plus its cache hits, so a hung job is
// a counted failure and the run still ends in time.
const opTimeout = 90 * time.Second

// harness runs one workload's samples.
type harness struct {
	plan Plan
	w    Workload
	seed int64
	body []byte
	dist bool
	// want is the SHA-256 every dataset must have.
	want string
	// root holds the per-sample data directories.
	root string
	next int
	log  io.Writer
}

// outcome is what one or more operations returned: attempted and
// failed operations, with the reason for each failure.
type outcome struct {
	attempted, failed int
	errs              []string
}

// fail counts one failed operation and its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

func (o *outcome) add(p outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.errs = append(o.errs, p.errs...)
}

// sample is one cold job and its cache hits on a fresh env.
type sample struct {
	outcome
	setup, job, cpu float64
	hits            []float64
	ok              bool // the cold job and every cache hit passed
	trace           *tracedJob
}

func newHarness(plan Plan, w Workload, seed int64, root string, log io.Writer) (*harness, error) {
	body, err := w.body(seed)
	if err != nil {
		return nil, err
	}
	return &harness{plan: plan, w: w, seed: seed, body: body, dist: w.distributed(),
		root: root, log: log}, nil
}

func (h *harness) dataDir() string {
	h.next++
	return filepath.Join(h.root, fmt.Sprintf("data-%03d", h.next))
}

// check verifies a dataset against the reference hash.
func (h *harness) check(data []byte) error {
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != h.want {
		return fmt.Errorf("dataset sha256 %s, want %s", got, h.want)
	}
	return nil
}

// setWant takes the reference hash from a direct run of the spec
// (campaign.Run, or the traced run's layer-by-layer decomposition)
// that happened before anything was timed. At the default seed the
// datasets must match the pinned hash instead, and so must the direct
// run. A failed reference is a failed operation.
func (h *harness) setWant(source, sum string, err error) outcome {
	o := outcome{attempted: 1}
	switch {
	case err != nil:
		o.fail("reference %s: %v", source, err)
	case h.seed == h.plan.DefaultSeed && sum != h.w.PinnedSHA256:
		o.fail("%s sha256 %s differs from the pinned %s", source, sum, h.w.PinnedSHA256)
	}
	h.want = sum
	if h.seed == h.plan.DefaultSeed {
		h.want = h.w.PinnedSHA256
	}
	return o
}

// directHash runs the spec through campaign.Run in this process and
// hashes the merged dataset as cmd/determinism does.
func directHash(body []byte) (string, error) {
	spec, err := campaign.ParseSpec(body)
	if err != nil {
		return "", err
	}
	cfg, err := spec.Config()
	if err != nil {
		return "", err
	}
	res, err := campaign.Run(cfg)
	if err != nil {
		return "", err
	}
	hash := sha256.New()
	if err := dataset.Write(hash, res.Dataset); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", hash.Sum(nil)), nil
}

// runSample runs one cold job and then its cache hits, each as a
// reprod run user would: submit, await, fetch. A cold job that fails
// ends the sample, so its cache hits are not attempted.
func (h *harness) runSample(ctx context.Context, traced bool) sample {
	s := sample{outcome: outcome{attempted: 1}}
	e, err := startEnv(ctx, h.dataDir(), traced)
	if err != nil {
		s.fail("start control plane: %v", err)
		return s
	}
	defer e.close()
	s.setup = e.setup.Seconds()
	if h.dist {
		e.startWorkers(h.plan.DistributedWorkers, h.plan.workerPoll())
	}
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()

	var before map[string]float64
	if traced {
		text, err := e.client.MetricsText(ctx)
		if err != nil {
			s.fail("scrape /v1/metrics: %v", err)
			return s
		}
		before = promSeries(text)
	}

	runtime.GC()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	job, data, err := h.submitAwaitFetch(ctx, e.client, true)
	s.job = time.Since(t0).Seconds()
	s.cpu = cpuSeconds() - cpu0
	if err == nil {
		err = h.check(data)
	}
	if err != nil {
		s.fail("cold job: %v", err)
		return s
	}
	if traced {
		if s.trace, err = collectTrace(ctx, e, job, before); err != nil {
			s.fail("trace: %v", err)
			return s
		}
	}

	// The cache hits need no workers; halting them first keeps their
	// idle polling out of cache_hit_s.
	if err := e.haltWorkers(); err != nil {
		s.fail("%v", err)
	}
	for i := 0; i < h.plan.CacheHitsPerJob; i++ {
		s.attempted++
		runtime.GC()
		t1 := time.Now()
		_, data, err = h.submitAwaitFetch(ctx, e.client, false)
		hit := time.Since(t1).Seconds()
		if err == nil {
			err = h.check(data)
		}
		if err != nil {
			s.fail("cache hit: %v", err)
			continue
		}
		s.hits = append(s.hits, hit)
	}
	s.ok = s.failed == 0
	if s.trace != nil {
		s.trace.addWorkers(e.workers)
	}
	return s
}

// submitAwaitFetch submits the workload's spec, waits for the job with
// apiclient.AwaitJob and fetches its dataset. A cold submission must
// queue fresh work (202); a repeat must be served from the store.
func (h *harness) submitAwaitFetch(ctx context.Context, c *apiclient.Client, cold bool) (apiclient.Job, []byte, error) {
	job, created, err := c.SubmitRaw(ctx, h.body)
	if err != nil {
		return job, nil, fmt.Errorf("submit: %w", err)
	}
	if cold && !created {
		return job, nil, fmt.Errorf("submit: job %s was not queued (state %s, cached %v)", job.ID, job.State, job.Cached)
	}
	if !cold && (created || !job.Cached) {
		return job, nil, fmt.Errorf("resubmit: job %s was not a cache hit (created %v, cached %v)", job.ID, created, job.Cached)
	}
	job, err = c.AwaitJob(ctx, job.ID, h.plan.awaitPoll())
	if err != nil {
		return job, nil, fmt.Errorf("await: %w", err)
	}
	data, err := c.JobDataset(ctx, job.ID)
	if err != nil {
		return job, nil, fmt.Errorf("fetch: %w", err)
	}
	return job, data, nil
}

// setupOnly opens and closes a control plane, for setup_s samples.
func (h *harness) setupOnly(ctx context.Context) (float64, outcome) {
	o := outcome{attempted: 1}
	e, err := startEnv(ctx, h.dataDir(), false)
	if err != nil {
		o.fail("start control plane: %v", err)
		return 0, o
	}
	e.close()
	return e.setup.Seconds(), o
}

// childResult is what an --rss-child process prints.
type childResult struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
}

// runChild runs one sample in a fresh process of this binary and
// returns that process's peak resident set in MiB.
func (h *harness) runChild(ctx context.Context) (float64, outcome) {
	o := outcome{attempted: 1}
	exe, err := os.Executable()
	if err != nil {
		o.fail("peak RSS child: %v", err)
		return 0, o
	}
	cmd := exec.CommandContext(ctx, exe, "--rss-child", "--workload", h.w.Name,
		"--seed", strconv.FormatInt(h.seed, 10), "--want", h.want)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = h.log
	if err := cmd.Run(); err != nil {
		o.fail("peak RSS child: %v", err)
		return 0, o
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		o.fail("peak RSS child output: %v", err)
		return 0, o
	}
	o = outcome{attempted: res.Attempted, failed: res.Failed, errs: res.Errors}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		o.fail("peak RSS child: no rusage")
		return 0, o
	}
	return float64(ru.Maxrss) / 1024, o // Maxrss is in KiB on Linux
}

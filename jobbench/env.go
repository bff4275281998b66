package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/apiclient"
	"repro/internal/server"
	"repro/internal/worker"
)

// env is one control plane as a user meets it: server.New with
// production defaults over its own data directory, behind a loopback
// listener, plus the in-process worker.Run workers of a distributed
// workload. Every cold job gets a fresh env, so the same spec is cold
// every time.
type env struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string
	dir    string
	// setup runs from server.New to the first healthz 200.
	setup time.Duration

	transport *http.Transport
	client    *apiclient.Client
	tracer    *tracer // nil when untraced

	stopWorkers context.CancelFunc
	workers     []*workerRun
}

// workerRun is one worker.Run goroutine and what it returned.
type workerRun struct {
	id        string
	transport *http.Transport
	tracer    *tracer
	done      chan struct{}
	stats     worker.Stats
	err       error
}

// newHTTPClient returns a client with its own connection pool and, when
// traced, a timing RoundTripper in front of it.
func newHTTPClient(traced bool) (*http.Client, *http.Transport, *tracer) {
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	if !traced {
		return &http.Client{Transport: tr}, tr, nil
	}
	t := newTracer()
	return &http.Client{Transport: &timingRT{next: tr, t: t}}, tr, t
}

// startEnv opens a control plane on dir and waits until it is healthy.
func startEnv(ctx context.Context, dir string, traced bool) (*env, error) {
	start := time.Now()
	srv, err := server.New(server.Config{DataDir: dir})
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &env{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		dir:    dir,
	}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns ErrServerClosed from close
	}()
	var hc *http.Client
	hc, e.transport, e.tracer = newHTTPClient(traced)
	e.client = apiclient.NewWithHTTPClient(e.base, hc)
	if err := awaitHealthy(ctx, hc, e.base); err != nil {
		e.close()
		return nil, err
	}
	e.setup = time.Since(start)
	return e, nil
}

// awaitHealthy polls GET /v1/healthz until it answers 200.
func awaitHealthy(ctx context.Context, hc *http.Client, base string) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("healthz never answered 200: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// startWorkers launches n worker.Run goroutines against the env with
// the reprod worker CLI defaults, except for the idle poll interval.
func (e *env) startWorkers(n int, poll time.Duration) {
	ctx, cancel := context.WithCancel(context.Background())
	e.stopWorkers = cancel
	for i := 0; i < n; i++ {
		hc, transport, t := newHTTPClient(e.tracer != nil)
		wr := &workerRun{
			id:        fmt.Sprintf("w%d", i+1),
			transport: transport,
			tracer:    t,
			done:      make(chan struct{}),
		}
		cfg := worker.Config{
			Client:         apiclient.NewWithHTTPClient(e.base, hc),
			ID:             wr.id,
			Batch:          2,
			Poll:           poll,
			MaxRetries:     8,
			RetryBase:      100 * time.Millisecond,
			RetryCap:       5 * time.Second,
			RequestTimeout: 30 * time.Second,
		}
		e.workers = append(e.workers, wr)
		go func() {
			defer close(wr.done)
			wr.stats, wr.err = worker.Run(ctx, cfg)
		}()
	}
}

// haltWorkers stops the workers, waits for them, and returns the first
// error any of them hit other than being stopped.
func (e *env) haltWorkers() error {
	if e.stopWorkers == nil {
		return nil
	}
	e.stopWorkers()
	e.stopWorkers = nil
	var first error
	for _, wr := range e.workers {
		<-wr.done
		wr.transport.CloseIdleConnections()
		if wr.err != nil && !errors.Is(wr.err, context.Canceled) && first == nil {
			first = fmt.Errorf("worker %s: %w", wr.id, wr.err)
		}
	}
	return first
}

// close stops everything the env started, waits for it, and removes
// the data directory.
func (e *env) close() {
	_ = e.haltWorkers() // callers that care read the error first
	_ = e.hs.Close()
	<-e.served
	e.srv.Close()
	e.transport.CloseIdleConnections()
	_ = os.RemoveAll(e.dir)
}

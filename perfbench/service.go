package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"reusetool/internal/cluster"
	"reusetool/internal/server"
	"reusetool/pkg/client"
)

const (
	// clientPoll paces the benchmark's job polling. It sits far below the
	// cold median, so latency is the daemon's, not the poll grid's (the
	// client's own Wait default of 100ms would set every latency).
	clientPoll = 2 * time.Millisecond
	// coordinatorPoll is cluster.Config's default worker-poll pacing,
	// recorded with every run; the benchmark leaves it at the default.
	coordinatorPoll = 50 * time.Millisecond
	// clusterCacheEntries sizes each cluster worker's memory tier below
	// the warm population, so some warm hits come from the shared tier.
	clusterCacheEntries = 8
	opTimeout           = 60 * time.Second
)

// svcEnv is a daemon (service) or a coordinator in front of two
// single-worker daemons sharing a third as their remote cache tier
// (cluster), all in this process, driven through pkg/client.
type svcEnv struct {
	cli      *client.Client
	modelKey string
	// workers are the daemons that run jobs, whose cache counters give
	// the hit ratios.
	workers []*server.Server
	// direct maps each worker's base URL to a client that bypasses the
	// coordinator (cluster only).
	direct map[string]*client.Client
	coord  *cluster.Coordinator
	stop   []func()
}

// buildDir is where the benchmark keeps its scratch files, inside the
// checkout.
const buildDir = ".bench_build"

func setupService(clustered bool) (e *svcEnv, err error) {
	e = &svcEnv{direct: map[string]*client.Client{}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "cache-")
	if err != nil {
		return nil, err
	}
	e.stop = append(e.stop, func() { os.RemoveAll(dir) })
	start := func(cfg server.Config) (*server.Server, string, error) {
		s, err := server.New(cfg)
		if err != nil {
			return nil, "", err
		}
		ts := httptest.NewServer(s.Handler())
		e.stop = append(e.stop, func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = s.Drain(ctx) // teardown: a drain error leaves nothing to report
		})
		return s, ts.URL, nil
	}
	noRetry := client.WithRetry(client.Retry{Attempts: 1})
	if !clustered {
		s, url, err := start(server.Config{CacheDir: filepath.Join(dir, "daemon")})
		if err != nil {
			return nil, err
		}
		e.workers = []*server.Server{s}
		e.cli = client.New(url, noRetry)
	} else {
		_, cacheURL, err := start(server.Config{CacheDir: filepath.Join(dir, "tier")})
		if err != nil {
			return nil, err
		}
		var peers []string
		for i := 0; i < 2; i++ {
			s, url, err := start(server.Config{Workers: 1, CacheEntries: clusterCacheEntries, RemoteCache: cacheURL})
			if err != nil {
				return nil, err
			}
			e.workers = append(e.workers, s)
			peers = append(peers, url)
			e.direct[url] = client.New(url, noRetry)
		}
		c, err := cluster.New(cluster.Config{Peers: peers})
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		c.Start(ctx)
		ts := httptest.NewServer(c.Handler())
		e.stop = append(e.stop, func() {
			dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer dcancel()
			_ = c.Drain(dctx) // teardown: a drain error leaves nothing to report
			cancel()
			ts.Close()
		})
		e.coord = c
		e.cli = client.New(ts.URL, noRetry)
		defer func() {
			if err == nil {
				err = e.awaitRemoteTier(cacheURL)
			}
		}()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*opTimeout)
	defer cancel()
	job, err := e.cli.Fit(ctx, client.FitRequest{Workload: "fig2", TrainParams: trainParams})
	if err == nil {
		job, err = await(ctx, e.cli, job, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}
	e.modelKey = job.Key

	warm := warmPool()
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(warm); i += 2 {
				job, err := e.cli.Analyze(ctx, e.request(warm[i]))
				if err == nil {
					_, err = await(ctx, e.cli, job, nil)
				}
				if err != nil {
					errs <- fmt.Errorf("warm-up %s: %w", warm[i].id("svc"), err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	return e, nil
}

// awaitRemoteTier waits until the shared tier holds the warm population:
// workers push to it asynchronously, and a warm key evicted from a
// worker's memory tier must be there to hit.
func (e *svcEnv) awaitRemoteTier(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for _, o := range warmPool() {
		key, err := server.CacheKeyFor(e.request(o))
		if err != nil {
			return err
		}
		for {
			resp, err := http.Get(base + "/v1/cache/" + key)
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("remote tier never received %s", o.id("svc"))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// close stops every daemon, the coordinator and their listeners, and
// removes the cache directory.
func (e *svcEnv) close() {
	for i := len(e.stop) - 1; i >= 0; i-- {
		e.stop[i]()
	}
	e.stop = nil
}

func (e *svcEnv) request(o op) client.AnalyzeRequest {
	f := families[o.Prog]
	req := client.AnalyzeRequest{Workload: f.workload, Params: o.Params}
	if f.file != "" {
		req.Program = sources[f.file]
	}
	if o.Kind == kindStatic {
		req.Mode = "static"
	}
	return req
}

// await polls a job to a terminal state every clientPoll, counting the
// polls into *polls when it is non-nil.
func await(ctx context.Context, c *client.Client, job *client.Job, polls *int) (*client.Job, error) {
	var err error
	for !job.Status.Terminal() {
		select {
		case <-ctx.Done():
			cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
			_, _ = c.Cancel(cctx, job.ID) // best effort: the job is abandoned either way
			cancel()
			return nil, ctx.Err()
		case <-time.After(clientPoll):
		}
		if polls != nil {
			*polls++
		}
		if job, err = c.Job(ctx, job.ID); err != nil {
			return nil, err
		}
	}
	if job.Status != client.JobDone {
		return nil, fmt.Errorf("job %s %s: %s", job.ID, job.Status, job.Error)
	}
	return job, nil
}

// jobTimes are the daemon's stamps on a finished job.
type jobTimes struct{ submitted, started, finished time.Time }

func parseJobTimes(j *client.Job) *jobTimes {
	var t jobTimes
	var err error
	if t.submitted, err = time.Parse(time.RFC3339Nano, j.Submitted); err != nil {
		return nil
	}
	if t.started, err = time.Parse(time.RFC3339Nano, j.Started); err != nil {
		return nil
	}
	if t.finished, err = time.Parse(time.RFC3339Nano, j.Finished); err != nil {
		return nil
	}
	return &t
}

var errCacheOutcome = errors.New("cache outcome contradicts the operation kind")

func (e *svcEnv) run(ctx context.Context, o op) result {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	start := time.Now()
	var r result
	switch o.Kind {
	case kindCold, kindWarm, kindStatic:
		var job *client.Job
		job, r.err = e.cli.Analyze(ctx, e.request(o))
		if r.err == nil {
			job, r.err = await(ctx, e.cli, job, &r.polls)
		}
		r.latency = time.Since(start)
		if r.err != nil {
			return r
		}
		r.digest, r.cacheHit, r.job = replyDigest(job.Report, job.Result), job.CacheHit, parseJobTimes(job)
		switch {
		case r.cacheHit != (o.Kind == kindWarm):
			r.err = errCacheOutcome
		case job.Rerouted > 0:
			r.err = fmt.Errorf("job %s rerouted %d times", job.ID, job.Rerouted)
		case o.Kind == kindCold:
			var doc struct {
				Accesses uint64 `json:"accesses"`
			}
			if err := json.Unmarshal(job.Result, &doc); err != nil {
				r.err = fmt.Errorf("decode result: %w", err)
			}
			r.accesses = doc.Accesses
		}
	case kindCheck:
		f := families[o.Prog]
		req := client.CheckRequest{Workload: f.workload, Params: o.Params}
		if f.file != "" {
			req.Program = sources[f.file]
		}
		var resp *client.CheckResponse
		resp, r.err = e.cli.Check(ctx, req)
		r.latency = time.Since(start)
		if r.err == nil {
			r.digest, r.err = jsonDigest(resp.Diagnostics)
		}
	case kindPredict:
		var resp *client.PredictResponse
		resp, r.err = e.cli.Predict(ctx, client.PredictRequest{Model: e.modelKey, Params: o.Params, Level: reportLevel})
		r.latency = time.Since(start)
		if r.err == nil {
			var levels [][4]string
			for _, l := range resp.Levels {
				levels = append(levels, [4]string{l.Level, g64(l.TotalMisses), g64(l.ColdMisses), g64(l.CapacityMisses)})
			}
			r.digest = missesDigest(levels)
		}
	}
	return r
}

// cacheCounts sums the workers' analyze-path cache counters.
type cacheCounts struct{ lookups, disk, remote, hits uint64 }

func (e *svcEnv) cacheCounts() cacheCounts {
	var c cacheCounts
	for _, s := range e.workers {
		m := s.Metrics()
		c.hits += m.CacheHits.Load()
		c.lookups += m.CacheHits.Load() + m.CacheMisses.Load()
		c.disk += m.CacheDiskHits.Load()
		c.remote += m.RemoteHits.Load()
	}
	return c
}

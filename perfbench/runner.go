package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// executor runs one operation on a surface (CLI or API).
type executor interface {
	run(ctx context.Context, o op) result
}

// result is what one operation hands the runner.
type result struct {
	latency  time.Duration
	digest   string
	accesses uint64 // memory accesses a dynamic analysis analyzed
	err      error

	// API surface only.
	cacheHit bool
	polls    int
	job      *jobTimes
}

type record struct {
	op op
	result
	ok bool
}

type loadResult struct {
	records []record
	wall    time.Duration
	// ranOut is set when the plan ran out of operations before the
	// deadline: the run then measured a shorter load than it was asked to.
	ranOut bool
}

// runLoad is a closed loop: each of clients callers takes the next batch
// of operations, runs it, and takes another until the deadline has
// passed or the batches run out. Batches never split, so a CLI pass
// always runs whole. Every operation goes through the gate; with a
// tracer each becomes a root span, with the daemon's queue and run
// intervals as its children.
func runLoad(ex executor, g *gate, surface string, batches [][]op, clients int, d time.Duration, tr *tracer) loadResult {
	var (
		next   atomic.Int64
		ranOut atomic.Bool
		mu     sync.Mutex
		out    loadResult
		wg     sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				b := int(next.Add(1)) - 1
				if b >= len(batches) {
					ranOut.Store(true)
					return
				}
				for i, o := range batches[b] {
					t0 := time.Now()
					r := ex.run(context.Background(), o)
					ok := g.check(o.id(surface), r.digest, r.err)
					req := fmt.Sprintf("%d.%d", b, i)
					root := tr.add(-1, req, "op:"+o.class(), t0, t0.Add(r.latency), false)
					if j := r.job; j != nil && !r.cacheHit {
						tr.add(root, req, "server.queue", j.submitted, j.started, false)
						tr.add(root, req, "server.run", j.started, j.finished, false)
					}
					mu.Lock()
					out.records = append(out.records, record{op: o, result: r, ok: ok})
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	out.wall, out.ranOut = time.Since(start), ranOut.Load()
	return out
}

// latencies returns the latencies in ms of the passed operations of one
// kind, or of all kinds for "".
func (l loadResult) latencies(kind string) []float64 {
	var out []float64
	for _, r := range l.records {
		if r.ok && (kind == "" || r.op.Kind == kind) {
			out = append(out, ms(r.latency))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the untraced metrics. On the CLI surface analysis
// throughput is accesses over the analyses' own wall time (build to
// rendered report); on the API surface it is cold accesses over the
// load's wall time.
func endToEnd(l loadResult, setupS float64, surface string) map[string]metric {
	var acc uint64
	var coldTime time.Duration
	passed := 0
	for _, r := range l.records {
		if !r.ok {
			continue
		}
		passed++
		if r.op.Kind == kindCold {
			acc += r.accesses
			coldTime += r.latency
		}
	}
	span, all := l.wall, l.latencies("")
	if surface == "cli" {
		span = coldTime
	}
	return map[string]metric{
		"setup_s":        {setupS, "s"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
		"maccess_per_s":  {float64(acc) / 1e6 / span.Seconds(), "Maccess/s"},
		"req_per_s":      {float64(passed) / l.wall.Seconds(), "1/s"},
		"p50_ms":         {percentile(all, 50), "ms"},
		"p90_ms":         {percentile(all, 90), "ms"},
		"cold_p50_ms":    {percentile(l.latencies(kindCold), 50), "ms"},
		"warm_p50_ms":    {percentile(l.latencies(kindWarm), 50), "ms"},
		"static_p50_ms":  {percentile(l.latencies(kindStatic), 50), "ms"},
		"check_p50_ms":   {percentile(l.latencies(kindCheck), 50), "ms"},
		"predict_p50_ms": {percentile(l.latencies(kindPredict), 50), "ms"},
	}
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"reusetool/internal/cache"
	"reusetool/internal/core"
	"reusetool/internal/depend"
	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/lang"
	"reusetool/internal/metrics"
	"reusetool/internal/persist"
	"reusetool/internal/pipeline"
	"reusetool/internal/predict"
	"reusetool/internal/reusecheck"
	"reusetool/internal/reusedist"
	"reusetool/internal/server"
	"reusetool/internal/staticanalysis"
	"reusetool/internal/staticreuse"
	"reusetool/internal/trace"
)

// The traced run replays one operation of each class the load ran,
// calling each layer's public functions in the order the user's path
// calls them and timing every call as a span. It never records events:
// a trace.Event is 32 bytes, so the sampled inputs would need gigabytes;
// it differences whole calls instead (the interpreter into a
// discarding handler against the interpreter into the collector).

// replay is one replayed operation.
type replay struct {
	op       op
	root     int     // root span index
	direct   float64 // ms, the same operation untraced through the top-level API
	accesses uint64
	distinct int
	admitted int
	rate     float64
	bytes    int
}

type prober struct {
	tr      *tracer
	hier    *cache.Hierarchy
	surface string
	pins    map[string]string
	cli     *cliEnv
	svc     *svcEnv
	model   *predict.Model
	fitMS   float64
	bad     []string // replays whose output differed from the pinned digest
}

func (p *prober) parallel() bool { return p.surface == "cli" }

// stage times f as a child of root: on the user's path unless extra.
func (p *prober) stage(root int, o op, name string, extra bool, f func() error) error {
	var err error
	p.tr.time(root, o.id(p.surface), name, extra, func() { err = f() })
	if err != nil {
		return fmt.Errorf("%s: %s: %w", o.id(p.surface), name, err)
	}
	return nil
}

func (p *prober) verify(o op, digest string) {
	if want := p.pins[o.id(p.surface)]; digest != want {
		p.bad = append(p.bad, o.id(p.surface))
	}
}

// front is the path's first stage: the CLI builds the program; the
// daemon resolves and keys the request, which builds it too. The
// program is rebuilt for the later stages outside the path, timed as
// lang.parse (build or parse plus the canonical Format the key hashes).
func (p *prober) front(root int, o op) (*ir.Program, func(*interp.Machine) error, error) {
	var prog *ir.Program
	var init func(*interp.Machine) error
	if p.surface == "svc" {
		if err := p.stage(root, o, "server.key", false, func() error {
			_, err := server.CacheKeyFor(p.svc.request(o))
			return err
		}); err != nil {
			return nil, nil, err
		}
	} else if err := p.stage(root, o, "build", false, func() (err error) {
		prog, init, err = build(o.Prog)
		return err
	}); err != nil {
		return nil, nil, err
	}
	err := p.stage(root, o, "lang.parse", true, func() (err error) {
		if prog, init, err = build(o.Prog); err == nil {
			lang.Format(prog)
		}
		return err
	})
	return prog, init, err
}

func (p *prober) newCollector(info *ir.Info, o op) *reusedist.Collector {
	base := reusedist.Config{Sampling: o.Sample}
	if m, err := interp.Layout(info, o.Params); err == nil {
		base.Hints.FootprintBytes = m.DataFootprint()
	}
	base.Hints.Refs, base.Hints.Scopes = len(info.Refs), info.Scopes.Len()
	return reusedist.NewCollectorWith(p.hier.Granularities(), base)
}

// finishReport runs the report stages both paths share and, on the
// daemon's path, the JSON and persist encodings it caches.
func (p *prober) finishReport(root int, o op, res *core.Result, r *replay, snap func() *persist.Dataset) (string, error) {
	if err := p.stage(root, o, "reusecheck", true, func() error {
		reusecheck.Check(res.Info, reusecheck.Options{Params: o.Params, AssumeInitialized: true, Hier: p.hier, Level: reportLevel})
		return nil
	}); err != nil {
		return "", err
	}
	var report bytes.Buffer
	if err := p.stage(root, o, "report.summary", false, func() error {
		return res.WriteSummary(&report, reportLevel, reportShare)
	}); err != nil {
		return "", err
	}
	svc := p.surface == "svc"
	var doc []byte
	if err := p.stage(root, o, "report.json", !svc, func() (err error) {
		doc, err = res.EncodeJSON()
		return err
	}); err != nil {
		return "", err
	}
	var artifact bytes.Buffer
	if err := p.stage(root, o, "persist.save", !svc, func() error {
		return persist.Save(&artifact, snap())
	}); err != nil {
		return "", err
	}
	r.bytes = artifact.Len()
	if svc {
		return replyDigest(report.String(), doc), nil
	}
	return analysisDigest(res.Collector.Fingerprint(), report.Bytes()), nil
}

func (p *prober) replayCold(o op) (*replay, error) {
	req := o.id(p.surface)
	r := &replay{op: o, root: p.tr.begin(-1, req, "replay:"+o.class())}
	prog, init, err := p.front(r.root, o)
	if err != nil {
		return nil, err
	}
	var info *ir.Info
	if err := p.stage(r.root, o, "ir.finalize", false, func() (err error) {
		info, err = prog.Finalize()
		return err
	}); err != nil {
		return nil, err
	}
	var opts []interp.Option
	if init != nil {
		opts = append(opts, interp.WithInit(init))
	}
	var run *interp.Result
	if err := p.stage(r.root, o, "interp", true, func() (err error) {
		run, err = interp.Run(info, o.Params, trace.Discard{}, opts...)
		return err
	}); err != nil {
		return nil, err
	}
	r.accesses = run.Accesses
	col := p.newCollector(info, o)
	if err := p.stage(r.root, o, "interp+reusedist", p.parallel(), func() (err error) {
		run, err = interp.Run(info, o.Params, col, opts...)
		return err
	}); err != nil {
		return nil, err
	}
	if err := p.stage(r.root, o, "interp+pipeline", !p.parallel(), func() error {
		c := p.newCollector(info, o)
		handlers := make([]trace.Handler, len(c.Engines))
		for i, e := range c.Engines {
			handlers[i] = e
		}
		f := pipeline.NewFanout(pipeline.Config{}, handlers...)
		prun, err := interp.Run(info, o.Params, f, opts...)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if p.parallel() {
			col, run = c, prun
		}
		return err
	}); err != nil {
		return nil, err
	}
	var static *staticanalysis.Result
	var rep *metrics.Report
	var deps *depend.Analysis
	if err := p.stage(r.root, o, "reusedist.finish", false, func() error { col.Finish(); return nil }); err != nil {
		return nil, err
	}
	for _, e := range col.Engines {
		r.distinct += e.DistinctBlocks()
		s := e.Sample()
		r.admitted += s.AdmittedBlocks
		r.rate = max(r.rate, float64(s.Rate))
	}
	if r.rate == 0 {
		r.rate = 1
	}
	if err := p.stage(r.root, o, "staticanalysis", false, func() error {
		static = staticanalysis.Analyze(info, run.Machine, staticanalysis.TripsFromRun(run, 1))
		return nil
	}); err != nil {
		return nil, err
	}
	if err := p.stage(r.root, o, "metrics.build", false, func() (err error) {
		rep, err = metrics.Build(info, col, static, p.hier, metrics.Model(0))
		return err
	}); err != nil {
		return nil, err
	}
	if err := p.stage(r.root, o, "depend", false, func() error { deps = depend.Analyze(info, o.Params); return nil }); err != nil {
		return nil, err
	}
	res := &core.Result{Info: info, Hier: p.hier, Report: rep, Static: static, Collector: col, Run: run, Deps: deps, Params: o.Params}
	digest, err := p.finishReport(r.root, o, res, r, func() *persist.Dataset {
		return persist.Snapshot(col, prog.Name, run.Trips)
	})
	if err != nil {
		return nil, err
	}
	p.tr.finish(r.root)
	p.verify(o, digest)
	return r, nil
}

func (p *prober) replayStatic(o op) (*replay, error) {
	r := &replay{op: o, root: p.tr.begin(-1, o.id(p.surface), "replay:"+o.class())}
	prog, _, err := p.front(r.root, o)
	if err != nil {
		return nil, err
	}
	var info *ir.Info
	if err := p.stage(r.root, o, "ir.finalize", false, func() (err error) {
		info, err = prog.Finalize()
		return err
	}); err != nil {
		return nil, err
	}
	var est *staticreuse.Result
	if err := p.stage(r.root, o, "staticreuse", false, func() (err error) {
		est, err = staticreuse.Estimate(info, p.hier, staticreuse.Options{Params: o.Params})
		return err
	}); err != nil {
		return nil, err
	}
	var rep *metrics.Report
	var deps *depend.Analysis
	if err := p.stage(r.root, o, "metrics.build", false, func() (err error) {
		rep, err = metrics.Build(info, est.Collector, est.Static, p.hier, metrics.Model(0))
		return err
	}); err != nil {
		return nil, err
	}
	if err := p.stage(r.root, o, "depend", false, func() error { deps = depend.Analyze(info, o.Params); return nil }); err != nil {
		return nil, err
	}
	res := &core.Result{Info: info, Hier: p.hier, Report: rep, Static: est.Static, Collector: est.Collector, Deps: deps, Params: o.Params}
	digest, err := p.finishReport(r.root, o, res, r, func() *persist.Dataset {
		return persist.Snapshot(est.Collector, prog.Name, nil)
	})
	if err != nil {
		return nil, err
	}
	p.tr.finish(r.root)
	p.verify(o, digest)
	return r, nil
}

// replayWarm is -load on the CLI; on the daemon a warm hit runs no
// layer below the resolve and key, so that is all it replays.
func (p *prober) replayWarm(o op) (*replay, error) {
	r := &replay{op: o, root: p.tr.begin(-1, o.id(p.surface), "replay:"+o.class())}
	prog, _, err := p.front(r.root, o)
	if err != nil {
		return nil, err
	}
	if p.surface == "cli" {
		var d *persist.Dataset
		if err := p.stage(r.root, o, "persist.load", false, func() (err error) {
			d, err = persist.Load(bytes.NewReader(p.cli.saved[o.savedKey()]))
			return err
		}); err != nil {
			return nil, err
		}
		var res *core.Result
		if err := p.stage(r.root, o, "pipeline.saved", false, func() (err error) {
			res, err = core.Pipeline{
				Source:  core.SavedSource{Prog: prog, Collector: d.Collector(), Trips: d.TripsFunc(1)},
				Options: core.Options{Hierarchy: p.hier, Params: o.Params},
			}.Run()
			return err
		}); err != nil {
			return nil, err
		}
		var report bytes.Buffer
		if err := p.stage(r.root, o, "report.summary", false, func() error {
			return res.WriteSummary(&report, reportLevel, reportShare)
		}); err != nil {
			return nil, err
		}
		p.verify(o, analysisDigest(res.Collector.Fingerprint(), report.Bytes()))
	}
	p.tr.finish(r.root)
	return r, nil
}

func (p *prober) replayCheck(o op) (*replay, error) {
	r := &replay{op: o, root: p.tr.begin(-1, o.id(p.surface), "replay:"+o.class())}
	var info *ir.Info
	var opts reusecheck.Options
	if err := p.stage(r.root, o, "build", false, func() (err error) {
		info, opts, err = checkTarget(o)
		return err
	}); err != nil {
		return nil, err
	}
	opts.Hier = p.hier
	var diags []reusecheck.Diagnostic
	if err := p.stage(r.root, o, "reusecheck", false, func() error { diags = reusecheck.Check(info, opts); return nil }); err != nil {
		return nil, err
	}
	p.tr.finish(r.root)
	if p.surface == "cli" {
		digest, err := jsonDigest(diags)
		if err != nil {
			return nil, err
		}
		p.verify(o, digest)
	}
	return r, nil
}

// predictRepeats makes the microsecond predict call long enough to time.
const predictRepeats = 200

func (p *prober) replayPredict(o op) (*replay, error) {
	r := &replay{op: o, root: p.tr.begin(-1, o.id(p.surface), "replay:"+o.class())}
	if err := p.stage(r.root, o, "predict.serve", false, func() error {
		for i := 0; i < predictRepeats; i++ {
			pred, err := p.model.Predict(o.Params)
			if err != nil {
				return err
			}
			pred.LevelMisses(p.hier)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	p.tr.finish(r.root)
	return r, nil
}

// directMS times the operation untraced through the top-level API: the
// same entry points the CLI or the daemon's job calls.
func (p *prober) directMS(o op) (float64, error) {
	start := time.Now()
	var err error
	switch {
	case p.surface == "cli" && o.Kind == kindWarm:
		_, _, err = p.cli.load(o)
	case p.surface == "cli":
		err = p.cli.run(context.Background(), o).err
	case o.Kind == kindCold || o.Kind == kindStatic:
		err = p.daemonJob(o)
	case o.Kind == kindWarm:
		_, err = server.CacheKeyFor(p.svc.request(o))
	case o.Kind == kindCheck:
		var info *ir.Info
		var opts reusecheck.Options
		if info, opts, err = checkTarget(o); err == nil {
			opts.Hier = p.hier
			reusecheck.Check(info, opts)
		}
	case o.Kind == kindPredict:
		for i := 0; i < predictRepeats && err == nil; i++ {
			var pred *predict.Prediction
			if pred, err = p.model.Predict(o.Params); err == nil {
				pred.LevelMisses(p.hier)
			}
		}
	}
	return ms(time.Since(start)), err
}

// daemonJob is what a daemon does for a cache miss: resolve and key,
// then the sequential pipeline, the report, the JSON and the persist
// stream it caches.
func (p *prober) daemonJob(o op) error {
	if _, err := server.CacheKeyFor(p.svc.request(o)); err != nil {
		return err
	}
	prog, init, err := build(o.Prog)
	if err != nil {
		return err
	}
	var src core.Source = core.DynamicSource{Prog: prog}
	if o.Kind == kindStatic {
		src = core.StaticSource{Prog: prog}
	}
	res, err := core.Pipeline{Source: src, Options: core.Options{Hierarchy: p.hier, Params: o.Params, Init: init}}.Run()
	if err != nil {
		return err
	}
	var report bytes.Buffer
	if err := res.WriteSummary(&report, reportLevel, reportShare); err != nil {
		return err
	}
	if _, err := res.EncodeJSON(); err != nil {
		return err
	}
	var trips map[trace.ScopeID]interp.TripStat
	if res.Run != nil {
		trips = res.Run.Trips
	}
	return persist.Save(&bytes.Buffer{}, persist.Snapshot(res.Collector, prog.Name, trips))
}

func (p *prober) replay(o op) (*replay, error) {
	var r *replay
	var err error
	switch o.Kind {
	case kindCold:
		r, err = p.replayCold(o)
	case kindWarm:
		r, err = p.replayWarm(o)
	case kindStatic:
		r, err = p.replayStatic(o)
	case kindCheck:
		r, err = p.replayCheck(o)
	case kindPredict:
		r, err = p.replayPredict(o)
	}
	if err != nil {
		return nil, err
	}
	if r.direct, err = p.directMS(o); err != nil {
		return nil, err
	}
	return r, nil
}

// classStat aggregates one class (kind and program) of the load.
type classStat struct {
	count  int
	lat    []float64 // ms, passed operations
	first  *op       // the first passed operation, which is replayed
	medMS  float64
	replay *replay
}

// tracedPass replays one passed operation of each class the load ran
// and returns the per-layer metrics and whether every replay matched
// its pinned digest. It prints the probe verdicts and the shares, and
// writes the spans.
func tracedPass(workload, surface string, seed int64, e *env, l loadResult, g *gate, tr *tracer,
	pins map[string]string, before cacheCounts, rerouted0 uint64) (map[string]metric, bool, error) {
	extra := zeroLayers("server.queue_wait_ms", "server.run_ms", "server.http_ms", "server.hit_ratio.memory",
		"server.hit_ratio.disk", "server.hit_ratio.remote", "client.polls_per_job",
		"cluster.hop_ms", "cluster.ring_ns", "cluster.jobs_rerouted")
	if e.svc != nil {
		for k, v := range serverMetrics(l, tr.snapshot(), before, e.svc.cacheCounts()) {
			extra[k] = v
		}
	}
	p := &prober{tr: tr, hier: cache.ScaledItanium2(), surface: surface, pins: pins, cli: e.cli, svc: e.svc}
	var fit time.Duration
	var err error
	if p.model, err = fitModel(p.hier, &fit); err != nil {
		return nil, false, fmt.Errorf("fit: %w", err)
	}
	p.fitMS = ms(fit)

	classes := map[string]*classStat{}
	var names []string
	var warm []op
	for _, r := range l.records {
		c := r.op.class()
		cs, ok := classes[c]
		if !ok {
			cs = &classStat{}
			classes[c] = cs
			names = append(names, c)
		}
		cs.count++
		if !r.ok {
			continue
		}
		cs.lat = append(cs.lat, ms(r.latency))
		if cs.first == nil {
			o := r.op
			cs.first = &o
		}
		if r.op.Kind == kindWarm && len(warm) < 4 {
			warm = append(warm, r.op)
		}
	}
	sort.Strings(names)
	for _, c := range names {
		cs := classes[c]
		cs.medMS = percentile(cs.lat, 50)
		if cs.first == nil {
			continue
		}
		if cs.replay, err = p.replay(*cs.first); err != nil {
			return nil, false, fmt.Errorf("replay: %w", err)
		}
	}
	if e.svc != nil && e.svc.coord != nil {
		hop, err := clusterHop(e.svc, warm)
		if err != nil {
			return nil, false, fmt.Errorf("cluster hop: %w", err)
		}
		for k, v := range hop {
			extra[k] = v
		}
		extra["cluster.jobs_rerouted"] = metric{float64(e.svc.coord.Metrics().JobsRerouted.Load() - rerouted0), "count"}
	}
	var probeWarm map[string]float64
	if workload == "service" {
		if probeWarm, err = p.warmProbe(); err != nil {
			return nil, false, fmt.Errorf("warm probe: %w", err)
		}
	}

	m, verdicts := layerMetrics(workload, classes, tr.snapshot(), p, g, extra, probeWarm)
	for _, v := range verdicts {
		fmt.Println(v)
	}
	for _, b := range p.bad {
		fmt.Fprintln(os.Stderr, "replay differs from the pinned digest:", b)
	}
	fmt.Printf("shares of %s: interp %.3f, reusedist %.3f, reusecheck+report %.3f, server %.3f; unattributed gap %.3f, tracing overhead %.3f\n",
		workload, m["share.interp"].Value, m["share.reusedist"].Value, m["share.report"].Value, m["share.server"].Value,
		m["trace.gap_frac"].Value, m["trace.overhead_frac"].Value)
	path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	if err := tr.write(path); err != nil {
		return nil, false, err
	}
	fmt.Printf("spans: %s\n", path)
	return m, len(p.bad) == 0, nil
}

// layerMetrics turns the replays into the per-layer metrics, the
// workload's shares and the tracing checks.
func layerMetrics(workload string, classes map[string]*classStat, spans []span,
	p *prober, g *gate, extra map[string]metric, probeWarm map[string]float64) (map[string]metric, []string) {
	self := selfTimes(spans)
	// stageMS[class][stage] sums the stage spans under each replay root.
	stageMS := map[string]map[string]float64{}
	stageN := map[string]map[string]int{}
	rootOf := map[int]string{}
	for c, cs := range classes {
		if cs.replay != nil {
			rootOf[cs.replay.root] = c
			stageMS[c], stageN[c] = map[string]float64{}, map[string]int{}
		}
	}
	pathSum, extraSum := map[string]float64{}, map[string]float64{}
	for i, s := range spans {
		c, ok := rootOf[s.Parent]
		if !ok {
			continue
		}
		d := float64(self[i]) / 1e6
		stageMS[c][s.Name] += d
		stageN[c][s.Name]++
		if s.Extra {
			extraSum[c] += d
		} else {
			pathSum[c] += d
		}
	}
	// mean of a stage over the replays that ran it.
	mean := func(stage string) float64 {
		sum, n := 0.0, 0
		for c, st := range stageMS {
			if k := stageN[c][stage]; k > 0 {
				sum += st[stage] / float64(k)
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	var acc uint64
	var interpMS, seqMS, fanMS, distinct, admitted, rate, nCold float64
	var bytesOut, nBytes float64
	var total, shInterp, shEngine, shReport, shServer, gap, tracedMS, directMS float64
	for c, cs := range classes {
		r := cs.replay
		if r == nil {
			continue
		}
		st := stageMS[c]
		if r.op.Kind == kindCold {
			acc += r.accesses
			interpMS += st["interp"]
			seqMS += st["interp+reusedist"]
			fanMS += st["interp+pipeline"]
			distinct += float64(r.distinct)
			admitted += float64(r.admitted)
			rate += r.rate
			nCold++
		}
		if r.bytes > 0 {
			bytesOut += float64(r.bytes)
			nBytes++
		}
		w := float64(cs.count)
		e2e := cs.medMS
		if r.op.Kind == kindPredict {
			// The replay repeats the call; the load made it once.
			st = scaleStages(st, 1/float64(predictRepeats))
			r.direct /= predictRepeats
			pathSum[c] /= predictRepeats
		}
		total += w * e2e
		if r.op.Kind == kindCold {
			shInterp += w * st["interp"]
			shEngine += w * max(0, st["interp+reusedist"]-st["interp"])
		}
		shReport += w * st["report.summary"]
		if p.surface == "svc" {
			shReport += w * (st["report.json"] + st["persist.save"])
			shServer += w * max(0, e2e-(pathSum[c]-st["server.key"]))
		}
		gap += w * (e2e - pathSum[c])
		rootMS := float64(spans[r.root].dur()) / 1e6
		if r.op.Kind == kindPredict {
			rootMS /= predictRepeats
			extraSum[c] /= predictRepeats
		}
		tracedMS += w * (rootMS - extraSum[c])
		directMS += w * r.direct
	}
	attempted, failed := g.counts()
	m := map[string]metric{
		"interp.ns_per_access":      {safeDiv(interpMS*1e6, float64(acc)), "ns"},
		"reusedist.ns_per_access":   {safeDiv((seqMS-interpMS)*1e6, float64(acc)), "ns"},
		"reusedist.distinct_blocks": {safeDiv(distinct, nCold), "count"},
		"sampling.admitted_blocks":  {safeDiv(admitted, nCold), "count"},
		"sampling.effective_rate":   {safeDiv(rate, nCold), "ratio"},
		"pipeline.fanout_ratio":     {safeDiv(seqMS, fanMS), "ratio"},
		"staticanalysis.ms":         {mean("staticanalysis"), "ms"},
		"metrics.build_ms":          {mean("metrics.build"), "ms"},
		"depend.ms":                 {mean("depend"), "ms"},
		"reusecheck.ms":             {mean("reusecheck"), "ms"},
		"report.summary_ms":         {mean("report.summary"), "ms"},
		"report.json_ms":            {mean("report.json"), "ms"},
		"persist.save_ms":           {mean("persist.save"), "ms"},
		"persist.bytes":             {safeDiv(bytesOut, nBytes), "bytes"},
		"staticreuse.ms":            {mean("staticreuse"), "ms"},
		"predict.serve_us":          {mean("predict.serve") / predictRepeats * 1000, "us"},
		"predict.fit_ms":            {p.fitMS, "ms"},
		"lang.parse_ms":             {mean("lang.parse"), "ms"},
		"server.key_ms":             {mean("server.key"), "ms"},
		"failed_frac":               {safeDiv(float64(failed), float64(attempted)), "ratio"},
		"share.interp":              {safeDiv(shInterp, total), "ratio"},
		"share.reusedist":           {safeDiv(shEngine, total), "ratio"},
		"share.report":              {safeDiv(shReport, total), "ratio"},
		"share.server":              {safeDiv(shServer, total), "ratio"},
		"trace.gap_frac":            {safeDiv(gap, total), "ratio"},
		"trace.overhead_frac":       {safeDiv(tracedMS-directMS, directMS), "ratio"},
	}
	for k, v := range extra {
		m[k] = v
	}
	return m, probeVerdicts(workload, classes, stageMS, m, probeWarm)
}

// probeWarmPrograms are the default sweep3d and gtc analyses, the ones
// the service's warm-hit probe figure was taken on.
var probeWarmPrograms = []string{"sweep3d", "gtc"}

// warmProbe analyzes each probe program once through the daemon, then
// resubmits it and returns the median warm-hit latency in ms.
func (p *prober) warmProbe() (map[string]float64, error) {
	out := map[string]float64{}
	for _, prog := range probeWarmPrograms {
		var lat []float64
		for i := 0; i < 6; i++ {
			o := op{Kind: kindWarm, Prog: prog}
			if i == 0 {
				o.Kind = kindCold
			}
			r := p.svc.run(context.Background(), o)
			if r.err != nil {
				return nil, fmt.Errorf("%s: %w", o.id("svc"), r.err)
			}
			p.verify(o, r.digest)
			if i > 0 {
				lat = append(lat, ms(r.latency))
			}
		}
		out[prog] = percentile(lat, 50)
	}
	return out, nil
}

func scaleStages(st map[string]float64, f float64) map[string]float64 {
	out := make(map[string]float64, len(st))
	for k, v := range st {
		out[k] = v * f
	}
	return out
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serverMetrics reads the daemon-side and client-side layers off the
// load: the job stamps, the cache counters and the poll counts.
func serverMetrics(l loadResult, spans []span, before, after cacheCounts) map[string]metric {
	self := selfTimes(spans)
	var queue, run, httpMS []float64
	polls, analyses := 0, 0
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range spans {
		if s.Parent >= 0 || len(children[i]) == 0 {
			continue
		}
		for _, c := range children[i] {
			switch spans[c].Name {
			case "server.queue":
				queue = append(queue, float64(spans[c].dur())/1e6)
			case "server.run":
				run = append(run, float64(spans[c].dur())/1e6)
			}
		}
		httpMS = append(httpMS, float64(self[i])/1e6)
	}
	for _, r := range l.records {
		if r.op.Kind == kindCold || r.op.Kind == kindWarm || r.op.Kind == kindStatic {
			polls += r.polls
			analyses++
		}
	}
	lookups := float64(after.lookups - before.lookups)
	hits := float64(after.hits - before.hits)
	disk := float64(after.disk - before.disk)
	remote := float64(after.remote - before.remote)
	return map[string]metric{
		"server.queue_wait_ms":    {percentile(queue, 50), "ms"},
		"server.run_ms":           {percentile(run, 50), "ms"},
		"server.http_ms":          {percentile(httpMS, 50), "ms"},
		"server.hit_ratio.memory": {safeDiv(hits-disk-remote, lookups), "ratio"},
		"server.hit_ratio.disk":   {safeDiv(disk, lookups), "ratio"},
		"server.hit_ratio.remote": {safeDiv(remote, lookups), "ratio"},
		"client.polls_per_job":    {safeDiv(float64(polls), float64(analyses)), "count"},
	}
}

// clusterHop compares, for warm keys the load used, the latency through
// the coordinator with the latency straight to the key's ring owner.
func clusterHop(e *svcEnv, warm []op) (map[string]metric, error) {
	var viaCoord, direct []float64
	var ringNS float64
	for _, o := range warm {
		req := e.request(o)
		key, err := server.CacheKeyFor(req)
		if err != nil {
			return nil, err
		}
		const calls = 10000
		start := time.Now()
		var owner string
		for i := 0; i < calls; i++ {
			owner = e.coord.Ring().Successors(key, 1)[0]
		}
		ringNS += float64(time.Since(start).Nanoseconds()) / calls
		for rep := 0; rep < 3; rep++ {
			r := e.run(context.Background(), o)
			if r.err != nil {
				return nil, r.err
			}
			viaCoord = append(viaCoord, ms(r.latency))
			t0 := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			job, err := e.direct[owner].Analyze(ctx, req)
			if err == nil {
				_, err = await(ctx, e.direct[owner], job, nil)
			}
			cancel()
			if err != nil {
				return nil, err
			}
			direct = append(direct, ms(time.Since(t0)))
		}
	}
	return map[string]metric{
		"cluster.hop_ms":  {percentile(viaCoord, 50) - percentile(direct, 50), "ms"},
		"cluster.ring_ns": {safeDiv(ringNS, float64(len(warm))), "ns"},
	}, nil
}

// zeroLayers returns the named layer metrics at 0, the value they keep
// on a surface that does not run their layer.
func zeroLayers(names ...string) map[string]metric {
	m := map[string]metric{}
	for _, n := range names {
		unit := "ms"
		switch {
		case strings.HasPrefix(n, "server.hit_ratio"):
			unit = "ratio"
		case n == "client.polls_per_job" || n == "cluster.jobs_rerouted":
			unit = "count"
		case n == "cluster.ring_ns":
			unit = "ns"
		}
		m[n] = metric{0, unit}
	}
	return m
}

// probeVerdicts tests the figures the benchmark was designed from
// against this run, one line per claim.
func probeVerdicts(workload string, classes map[string]*classStat, stageMS map[string]map[string]float64,
	m map[string]metric, probeWarm map[string]float64) []string {
	verdict := func(ok bool) string {
		if ok {
			return "confirmed"
		}
		return "refuted"
	}
	class := func(c string) map[string]float64 {
		if st, ok := stageMS[c]; ok {
			return st
		}
		return map[string]float64{}
	}
	med := func(c string) float64 {
		if cs, ok := classes[c]; ok {
			return cs.medMS
		}
		return 0
	}
	var out []string
	add := func(claim string, measured string, ok bool) {
		out = append(out, fmt.Sprintf("probe %s: %s; measured %s: %s", workload, claim, measured, verdict(ok)))
	}
	sw := class("cold/sweep3d")
	engine := sw["interp+reusedist"] - sw["interp"]
	ratio := safeDiv(sw["interp+reusedist"], sw["interp+pipeline"])
	switch workload {
	case "exact":
		add("sweep3d engine replay exceeds the interpreter (1.96 s vs 0.34 s)",
			fmt.Sprintf("%.0f ms vs %.0f ms", engine, sw["interp"]), engine > sw["interp"])
		add("parallel fan-out beats sequential on sweep3d (1.23 s vs 2.31 s)",
			fmt.Sprintf("sequential/fan-out %.2f", ratio), ratio > 1)
		gtc := class("cold/gtc")
		add("gtc's report stage is about 30% of its run, reusecheck about 0.19 s",
			fmt.Sprintf("report %.0f%% of %.0f ms, reusecheck %.0f ms", 100*safeDiv(gtc["report.summary"], med("cold/gtc")), med("cold/gtc"), gtc["reusecheck"]),
			between(safeDiv(gtc["report.summary"], med("cold/gtc")), 0.15, 0.45) && between(gtc["reusecheck"], 95, 380))
	case "sampled":
		add("sweep3d interpreter exceeds engine replay under R=64 (0.86 s vs 0.53 s)",
			fmt.Sprintf("%.0f ms vs %.0f ms", sw["interp"], engine), sw["interp"] > engine)
		add("parallel fan-out is slower than sequential on sweep3d (1.99 s vs 1.59 s)",
			fmt.Sprintf("sequential/fan-out %.2f", ratio), ratio < 1)
	case "service":
		add("the engine is a small share of the service's time",
			fmt.Sprintf("share.reusedist %.3f", m["share.reusedist"].Value), m["share.reusedist"].Value < 0.25)
		var warm []float64
		for _, prog := range probeWarmPrograms {
			warm = append(warm, probeWarm[prog])
		}
		add("warm hits take 2-17 ms", fmt.Sprintf("default sweep3d and gtc warm medians %s ms", fmtList(warm)),
			between(warm[0], 2, 17) && between(warm[1], 2, 17))
		add("static gtc takes 0.40-0.52 s", fmt.Sprintf("%.0f ms", med("static/gtc")), between(med("static/gtc"), 400, 520))
		add("predict p50 is 0.30 ms", fmt.Sprintf("%.2f ms", med("predict/fig2")), between(med("predict/fig2"), 0.15, 0.6))
	case "cluster":
		out = append(out, "probe cluster: no probe figures were given for this workload")
	}
	return out
}

func between(v, lo, hi float64) bool { return v >= lo && v <= hi }

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.1f", x)
	}
	return strings.Join(parts, ", ")
}

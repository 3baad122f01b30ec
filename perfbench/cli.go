package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"reusetool/internal/cache"
	"reusetool/internal/core"
	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/lang"
	"reusetool/internal/persist"
	"reusetool/internal/predict"
	"reusetool/internal/reusecheck"
	"reusetool/internal/workloads"
)

// Report shape of every analysis, as the CLI and the daemon default it.
const (
	reportLevel = "L2"
	reportShare = 0.02
)

// sources holds the .loop files the pools use, read from the checkout
// at start-up.
var sources = map[string]string{}

func readSources() error {
	for _, f := range families {
		if f.file == "" {
			continue
		}
		data, err := os.ReadFile(f.file)
		if err != nil {
			return fmt.Errorf("read program source (run from the repository root): %w", err)
		}
		sources[f.file] = string(data)
	}
	return nil
}

// build constructs a pooled program the way the CLI's -workload and
// -program flags do.
func build(prog string) (*ir.Program, func(*interp.Machine) error, error) {
	f := families[prog]
	if f.workload != "" {
		return workloads.Build(f.workload)
	}
	return lang.Parse(sources[f.file])
}

// cliEnv runs operations in-process, as the reusetool CLI does: the
// exact and sampled workloads.
type cliEnv struct {
	hier *cache.Hierarchy
	// model is the fitted model as -fit -model saves it.
	model []byte
	// saved holds the persist stream each cold analysis saved, which its
	// warm operation (-load) reads back.
	saved map[string][]byte
}

// cliWarmup runs each CLI program once, small, before the clock starts.
var cliWarmup = []op{
	{Kind: kindCold, Prog: "sweep3d", Params: p("it", 6, "jt", 6, "kt", 6)},
	{Kind: kindCold, Prog: "gtc", Params: p("grid", 256)},
	{Kind: kindCold, Prog: "matmul", Params: p("N", 32)},
}

// setupCLI builds every pooled program once, fits the predict model and
// warms the runtime up with one small analysis per program.
func setupCLI(workload string) (*cliEnv, error) {
	for _, o := range cliPoolOps(workload) {
		if _, _, err := build(o.Prog); err != nil {
			return nil, err
		}
	}
	e := &cliEnv{hier: cache.ScaledItanium2(), saved: map[string][]byte{}}
	m, err := fitModel(e.hier, nil)
	if err != nil {
		return nil, err
	}
	if e.model, err = predict.Encode(m); err != nil {
		return nil, err
	}
	for _, o := range cliWarmup {
		if r := e.run(context.Background(), o); r.err != nil {
			return nil, r.err
		}
	}
	return e, nil
}

// fitModel fits the fig2 scaling model on trainParams, as reusetool -fit
// does. fitDur, when non-nil, receives the predict.Fit call's duration.
func fitModel(hier *cache.Hierarchy, fitDur *time.Duration) (*predict.Model, error) {
	runs := make([]*predict.TrainingRun, len(trainParams))
	for i, params := range trainParams {
		prog, init, err := build("fig2")
		if err != nil {
			return nil, err
		}
		res, err := core.Pipeline{
			Source:  core.DynamicSource{Prog: prog, Init: init},
			Options: core.Options{Hierarchy: hier, Params: params, Parallel: true},
		}.Run()
		if err != nil {
			return nil, err
		}
		if runs[i], err = res.TrainingRun(); err != nil {
			return nil, err
		}
	}
	prog, _, err := build("fig2")
	if err != nil {
		return nil, err
	}
	info, err := prog.Finalize()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	m, err := predict.Fit(info, runs, predict.FitOptions{HierName: "scaled"})
	if fitDur != nil {
		*fitDur = time.Since(start)
	}
	return m, err
}

func (e *cliEnv) run(_ context.Context, o op) result {
	start := time.Now()
	var r result
	var res *core.Result
	var report []byte
	switch o.Kind {
	case kindCold:
		res, report, r.err = e.analyze(o, core.DynamicSource{}, true)
	case kindWarm:
		res, report, r.err = e.load(o)
	case kindStatic:
		res, report, r.err = e.analyze(o, core.StaticSource{}, false)
	case kindCheck:
		var diags []reusecheck.Diagnostic
		diags, r.err = e.check(o)
		if r.err == nil {
			r.digest, r.err = jsonDigest(diags)
		}
	case kindPredict:
		r.digest, r.err = e.predict(o)
	}
	r.latency = time.Since(start)
	if res != nil {
		r.digest = analysisDigest(res.Collector.Fingerprint(), report)
		if o.Kind == kindCold {
			r.accesses = res.Run.Accesses
			r.err = e.save(o, res)
		}
	}
	return r
}

// analyze is reusetool -workload/-program (dynamic, parallel fan-out)
// or -static, through to the rendered report.
func (e *cliEnv) analyze(o op, src core.Source, parallel bool) (*core.Result, []byte, error) {
	prog, init, err := build(o.Prog)
	if err != nil {
		return nil, nil, err
	}
	switch src.(type) {
	case core.DynamicSource:
		src = core.DynamicSource{Prog: prog, Init: init}
	default:
		src = core.StaticSource{Prog: prog}
	}
	res, err := core.Pipeline{Source: src, Options: core.Options{
		Hierarchy: e.hier, Params: o.Params, Parallel: parallel, Sampling: o.Sample,
	}}.Run()
	if err != nil {
		return nil, nil, err
	}
	var report bytes.Buffer
	if err := res.WriteSummary(&report, reportLevel, reportShare); err != nil {
		return nil, nil, err
	}
	return res, report.Bytes(), nil
}

// save is reusetool -save: it runs after the cold operation's clock
// stops, so the warm operation has data to load.
func (e *cliEnv) save(o op, res *core.Result) error {
	var buf bytes.Buffer
	if err := persist.Save(&buf, persist.Snapshot(res.Collector, o.Prog, res.Run.Trips)); err != nil {
		return err
	}
	e.saved[o.savedKey()] = buf.Bytes()
	return nil
}

// load is reusetool -load: the report rebuilt from saved data, without
// running the program.
func (e *cliEnv) load(o op) (*core.Result, []byte, error) {
	data, ok := e.saved[o.savedKey()]
	if !ok {
		return nil, nil, fmt.Errorf("no saved data for %s", o.id("cli"))
	}
	d, err := persist.Load(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	prog, _, err := build(o.Prog)
	if err != nil {
		return nil, nil, err
	}
	res, err := core.Pipeline{
		Source:  core.SavedSource{Prog: prog, Collector: d.Collector(), Trips: d.TripsFunc(1)},
		Options: core.Options{Hierarchy: e.hier, Params: o.Params},
	}.Run()
	if err != nil {
		return nil, nil, err
	}
	var report bytes.Buffer
	if err := res.WriteSummary(&report, reportLevel, reportShare); err != nil {
		return nil, nil, err
	}
	return res, report.Bytes(), nil
}

// check is reusetool -check on a workload or a .loop file.
func (e *cliEnv) check(o op) ([]reusecheck.Diagnostic, error) {
	info, opts, err := checkTarget(o)
	if err != nil {
		return nil, err
	}
	opts.Hier = e.hier
	return reusecheck.Check(info, opts), nil
}

func checkTarget(o op) (*ir.Info, reusecheck.Options, error) {
	opts := reusecheck.Options{Params: o.Params, Level: reportLevel}
	f := families[o.Prog]
	var prog *ir.Program
	if f.workload != "" {
		p, init, err := workloads.Build(f.workload)
		if err != nil {
			return nil, opts, err
		}
		prog, opts.AssumeInitialized = p, init != nil
	} else {
		p, _, meta, err := lang.ParseFile(f.file, sources[f.file])
		if err != nil {
			return nil, opts, err
		}
		prog = p
		opts.Initialized, opts.ParamLines, opts.File = meta.Inited, meta.ParamLines, f.file
	}
	info, err := prog.Finalize()
	return info, opts, err
}

// predict is reusetool -predict -model: decode the model saved at
// set-up, answer the what-if query and render the report.
func (e *cliEnv) predict(o op) (string, error) {
	m, err := predict.Decode(e.model)
	if err != nil {
		return "", err
	}
	var out bytes.Buffer
	m.WriteSummary(&out)
	pred, err := m.Predict(o.Params)
	if err != nil {
		return "", err
	}
	m.WriteReport(&out, pred, e.hier, reportLevel)
	var levels [][4]string
	for _, l := range pred.LevelMisses(e.hier) {
		levels = append(levels, [4]string{l.Level, g64(l.Total), g64(l.Cold), g64(l.Capacity)})
	}
	return missesDigest(levels), nil
}

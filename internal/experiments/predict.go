package experiments

import (
	"fmt"

	"reusetool/internal/cache"
	"reusetool/internal/core"
	"reusetool/internal/histo"
	"reusetool/internal/predict"
	"reusetool/internal/workloads"
)

// PredictRow compares a cross-input miss prediction against measurement.
type PredictRow struct {
	Mesh      int64
	Predicted float64
	Measured  float64
}

// RelErr is (predicted-measured)/measured.
func (r PredictRow) RelErr() float64 {
	if r.Measured == 0 {
		return 0
	}
	return (r.Predicted - r.Measured) / r.Measured
}

// mergedKey is the one pattern of the merged baseline. It names no
// reference, so no static access-count hint applies to its fits.
var mergedKey = predict.Key{Ref: -1, Source: -1, Carrying: -1}

// PredictSweep3D implements the paper's cross-input modeling (Section II,
// ref [14]): Sweep3D runs at the training mesh sizes are fitted with
// internal/predict's scaling models and used to predict the miss count
// at unmeasured target sizes, which is then validated against an actual
// run. It fits the same training runs twice: once per reuse pattern,
// and once with every pattern's histogram merged into a single one. The
// paper argues the finer per-pattern granularity yields more accurate
// models.
func PredictSweep3D(train, targets []int64, levelName string, hier *cache.Hierarchy) (merged, perPattern []PredictRow, err error) {
	if len(train) < 2 {
		return nil, nil, fmt.Errorf("need at least 2 training sizes")
	}
	if hier.Level(levelName) == nil {
		return nil, nil, fmt.Errorf("unknown level %q", levelName)
	}
	mesh := func(n int64) map[string]int64 { return map[string]int64{"it": n, "jt": n, "kt": n} }

	// One pipeline per mesh, training and target sizes alike.
	meshes := append(append([]int64{}, train...), targets...)
	results := make([]*core.Result, len(meshes))
	err = forEachParallel(len(meshes), func(i int) error {
		prog, err := workloads.Sweep3D(workloads.DefaultSweep3D())
		if err != nil {
			return err
		}
		results[i], err = analyze(prog, core.Options{Hierarchy: hier, Params: mesh(meshes[i])})
		return err
	})
	if err != nil {
		return nil, nil, err
	}

	prog, err := workloads.Sweep3D(workloads.DefaultSweep3D())
	if err != nil {
		return nil, nil, err
	}
	info, err := prog.Finalize()
	if err != nil {
		return nil, nil, err
	}
	runs := make([]*predict.TrainingRun, len(train))
	mergedRuns := make([]*predict.TrainingRun, len(train))
	for i, res := range results[:len(train)] {
		if runs[i], err = res.TrainingRun(); err != nil {
			return nil, nil, err
		}
		mergedRuns[i] = mergePatterns(runs[i])
	}
	opts := predict.FitOptions{HierName: hier.Name}
	patModel, err := predict.Fit(info, runs, opts)
	if err != nil {
		return nil, nil, err
	}
	mergedModel, err := predict.Fit(info, mergedRuns, opts)
	if err != nil {
		return nil, nil, err
	}

	levelMisses := func(m *predict.Model, n int64) (float64, error) {
		p, err := m.Predict(mesh(n))
		if err != nil {
			return 0, err
		}
		for _, lm := range p.LevelMisses(hier) {
			if lm.Level == levelName {
				return lm.Total, nil
			}
		}
		return 0, fmt.Errorf("model has no %s granularity", levelName)
	}
	for i, n := range targets {
		measured := results[len(train)+i].Report.Level(levelName).TotalMisses
		mp, err := levelMisses(mergedModel, n)
		if err != nil {
			return nil, nil, err
		}
		pp, err := levelMisses(patModel, n)
		if err != nil {
			return nil, nil, err
		}
		merged = append(merged, PredictRow{Mesh: n, Predicted: mp, Measured: measured})
		perPattern = append(perPattern, PredictRow{Mesh: n, Predicted: pp, Measured: measured})
	}
	return merged, perPattern, nil
}

// mergePatterns returns a copy of a training run whose per-pattern
// histograms are merged into the single mergedKey pattern at every
// granularity.
func mergePatterns(run *predict.TrainingRun) *predict.TrainingRun {
	out := *run
	out.Grans = make([]predict.GranData, len(run.Grans))
	for i, g := range run.Grans {
		h := histo.NewRes(g.Res)
		for _, ph := range g.Patterns {
			h.Merge(ph)
		}
		g.Patterns = map[predict.Key]*histo.Histogram{mergedKey: h}
		out.Grans[i] = g
	}
	return &out
}

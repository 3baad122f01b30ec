// Scaling: the cross-input modeling the paper inherits from Marin &
// Mellor-Crummey [14]. Runs a stencil at several training sizes, fits
// per-pattern scaling models, predicts the miss count at a larger size
// never measured, and validates the prediction against a real run at
// that size.
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"

	"reusetool/internal/cache"
	"reusetool/internal/core"
	"reusetool/internal/predict"
	"reusetool/internal/workloads"
)

func main() {
	hier := cache.ScaledItanium2()
	const level = "L3"

	train := []int64{32, 48, 64}
	const target = 128

	fmt.Printf("training on stencil sizes %v, predicting N=%d\n\n", train, target)

	var runs []*predict.TrainingRun
	for _, n := range train {
		res := run(n, hier)
		tr, err := res.TrainingRun()
		if err != nil {
			log.Fatal(err)
		}
		runs = append(runs, tr)
		fmt.Printf("  N=%3d: %9d %s misses\n", n, int64(res.Report.Level(level).TotalMisses), level)
	}

	info, err := workloads.Stencil(train[0], 2).Finalize()
	if err != nil {
		log.Fatal(err)
	}
	m, err := predict.Fit(info, runs, predict.FitOptions{HierName: hier.Name})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfitted %d reuse patterns per granularity\n", len(m.Grans[0].Patterns))

	p, err := m.Predict(map[string]int64{"N": target})
	if err != nil {
		log.Fatal(err)
	}
	var predicted float64
	for _, lm := range p.LevelMisses(hier) {
		if lm.Level == level {
			predicted = lm.Total
		}
	}

	// Validate against a real run at the target size.
	actual := run(target, hier).Report.Level(level).TotalMisses

	fmt.Printf("\npredicted %s misses at N=%d: %.0f\n", level, target, predicted)
	fmt.Printf("measured  %s misses at N=%d: %.0f\n", level, target, actual)
	fmt.Printf("relative error: %+.1f%%\n", 100*(predicted-actual)/actual)
}

// run analyzes the stencil at size n. The explicit N binding is what the
// training run records, and what Fit fits against.
func run(n int64, hier *cache.Hierarchy) *core.Result {
	res, err := core.Pipeline{
		Source:  core.DynamicSource{Prog: workloads.Stencil(n, 2)},
		Options: core.Options{Hierarchy: hier, Params: map[string]int64{"N": n}},
	}.Run()
	if err != nil {
		log.Fatal(err)
	}
	return res
}

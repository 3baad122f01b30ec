// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-exp all|fig1|fig2|fig5|table2|fig8|fig9|fig10|fig11]
//	            [-mesh N] [-meshes 8,12,16,...] [-grid G] [-micell M]
//	            [-micells 2,5,10,...] [-full] [-jobs N]
//
// Results print as aligned text tables with the paper's normalization
// (per cell / per particle / per time step). -full selects the unscaled
// Itanium2 hierarchy (much slower; pair it with larger sizes). -jobs
// caps how many sweep points (Figure 8/11 workload configurations) are
// evaluated concurrently; 0, the default, uses one worker per CPU.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"

	"reusetool/internal/cache"
	"reusetool/internal/experiments"
	"reusetool/internal/workloads"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run: all, fig1, fig2, fig5, table2, fig8, fig9, fig10, fig11, predict, static, sampling")
		mesh    = flag.Int64("mesh", 12, "Sweep3D mesh size for fig5/table2")
		meshes  = flag.String("meshes", "6,8,10,12,16,20", "comma-separated mesh sizes for fig8")
		grid    = flag.Int64("grid", 2048, "GTC grid size")
		micell  = flag.Int64("micell", 15, "GTC particles per cell for fig9/fig10")
		micells = flag.String("micells", "2,5,10,15,20", "comma-separated particle counts for fig11")
		full    = flag.Bool("full", false, "use the full-size Itanium2 hierarchy instead of the scaled one")
		csvDir  = flag.String("csv", "", "also write fig8.csv and fig11.csv curve data into this directory")
		jobs    = flag.Int("jobs", 0, "max sweep points evaluated concurrently (0 = one per CPU)")

		sampOut    = flag.String("sampling-out", "", "write sampling suite results as JSON to this file")
		sampNames  = flag.String("sampling-workloads", "", "comma-separated workloads for the sampling suite (default: all built-ins)")
		sampRates  = flag.String("sampling-rates", "1,8,64", "comma-separated sampling rates to compare against exact")
		sampRepeat = flag.Int("sampling-repeat", 3, "replay repetitions per sampling point (fastest wins)")
		sampDemo   = flag.Uint64("sampling-demo-accesses", 0, "also stream this many synthetic accesses through the adaptive bounded-memory demo (0 = skip; the ISSUE configuration is 1000000000)")
		sampDemoB  = flag.Int("sampling-demo-max-blocks", 1<<16, "adaptive tracked-block cap per engine for the demo")

		predOut = flag.String("predict-out", "", "write the scaling-model suite results as JSON to this file")
	)
	flag.Parse()
	experiments.SetJobs(*jobs)

	hier := cache.ScaledItanium2()
	if *full {
		hier = cache.Itanium2()
	}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("fig1", func() error { return runFig1(hier) })
	run("fig2", func() error { return runFig2() })
	run("fig5", func() error { return runFig5(*mesh, hier) })
	run("table2", func() error { return runTable2(*mesh, hier) })
	run("fig8", func() error { return runFig8(parseInts(*meshes), hier, *csvDir) })
	run("fig9", func() error { return runFig9(*grid, *micell, hier) })
	run("fig10", func() error { return runFig10(*grid, *micell, hier) })
	run("fig11", func() error { return runFig11(*grid, parseInts(*micells), hier, *csvDir) })
	run("predict", func() error {
		if err := runPredict(hier); err != nil {
			return err
		}
		fmt.Println()
		hierName := "scaled"
		if *full {
			hierName = "full"
		}
		return runPredictModel(hier, hierName, *predOut)
	})
	run("static", runStatic)
	run("sampling", func() error {
		var rates []uint64
		for _, v := range parseInts(*sampRates) {
			rates = append(rates, uint64(v))
		}
		names := experiments.SamplingWorkloads()
		if *sampNames != "" {
			names = nil
			for _, n := range strings.Split(*sampNames, ",") {
				if n = strings.TrimSpace(n); n != "" {
					names = append(names, n)
				}
			}
		}
		return runSampling(names, hier, rates, *sampRepeat, *sampOut, *sampDemo, *sampDemoB)
	})
}

func runStatic() error {
	fmt.Printf("Static vs dynamic L2 miss prediction (no-execution estimator):\n")
	rows, err := experiments.StaticValidation("L2")
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tREFERENCE\tDYNAMIC\tSTATIC\tERROR")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\ttotal\t%.0f\t%.0f\t%+.1f%%\n",
			r.Workload, r.Dynamic, r.Static, r.RelErr*100)
		for _, ref := range r.Refs {
			fmt.Fprintf(tw, "\t%s (%s)\t%.0f\t%.0f\t%+.1f%%\n",
				ref.Ref, ref.Array, ref.Dynamic, ref.Static, ref.RelErr*100)
		}
	}
	return tw.Flush()
}

func runPredict(hier *cache.Hierarchy) error {
	train := []int64{6, 8, 10}
	targets := []int64{14, 18}
	fmt.Printf("Cross-input L2 miss prediction for Sweep3D (ref [14] modeling):\n")
	fmt.Printf("training meshes %v, predicting %v\n", train, targets)
	merged, perPattern, err := experiments.PredictSweep3D(train, targets, "L2", hier)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "MODEL\tMESH\tPREDICTED\tMEASURED\tERROR")
	for _, m := range []struct {
		name string
		rows []experiments.PredictRow
	}{{"merged", merged}, {"per-pattern", perPattern}} {
		for _, r := range m.rows {
			fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%+.1f%%\n",
				m.name, r.Mesh, r.Predicted, r.Measured, r.RelErr()*100)
		}
	}
	return tw.Flush()
}

// writeCSV writes records to path, creating the directory if needed.
func writeCSV(path string, records [][]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.WriteAll(records); err != nil {
		f.Close()
		return err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// round2 rounds to two decimal places for the JSON result files.
func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

func parseInts(s string) []int64 {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad integer %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func runFig1(hier *cache.Hierarchy) error {
	r, err := experiments.Fig1(256, 256, hier)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 1 (loop interchange), 256x256 doubles:\n")
	fmt.Printf("  variant (a) row-wise L2 misses:    %.0f\n", r.MissesBad)
	fmt.Printf("  variant (b) interchanged L2 misses: %.0f\n", r.MissesGood)
	fmt.Printf("  improvement: %.1fx; outer loop carried %.1f%% of (a)'s misses\n",
		r.MissesBad/r.MissesGood, r.CarriedByOuterBad*100)
	return nil
}

func runFig2() error {
	r, err := experiments.Fig2(400, 100)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 2 (fragmentation), paper ground truth frag(A)=0.5 frag(B)=0:\n")
	fmt.Printf("  stride: %d bytes\n", r.StrideBytes)
	fmt.Printf("  frag(A) = %.2f (%d reuse groups)\n", r.FragA, r.ReuseGroupsA)
	fmt.Printf("  frag(B) = %.2f (%d reuse groups)\n", r.FragB, r.ReuseGroupsB)
	return nil
}

func runFig5(mesh int64, hier *cache.Hierarchy) error {
	cfg := workloads.DefaultSweep3D()
	cfg.N = mesh
	r, err := experiments.Fig5(cfg, hier)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 5 (Sweep3D carried misses), mesh %d^3:\n", mesh)
	fmt.Printf("paper: idiag 75%%/68%% of L2/L3; iq 10.5%%/22%%; TLB: jkm 79%%, idiag 20%%\n")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, level := range []string{"L2", "L3", "TLB"} {
		fmt.Fprintf(tw, "%s:\t", level)
		for _, s := range r.Shares[level] {
			if s.Share < 0.01 {
				continue
			}
			fmt.Fprintf(tw, "%s %.1f%%\t", s.Scope, s.Share*100)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

func runTable2(mesh int64, hier *cache.Hierarchy) error {
	cfg := workloads.DefaultSweep3D()
	cfg.N = mesh
	r, err := experiments.Table2(cfg, hier)
	if err != nil {
		return err
	}
	fmt.Printf("Table II (Sweep3D L2 miss breakdown), mesh %d^3:\n", mesh)
	fmt.Printf("paper: src 26.7%% flux 26.9%% face 19.7%% sigt-group 18.4%%, mostly carried by idiag\n")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ARRAY\tCARRYING\tSHARE")
	for _, row := range r.Rows {
		if row.Share < 0.005 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%.1f%%\n", row.Array, row.Carrying, row.Share*100)
	}
	return tw.Flush()
}

func runFig8(meshes []int64, hier *cache.Hierarchy, csvDir string) error {
	rows, err := experiments.Fig8(meshes, hier)
	if err != nil {
		return err
	}
	if csvDir != "" {
		records := [][]string{{"variant", "mesh", "l2_per_cell", "l3_per_cell", "tlb_per_cell", "cycles_per_cell", "nonstall_per_cell"}}
		for _, r := range rows {
			records = append(records, []string{
				r.Variant, fmt.Sprint(r.Mesh),
				fmt.Sprintf("%.4f", r.L2PerCell), fmt.Sprintf("%.4f", r.L3PerCell),
				fmt.Sprintf("%.4f", r.TLBPerCell), fmt.Sprintf("%.1f", r.CyclesPerCell),
				fmt.Sprintf("%.1f", r.NonStallPerCell),
			})
		}
		if err := writeCSV(filepath.Join(csvDir, "fig8.csv"), records); err != nil {
			return err
		}
	}
	fmt.Printf("Figure 8 (Sweep3D misses & cycles per cell per time step):\n")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "VARIANT\tMESH\tL2/cell\tL3/cell\tTLB/cell\tcycles/cell\tnonstall/cell")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%.3f\t%.0f\t%.0f\n",
			r.Variant, r.Mesh, r.L2PerCell, r.L3PerCell, r.TLBPerCell, r.CyclesPerCell, r.NonStallPerCell)
	}
	return tw.Flush()
}

func runFig9(grid, micell int64, hier *cache.Hierarchy) error {
	cfg := workloads.DefaultGTC()
	cfg.Grid, cfg.Micell = grid, micell
	r, err := experiments.Fig9(cfg, hier)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 9 (GTC arrays by L3 fragmentation misses), grid %d, micell %d:\n", grid, micell)
	fmt.Printf("paper: zion arrays ~95%% of fragmentation misses, ~48%% of zion misses, ~13.7%% of program L3 misses\n")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ARRAY\tFRAG MISSES\tARRAY MISSES")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\n", row.Array, row.FragMisses, row.TotalMisses)
	}
	tw.Flush()
	fmt.Printf("zion share of fragmentation: %.1f%%; frag share of zion misses: %.1f%%; of program: %.1f%%\n",
		r.ZionShareOfFrag*100, r.ZionFragShareOfZionMisses*100, r.ZionFragShareOfProgram*100)
	return nil
}

func runFig10(grid, micell int64, hier *cache.Hierarchy) error {
	cfg := workloads.DefaultGTC()
	cfg.Grid, cfg.Micell = grid, micell
	r, err := experiments.Fig10(cfg, hier)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 10 (GTC scopes carrying misses), grid %d, micell %d:\n", grid, micell)
	fmt.Printf("paper: main loops ~40%% of L3 together; pushi ~20%%; smooth ~64%% of TLB\n")
	fmt.Printf("(a) L3:\n")
	for _, s := range r.L3 {
		if s.Share >= 0.02 {
			fmt.Printf("    %-24s %.1f%%\n", s.Scope, s.Share*100)
		}
	}
	fmt.Printf("(b) TLB:\n")
	for _, s := range r.TLB {
		if s.Share >= 0.02 {
			fmt.Printf("    %-24s %.1f%%\n", s.Scope, s.Share*100)
		}
	}
	fmt.Printf("main loops L3: %.1f%%; pushi L3: %.1f%%; smooth TLB: %.1f%%\n",
		r.MainLoopsL3*100, r.PushiL3*100, r.SmoothTLB*100)
	return nil
}

func runFig11(grid int64, micells []int64, hier *cache.Hierarchy, csvDir string) error {
	base := workloads.DefaultGTC()
	base.Grid = grid
	rows, err := experiments.Fig11(base, micells, hier)
	if err != nil {
		return err
	}
	if csvDir != "" {
		records := [][]string{{"variant", "micell", "l2_per_mc", "l3_per_mc", "tlb_per_mc", "cycles_per_mc"}}
		for _, r := range rows {
			records = append(records, []string{
				r.Variant, fmt.Sprint(r.Micell),
				fmt.Sprintf("%.1f", r.L2PerMicell), fmt.Sprintf("%.1f", r.L3PerMicell),
				fmt.Sprintf("%.1f", r.TLBPerMicell), fmt.Sprintf("%.1f", r.CyclesPerMicell),
			})
		}
		if err := writeCSV(filepath.Join(csvDir, "fig11.csv"), records); err != nil {
			return err
		}
	}
	fmt.Printf("Figure 11 (GTC misses & cycles per micell per time step), grid %d:\n", grid)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "VARIANT\tMICELL\tL2/mc\tL3/mc\tTLB/mc\tcycles/mc")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%.0f\t%.0f\n",
			r.Variant, r.Micell, r.L2PerMicell, r.L3PerMicell, r.TLBPerMicell, r.CyclesPerMicell)
	}
	return tw.Flush()
}

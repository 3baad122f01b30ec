package experiments

import (
	"math"
	"testing"

	"reusetool/internal/cache"
	"reusetool/internal/workloads"
)

// The golden-shape tests assert the qualitative results of every paper
// table and figure at reduced problem sizes (full sizes run via
// cmd/experiments and the root benchmarks; EXPERIMENTS.md records the
// measured values side by side with the paper's).

func TestFig1Shape(t *testing.T) {
	r, err := Fig1(128, 128, cache.ScaledItanium2())
	if err != nil {
		t.Fatal(err)
	}
	if r.MissesBad < 4*r.MissesGood {
		t.Errorf("interchange should cut misses at least 4x: %v vs %v", r.MissesBad, r.MissesGood)
	}
	if r.CarriedByOuterBad < 0.5 {
		t.Errorf("outer loop should carry most of variant (a)'s misses, got %.2f", r.CarriedByOuterBad)
	}
}

func TestFig2GroundTruth(t *testing.T) {
	r, err := Fig2(400, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r.StrideBytes != 32 {
		t.Errorf("stride = %d, want 32", r.StrideBytes)
	}
	if math.Abs(r.FragA-0.5) > 1e-12 {
		t.Errorf("frag(A) = %v, want 0.5", r.FragA)
	}
	if r.FragB != 0 {
		t.Errorf("frag(B) = %v, want 0", r.FragB)
	}
	if r.ReuseGroupsA != 2 || r.ReuseGroupsB != 1 {
		t.Errorf("reuse groups = %d/%d, want 2/1", r.ReuseGroupsA, r.ReuseGroupsB)
	}
}

// sweepTestCfg keeps the dynamic analysis fast: mesh 12, 4 octants.
func sweepTestCfg() workloads.Sweep3DConfig {
	cfg := workloads.DefaultSweep3D()
	cfg.N = 12
	cfg.Octants = 4
	return cfg
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := Fig5(sweepTestCfg(), cache.ScaledItanium2())
	if err != nil {
		t.Fatal(err)
	}
	idiagL2 := r.Share("L2", "loop idiag")
	idiagL3 := r.Share("L3", "loop idiag")
	iqL3 := r.Share("L3", "loop iq")
	// Paper: idiag carries ~75% of L2 and ~68% of L3; it must dominate.
	if idiagL2 < 0.4 {
		t.Errorf("idiag L2 share = %.2f, want the dominant carrier (paper 0.75)", idiagL2)
	}
	if idiagL3 < 0.4 {
		t.Errorf("idiag L3 share = %.2f, want the dominant carrier (paper 0.68)", idiagL3)
	}
	// iq is the second L3 carrier.
	if iqL3 <= 0 || iqL3 >= idiagL3 {
		t.Errorf("iq L3 share = %.2f, want positive and below idiag (%.2f)", iqL3, idiagL3)
	}
	// idiag carries more of L2 than of L3 relative to iq (longer reuses
	// shift to the outer loop); ordering must put idiag first at L2.
	if len(r.Shares["L2"]) == 0 || r.Shares["L2"][0].Scope != "loop idiag" {
		t.Errorf("L2 top carrier = %+v, want idiag", r.Shares["L2"])
	}
	// TLB: jkm (the plane traversal) carries the most.
	jkmTLB := r.Share("TLB", "loop jkm")
	idiagTLB := r.Share("TLB", "loop idiag")
	if jkmTLB <= idiagTLB {
		t.Errorf("jkm TLB share %.2f should exceed idiag's %.2f (paper 0.79 vs 0.20)", jkmTLB, idiagTLB)
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := Table2(sweepTestCfg(), cache.ScaledItanium2())
	if err != nil {
		t.Fatal(err)
	}
	// src and flux are the dominant arrays (paper: 26.7% and 26.9%),
	// within a few points of each other.
	src, flux := r.ArrayTotal["src"], r.ArrayTotal["flux"]
	if src < 0.15 || flux < 0.15 {
		t.Errorf("src/flux shares = %.2f/%.2f, want the dominant arrays", src, flux)
	}
	if math.Abs(src-flux) > 0.1 {
		t.Errorf("src and flux should be nearly equal: %.2f vs %.2f", src, flux)
	}
	// For both, idiag carries more than iq and jkm (paper rows: 20.4 vs
	// 3.3 vs 2.9).
	for _, arr := range []string{"src", "flux"} {
		idiag := r.RowShare(arr, "idiag")
		iq := r.RowShare(arr, "iq")
		jkm := r.RowShare(arr, "jkm")
		if idiag <= iq || idiag <= jkm {
			t.Errorf("%s: idiag %.3f should dominate iq %.3f and jkm %.3f", arr, idiag, iq, jkm)
		}
	}
	// The sigt/phikb/phijb group contributes a noticeable share (paper
	// 18.4% combined).
	group := r.ArrayTotal["sigt"] + r.ArrayTotal["phikb"] + r.ArrayTotal["phijb"]
	if group < 0.05 {
		t.Errorf("sigt group share = %.2f, want > 0.05", group)
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	meshes := []int64{8, 16}
	rows, err := Fig8(meshes, cache.ScaledItanium2())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(meshes)*6 {
		t.Fatalf("rows = %d, want %d", len(rows), len(meshes)*6)
	}
	const big = 16
	orig := Fig8Find(rows, "Original", big)
	blk1 := Fig8Find(rows, "Block size 1", big)
	blk2 := Fig8Find(rows, "Block size 2", big)
	blk6 := Fig8Find(rows, "Block size 6", big)
	ic := Fig8Find(rows, "Blk6+dimIC", big)
	if orig == nil || blk1 == nil || blk2 == nil || blk6 == nil || ic == nil {
		t.Fatal("missing variants")
	}
	// Paper: block size 1 has the same memory behaviour as the original.
	if rel := math.Abs(blk1.L2PerCell-orig.L2PerCell) / orig.L2PerCell; rel > 0.15 {
		t.Errorf("block1 L2 differs from original by %.0f%%", rel*100)
	}
	// Misses drop monotonically with block size, by roughly the blocking
	// factor (paper: integer factors).
	if !(orig.L2PerCell > blk2.L2PerCell && blk2.L2PerCell > blk6.L2PerCell) {
		t.Errorf("L2 not monotone: %.1f %.1f %.1f", orig.L2PerCell, blk2.L2PerCell, blk6.L2PerCell)
	}
	if ratio := orig.L2PerCell / blk6.L2PerCell; ratio < 3 {
		t.Errorf("block 6 L2 reduction = %.1fx, want >= 3x (paper ~6x)", ratio)
	}
	// Dimension interchange helps the TLB further.
	if ic.TLBPerCell >= blk6.TLBPerCell {
		t.Errorf("dimIC TLB %.3f should beat blk6 %.3f", ic.TLBPerCell, blk6.TLBPerCell)
	}
	// Figure 8(d): the tuned code is much faster at the large mesh and
	// scales much flatter than the original.
	if speedup := orig.CyclesPerCell / ic.CyclesPerCell; speedup < 1.5 {
		t.Errorf("speedup = %.2fx, want >= 1.5x (paper 2.5x)", speedup)
	}
	origSmall := Fig8Find(rows, "Original", 8)
	icSmall := Fig8Find(rows, "Blk6+dimIC", 8)
	origGrowth := orig.CyclesPerCell / origSmall.CyclesPerCell
	icGrowth := ic.CyclesPerCell / icSmall.CyclesPerCell
	if icGrowth >= origGrowth {
		t.Errorf("tuned code growth %.2f should be flatter than original %.2f", icGrowth, origGrowth)
	}
}

// gtcTestCfg keeps the dynamic analysis fast but preserves the structure:
// the smooth array must exceed the scaled TLB reach, so the grid stays at
// 2048 and particles shrink instead.
func gtcTestCfg() workloads.GTCConfig {
	cfg := workloads.DefaultGTC()
	cfg.Micell = 5
	return cfg
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := Fig9(gtcTestCfg(), cache.ScaledItanium2())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: the zion arrays cause ~95% of all fragmentation misses.
	if r.ZionShareOfFrag < 0.9 {
		t.Errorf("zion share of fragmentation = %.2f, want >= 0.9 (paper 0.95)", r.ZionShareOfFrag)
	}
	// Paper: fragmentation is ~48% of all zion misses.
	if r.ZionFragShareOfZionMisses < 0.25 || r.ZionFragShareOfZionMisses > 0.7 {
		t.Errorf("frag share of zion misses = %.2f, want ~0.48", r.ZionFragShareOfZionMisses)
	}
	// zion tops the ranking.
	if len(r.Rows) == 0 || !isZion(r.Rows[0].Array) {
		t.Errorf("top fragmentation array = %+v, want zion", r.Rows)
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := Fig10(gtcTestCfg(), cache.ScaledItanium2())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: the two main loops together carry ~40% of L3 misses.
	if r.MainLoopsL3 < 0.25 {
		t.Errorf("main loops carry %.2f of L3, want >= 0.25 (paper ~0.40)", r.MainLoopsL3)
	}
	// Paper: pushi carries ~20%.
	if r.PushiL3 < 0.1 || r.PushiL3 > 0.45 {
		t.Errorf("pushi carries %.2f of L3, want ~0.20", r.PushiL3)
	}
	// Paper: the smooth loop nest carries ~64% of TLB misses.
	if r.SmoothTLB < 0.4 {
		t.Errorf("smooth carries %.2f of TLB, want >= 0.4 (paper 0.64)", r.SmoothTLB)
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := workloads.DefaultGTC()
	micells := []int64{2, 10}
	rows, err := Fig11(base, micells, cache.ScaledItanium2())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(Fig11Variants(rows)); got != 7 {
		t.Fatalf("variants = %d, want 7", got)
	}
	if got := Fig11Micells(rows); len(got) != 2 || got[0] != 2 || got[1] != 10 {
		t.Fatalf("micells = %v", got)
	}
	const mc = 10
	orig := Fig11Find(rows, "gtc_original", mc)
	transpose := Fig11Find(rows, "+zion transpose", mc)
	smoothLI := Fig11Find(rows, "+smooth LI", mc)
	final := Fig11Find(rows, "+pushi tiling/fusion", mc)

	// Each cumulative variant reduces L3 misses.
	if !(orig.L3PerMicell > transpose.L3PerMicell && transpose.L3PerMicell > smoothLI.L3PerMicell &&
		smoothLI.L3PerMicell > final.L3PerMicell) {
		t.Errorf("L3 per-micell not monotone: %v %v %v %v",
			orig.L3PerMicell, transpose.L3PerMicell, smoothLI.L3PerMicell, final.L3PerMicell)
	}
	// Paper: overall miss reduction of 2x or more.
	if ratio := orig.L3PerMicell / final.L3PerMicell; ratio < 1.8 {
		t.Errorf("overall L3 reduction = %.2fx, want >= 1.8x (paper >= 2x)", ratio)
	}
	// Paper: smooth LI slashes TLB misses.
	if smoothLI.TLBPerMicell*4 > transpose.TLBPerMicell {
		t.Errorf("smooth LI TLB %.0f vs before %.0f: want >= 4x reduction",
			smoothLI.TLBPerMicell, transpose.TLBPerMicell)
	}
	// Paper: pushi tiling reduces misses but NOT time (instruction cache
	// overflow).
	if final.L3PerMicell >= smoothLI.L3PerMicell {
		t.Error("pushi tiling should reduce L3 misses")
	}
	if final.CyclesPerMicell < smoothLI.CyclesPerMicell*0.93 {
		t.Errorf("pushi tiling time %.0f improved more than the paper's 'not at all' vs %.0f",
			final.CyclesPerMicell, smoothLI.CyclesPerMicell)
	}
	// Paper: ~33% execution time reduction overall (1.5x).
	speedup := orig.CyclesPerMicell / final.CyclesPerMicell
	if speedup < 1.2 || speedup > 2.2 {
		t.Errorf("overall speedup = %.2fx, want ~1.5x", speedup)
	}
	// Normalized misses decline as micell grows (fixed grid work
	// amortizes), for the original code.
	orig2 := Fig11Find(rows, "gtc_original", 2)
	if orig2.L3PerMicell <= orig.L3PerMicell {
		t.Errorf("per-micell misses should fall with micell: %v at 2 vs %v at 10",
			orig2.L3PerMicell, orig.L3PerMicell)
	}
}

func TestCarrierSharesHelpers(t *testing.T) {
	shares := []CarrierShare{{Scope: "loop a", Share: 0.5}, {Scope: "loop b", Share: 0.2}}
	if findShare(shares, "loop b") != 0.2 {
		t.Error("findShare failed")
	}
	if findShare(shares, "nope") != 0 {
		t.Error("findShare of absent label should be 0")
	}
}

// TestPredictSweep3D validates the cross-input modeling: predictions at
// an unmeasured mesh from small training runs stay within tolerance, and
// the per-pattern models (the paper's finer granularity) are at least as
// accurate as one merged-histogram model.
func TestPredictSweep3D(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	train := []int64{6, 8, 10}
	targets := []int64{14}
	merged, perPat, err := PredictSweep3D(train, targets, "L2", cache.ScaledItanium2())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range perPat {
		if e := math.Abs(r.RelErr()); e > 0.35 {
			t.Errorf("per-pattern prediction at mesh %d off by %.0f%%", r.Mesh, e*100)
		}
	}
	// The paper: finer-granularity models are more accurate (allow a
	// small slack for noise).
	if math.Abs(perPat[0].RelErr()) > math.Abs(merged[0].RelErr())+0.05 {
		t.Errorf("per-pattern error %.3f worse than merged %.3f",
			perPat[0].RelErr(), merged[0].RelErr())
	}
}

package metrics

import (
	"math"
	"testing"

	"reusetool/internal/cache"
	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/reusedist"
	"reusetool/internal/staticanalysis"
	"reusetool/internal/trace"
)

// smallHier is a tiny hierarchy so the test workloads produce both hits
// and misses.
func smallHier() *cache.Hierarchy {
	return &cache.Hierarchy{
		Name: "tiny",
		Levels: []cache.Level{
			{Name: "C1", LineBits: 6, Sets: 1, Assoc: 8, Latency: 10},   // 8 lines FA
			{Name: "C2", LineBits: 6, Sets: 1, Assoc: 128, Latency: 50}, // 128 lines FA
		},
	}
}

// analyze runs a program through the collector + static analysis + Build.
func analyze(t *testing.T, p *ir.Program, hier *cache.Hierarchy, model Model) (*Report, *ir.Info) {
	t.Helper()
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	col := reusedist.NewCollector(hier.Granularities(), 0)
	run, err := interp.Run(info, nil, col)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := interp.Layout(info, nil)
	if err != nil {
		t.Fatal(err)
	}
	static := staticanalysis.Analyze(info, mach, staticanalysis.TripsFromRun(run, 1))
	rep, err := Build(info, col, static, hier, model)
	if err != nil {
		t.Fatal(err)
	}
	return rep, info
}

// timeLoopProgram: an outer time loop re-streams an array that far
// exceeds C1 but fits in C2.
func timeLoopProgram() (*ir.Program, *ir.Loop, *ir.Loop) {
	p := ir.NewProgram("timeloop")
	n := p.Param("N", 64) // 64 lines of 8 elements
	a := p.AddArray("A", 8, ir.Mul(n, ir.C(8)))
	tv, i := p.Var("t"), p.Var("i")
	main := p.AddRoutine("main", "f", 1)
	inner := ir.For(i, ir.C(0), ir.Sub(ir.Mul(n, ir.C(8)), ir.C(1)), ir.Do(a.Read(i))).At(3)
	outer := ir.For(tv, ir.C(0), ir.C(9), inner).AsTimeStep().At(2)
	main.Body = []ir.Stmt{outer}
	return p, outer, inner
}

func TestCarriedMissesTimeLoop(t *testing.T) {
	p, outer, inner := timeLoopProgram()
	rep, info := analyze(t, p, smallHier(), FullyAssoc)

	c1 := rep.Level("C1")
	if c1 == nil {
		t.Fatal("no C1 report")
	}
	// 64 lines > 8-line C1: every revisit misses. 10 passes over 64 lines:
	// 64 cold + 9*64 carried-by-t misses.
	if c1.ColdMisses != 64 {
		t.Errorf("cold = %v, want 64", c1.ColdMisses)
	}
	if c1.TotalMisses != 640 {
		t.Errorf("total = %v, want 640", c1.TotalMisses)
	}
	carried := c1.CarriedByScope[outer.Scope()]
	if carried != 576 {
		t.Errorf("carried by time loop = %v, want 576", carried)
	}
	if got := c1.CarriedPercent(outer.Scope()); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("carried percent = %v, want 0.9", got)
	}
	// C2 holds the whole array: only cold misses, nothing carried.
	c2 := rep.Level("C2")
	if c2.TotalMisses != 64 {
		t.Errorf("C2 total = %v, want 64 (cold only)", c2.TotalMisses)
	}
	if c2.CarriedByScope[outer.Scope()] != 0 {
		t.Errorf("C2 carried = %v, want 0", c2.CarriedByScope[outer.Scope()])
	}
	// Top carrier at C1 is the time loop.
	top := c1.TopCarriers(1)
	if len(top) != 1 || top[0] != outer.Scope() {
		t.Errorf("top carrier = %v, want time loop scope %d", top, outer.Scope())
	}
	// The inner loop carries nothing here (each line touched once per pass
	// within the loop... all its reuse arcs come from the previous pass).
	if c1.CarriedByScope[inner.Scope()] != 0 {
		t.Errorf("inner loop carried = %v, want 0", c1.CarriedByScope[inner.Scope()])
	}
	// Scope tree marked the time-step loop.
	if !info.Scopes.Node(outer.Scope()).TimeStep {
		t.Error("outer loop should be marked TimeStep")
	}
}

func TestMissesByScopeAndInclusive(t *testing.T) {
	p, _, inner := timeLoopProgram()
	rep, info := analyze(t, p, smallHier(), FullyAssoc)
	c1 := rep.Level("C1")
	// All misses happen at the reference in the inner loop.
	if got := c1.MissesByScope[inner.Scope()]; got != 640 {
		t.Errorf("misses at inner scope = %v, want 640", got)
	}
	incl := info.Scopes.Inclusive(c1.MissesByScope)
	if incl[info.Scopes.Root()] != 640 {
		t.Errorf("inclusive at root = %v, want 640", incl[info.Scopes.Root()])
	}
}

func TestPatternDatabaseSortedAndConsistent(t *testing.T) {
	p, _, _ := timeLoopProgram()
	rep, _ := analyze(t, p, smallHier(), FullyAssoc)
	c1 := rep.Level("C1")
	if len(c1.Patterns) == 0 {
		t.Fatal("no patterns")
	}
	for i := 1; i < len(c1.Patterns); i++ {
		if c1.Patterns[i].Misses > c1.Patterns[i-1].Misses {
			t.Fatal("patterns not sorted by misses")
		}
	}
	// Sum of pattern misses + cold == total.
	var sum float64
	for _, pr := range c1.Patterns {
		sum += pr.Misses
	}
	if math.Abs(sum+c1.ColdMisses-c1.TotalMisses) > 1e-9 {
		t.Errorf("pattern sum %v + cold %v != total %v", sum, c1.ColdMisses, c1.TotalMisses)
	}
}

func TestFragmentationAttribution(t *testing.T) {
	// AoS field walk: frag factor 1-8/56; fragmentation misses must be
	// that fraction of the array's pattern misses.
	p := ir.NewProgram("aos")
	n := p.Param("N", 512)
	zion := p.AddArray("zion", 8, ir.C(7), n)
	tv, i := p.Var("t"), p.Var("i")
	main := p.AddRoutine("main", "f", 1)
	main.Body = []ir.Stmt{
		ir.For(tv, ir.C(0), ir.C(4),
			ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)),
				ir.Do(zion.Read(ir.C(2), i)))),
	}
	rep, _ := analyze(t, p, smallHier(), FullyAssoc)
	c1 := rep.Level("C1")
	wantFrag := 1 - 8.0/56.0
	var patMisses float64
	for _, pr := range c1.Patterns {
		if pr.Array != "zion" {
			continue
		}
		if math.Abs(pr.FragFactor-wantFrag) > 1e-12 {
			t.Errorf("pattern frag factor = %v, want %v", pr.FragFactor, wantFrag)
		}
		patMisses += pr.Misses
	}
	got := c1.FragMissesByArray["zion"]
	if math.Abs(got-wantFrag*patMisses) > 1e-9 {
		t.Errorf("frag misses = %v, want %v", got, wantFrag*patMisses)
	}
	if arrs := c1.TopFragArrays(1); len(arrs) != 1 || arrs[0] != "zion" {
		t.Errorf("TopFragArrays = %v", arrs)
	}
}

func TestIrregularMissClassification(t *testing.T) {
	// Gather through a permutation repeatedly: reuse carried by the time
	// loop is fine, but reuse carried by the gather loop is indirect.
	p := ir.NewProgram("gather")
	n := p.Param("N", 256)
	idx := p.AddDataArray("idx", 8, n)
	a := p.AddArray("A", 8, n)
	tv, i := p.Var("t"), p.Var("i")
	main := p.AddRoutine("main", "f", 1)
	main.Body = []ir.Stmt{
		ir.For(tv, ir.C(0), ir.C(4),
			ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)),
				ir.Do(a.Read(&ir.Load{Array: idx, Index: []ir.Expr{i}})))),
	}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	hier := smallHier()
	col := reusedist.NewCollector(hier.Granularities(), 0)
	run, err := interp.Run(info, nil, col, interp.WithInit(func(m *interp.Machine) error {
		nn := m.Param("N")
		// A permutation that revisits lines within the same i-loop pass:
		// idx alternates between the two halves.
		m.FillData(idx, func(k int64) int64 {
			if k%2 == 0 {
				return k / 2
			}
			return nn/2 + k/2
		})
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	mach, _ := interp.Layout(info, nil)
	static := staticanalysis.Analyze(info, mach, staticanalysis.TripsFromRun(run, 1))
	rep, err := Build(info, col, static, hier, FullyAssoc)
	if err != nil {
		t.Fatal(err)
	}
	c1 := rep.Level("C1")
	// Patterns carried by the i loop must be classified irregular.
	var sawIrregular bool
	for _, pr := range c1.Patterns {
		l, ok := info.LoopByScope[pr.Carrying]
		if ok && l.Var.Name == "i" {
			if !pr.Irregular {
				t.Errorf("pattern carried by gather loop not irregular: %+v", pr)
			}
			sawIrregular = true
		}
	}
	if !sawIrregular {
		t.Log("no pattern carried by i loop; irregular accounting unexercised")
	}
	if c1.IrregularMisses < 0 {
		t.Error("irregular misses negative")
	}
}

func TestCarriedBreakdown(t *testing.T) {
	// Producer writes A in one loop, consumer reads it in another; the
	// routine body carries the reuse from producer to consumer.
	p := ir.NewProgram("prodcons")
	n := p.Param("N", 128)
	a := p.AddArray("A", 8, ir.Mul(n, ir.C(8)))
	tv, i, j := p.Var("t"), p.Var("i"), p.Var("j")
	main := p.AddRoutine("main", "f", 1)
	prod := ir.For(i, ir.C(0), ir.Sub(ir.Mul(n, ir.C(8)), ir.C(1)), ir.Do(a.WriteRef(i))).At(10)
	cons := ir.For(j, ir.C(0), ir.Sub(ir.Mul(n, ir.C(8)), ir.C(1)), ir.Do(a.Read(j))).At(20)
	outer := ir.For(tv, ir.C(0), ir.C(3), prod, cons).At(5)
	main.Body = []ir.Stmt{outer}
	rep, _ := analyze(t, p, smallHier(), FullyAssoc)
	c1 := rep.Level("C1")

	bd := c1.CarriedBreakdown(outer.Scope())
	if len(bd) == 0 {
		t.Fatal("no carried breakdown for outer loop")
	}
	// Both (prod -> cons) and (cons -> prod) slices must appear: the
	// consumer reuses what the producer wrote within the same t iteration
	// is carried by t? No: prod->cons within one iteration is carried by
	// outer's body... the carrying scope is outer (the innermost scope
	// containing both). Check at least that sources and dests are the two
	// loops.
	seen := map[[2]trace.ScopeID]bool{}
	for _, s := range bd {
		seen[[2]trace.ScopeID{s.Source, s.Dest}] = true
		if s.Array != "A" {
			t.Errorf("array = %q", s.Array)
		}
	}
	if !seen[[2]trace.ScopeID{prod.Scope(), cons.Scope()}] {
		t.Error("missing producer->consumer slice")
	}
	if !seen[[2]trace.ScopeID{cons.Scope(), prod.Scope()}] {
		t.Error("missing consumer->producer slice")
	}
	// Breakdown sums to the carried count.
	var sum float64
	for _, s := range bd {
		sum += s.Misses
	}
	if math.Abs(sum-c1.CarriedByScope[outer.Scope()]) > 1e-9 {
		t.Errorf("breakdown sum %v != carried %v", sum, c1.CarriedByScope[outer.Scope()])
	}
}

func TestSetAssocModelClose(t *testing.T) {
	p, _, _ := timeLoopProgram()
	repFA, _ := analyze(t, p, smallHier(), FullyAssoc)
	repSA, _ := analyze(t, p, smallHier(), SetAssoc)
	// Both hierarchies here are fully associative, so the "set assoc"
	// model must agree closely with the exact counts.
	fa := repFA.Level("C1").TotalMisses
	sa := repSA.Level("C1").TotalMisses
	if math.Abs(fa-sa)/fa > 0.02 {
		t.Errorf("SetAssoc %v vs FullyAssoc %v differ by more than 2%%", sa, fa)
	}
}

func TestArrayPatternsFilter(t *testing.T) {
	p, _, _ := timeLoopProgram()
	rep, _ := analyze(t, p, smallHier(), FullyAssoc)
	c1 := rep.Level("C1")
	ps := c1.ArrayPatterns("A")
	if len(ps) != len(c1.Patterns) {
		t.Errorf("ArrayPatterns(A) = %d, want all %d", len(ps), len(c1.Patterns))
	}
	if got := c1.ArrayPatterns("nope"); len(got) != 0 {
		t.Errorf("ArrayPatterns(nope) = %d, want 0", len(got))
	}
}

func TestBuildErrors(t *testing.T) {
	p, _, _ := timeLoopProgram()
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	hier := smallHier()
	col := reusedist.NewCollector(nil, 0) // empty collector
	if _, err := Build(info, col, nil, hier, FullyAssoc); err == nil {
		t.Error("Build with missing level data should fail")
	}
}

func TestPerScopeMissRate(t *testing.T) {
	p, _, inner := timeLoopProgram()
	rep, _ := analyze(t, p, smallHier(), FullyAssoc)
	c1 := rep.Level("C1")
	// 10 passes x 512 elements, all at the inner loop; every 8th access
	// opens a new 64-byte line and misses in tiny C1.
	if got := c1.AccessesByScope[inner.Scope()]; got != 5120 {
		t.Errorf("accesses at inner scope = %v, want 5120", got)
	}
	if got := c1.MissRate(inner.Scope()); got != 0.125 {
		t.Errorf("miss rate at inner scope = %v, want 0.125", got)
	}
	// Scopes without accesses report rate 0.
	if got := c1.MissRate(0); got != 0 {
		t.Errorf("root miss rate = %v, want 0", got)
	}
	if got := c1.MissRate(-1); got != 0 {
		t.Errorf("invalid scope miss rate = %v, want 0", got)
	}
	// C2 (fits the working set): rate is cold-only, well below 1.
	c2 := rep.Level("C2")
	if r := c2.MissRate(inner.Scope()); r <= 0 || r >= 0.5 {
		t.Errorf("C2 miss rate = %v, want small positive", r)
	}
}

func TestThreeCClassification(t *testing.T) {
	// A cyclic scan over a working set just above capacity: with the
	// FullyAssoc model every non-cold miss is a capacity miss and
	// conflict misses are zero by construction.
	p, _, _ := timeLoopProgram()
	rep, _ := analyze(t, p, smallHier(), FullyAssoc)
	c1 := rep.Level("C1")
	if c1.ConflictMisses != 0 {
		t.Errorf("FullyAssoc conflict misses = %v, want 0", c1.ConflictMisses)
	}
	if want := c1.TotalMisses - c1.ColdMisses; c1.CapacityMisses != want {
		t.Errorf("capacity = %v, want %v", c1.CapacityMisses, want)
	}
	// A direct-mapped cache with two ping-ponging blocks: almost all
	// misses are conflict misses (the working set is 2 blocks; capacity
	// is 4).
	prog := ir.NewProgram("pingpong")
	a := p2Array(prog)
	i := prog.Var("i")
	main := prog.AddRoutine("main", "f", 1)
	main.Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.C(199),
			ir.Do(a.Read(ir.C(0)), a.Read(ir.C(32))), // blocks 0 and 4: same set
		),
	}
	dm := &cache.Hierarchy{Levels: []cache.Level{
		{Name: "DM", LineBits: 6, Sets: 4, Assoc: 1, Latency: 1},
	}}
	rep2, _ := analyze(t, prog, dm, SetAssoc)
	l := rep2.Level("DM")
	if l.CapacityMisses != 0 {
		t.Errorf("capacity misses = %v, want 0 (working set fits)", l.CapacityMisses)
	}
	// The binomial model assumes uniform set placement, so it expects
	// P=1/4 of the ~400 distance-1 reuses to collide (~100); what matters
	// here is that every predicted non-cold miss is classified as
	// conflict, none as capacity.
	if l.ConflictMisses < 90 {
		t.Errorf("conflict misses = %v, want ~100 (binomial ping-pong estimate)", l.ConflictMisses)
	}
	if math.Abs(l.TotalMisses-(l.ColdMisses+l.CapacityMisses+l.ConflictMisses)) > 1e-9 {
		t.Errorf("3C components do not sum: %v vs %v+%v+%v",
			l.TotalMisses, l.ColdMisses, l.CapacityMisses, l.ConflictMisses)
	}
}

func p2Array(p *ir.Program) *ir.Array { return p.AddArray("A", 8, ir.C(64)) }

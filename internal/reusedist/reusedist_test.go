package reusedist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"reusetool/internal/ostree"
	"reusetool/internal/trace"
)

// scan emits accesses to blocks [0, n) at 64-byte block granularity.
func scan(h trace.Handler, ref trace.RefID, n int) {
	for i := 0; i < n; i++ {
		h.Access(ref, uint64(i)*64, 8, false)
	}
}

func TestSequentialScanDistances(t *testing.T) {
	e := New(Config{BlockBits: 6, Thresholds: []uint64{4, 100}})
	e.EnterScope(0)
	scan(e, 1, 10) // first pass: all cold
	scan(e, 1, 10) // second pass: every access reuses at distance 9
	e.ExitScope(0)

	rd := e.Ref(1)
	if rd == nil {
		t.Fatal("no data for ref 1")
	}
	if rd.Total != 20 {
		t.Errorf("Total = %d, want 20", rd.Total)
	}
	if rd.Cold != 10 {
		t.Errorf("Cold = %d, want 10", rd.Cold)
	}
	if len(rd.Patterns) != 1 {
		t.Fatalf("patterns = %d, want 1", len(rd.Patterns))
	}
	for key, p := range rd.Patterns {
		if key.Source != 0 || key.Carrying != 0 {
			t.Errorf("pattern key = %+v, want {0 0}", key)
		}
		if p.Count != 10 {
			t.Errorf("pattern count = %d, want 10", p.Count)
		}
		if p.Hist.Quantile(0.5) != 9 {
			t.Errorf("median distance = %d, want 9", p.Hist.Quantile(0.5))
		}
		// distance 9 >= 4 but < 100.
		if p.MissAt[0] != 10 {
			t.Errorf("misses at capacity 4 = %d, want 10", p.MissAt[0])
		}
		if p.MissAt[1] != 0 {
			t.Errorf("misses at capacity 100 = %d, want 0", p.MissAt[1])
		}
	}
	if got := rd.MissAt(0); got != 20 { // 10 cold + 10 capacity
		t.Errorf("MissAt(0) = %d, want 20", got)
	}
	if got := rd.MissAt(1); got != 10 { // cold only
		t.Errorf("MissAt(1) = %d, want 10", got)
	}
}

func TestSameBlockReuseIsDistanceZero(t *testing.T) {
	e := New(Config{BlockBits: 6, Thresholds: []uint64{1}})
	e.EnterScope(0)
	e.Access(1, 0, 8, false)
	e.Access(1, 8, 8, false) // same 64-byte block: spatial reuse, distance 0
	e.ExitScope(0)
	rd := e.Ref(1)
	for _, p := range rd.Patterns {
		if p.Hist.Quantile(1) != 0 {
			t.Errorf("distance = %d, want 0", p.Hist.Quantile(1))
		}
		if p.MissAt[0] != 0 {
			t.Errorf("distance-0 reuse counted as miss at capacity 1")
		}
	}
}

// TestCarryingScopeOuterLoop models Fig. 1(a): an inner loop scans a row,
// and the reuse of each block is carried by the outer loop.
func TestCarryingScopeOuterLoop(t *testing.T) {
	const (
		outer trace.ScopeID = 1
		inner trace.ScopeID = 2
	)
	e := New(Config{BlockBits: 6})
	e.EnterScope(0)
	e.EnterScope(outer)
	for i := 0; i < 3; i++ { // outer iterations revisit the same blocks
		e.EnterScope(inner)
		scan(e, 7, 5)
		e.ExitScope(inner)
	}
	e.ExitScope(outer)
	e.ExitScope(0)

	rd := e.Ref(7)
	if rd.Scope != inner {
		t.Errorf("ref scope = %d, want inner", rd.Scope)
	}
	if len(rd.Patterns) != 1 {
		t.Fatalf("patterns = %d, want 1: %+v", len(rd.Patterns), rd.Patterns)
	}
	for key := range rd.Patterns {
		if key.Source != inner {
			t.Errorf("source = %d, want inner(%d)", key.Source, inner)
		}
		if key.Carrying != outer {
			t.Errorf("carrying = %d, want outer(%d)", key.Carrying, outer)
		}
	}
}

// TestCarryingScopeInnerLoop checks that reuse within a single loop
// iteration sequence is carried by that loop itself.
func TestCarryingScopeInnerLoop(t *testing.T) {
	const inner trace.ScopeID = 2
	e := New(Config{BlockBits: 6})
	e.EnterScope(0)
	e.EnterScope(inner)
	// Access pattern A B A B ...: reuse of A is carried by the loop that
	// contains both accesses.
	for i := 0; i < 4; i++ {
		e.Access(1, 0, 8, false)
		e.Access(1, 1024, 8, false)
	}
	e.ExitScope(inner)
	e.ExitScope(0)
	rd := e.Ref(1)
	for key := range rd.Patterns {
		if key.Carrying != inner {
			t.Errorf("carrying = %d, want inner(%d)", key.Carrying, inner)
		}
	}
}

// TestPatternSeparationBySource verifies that arcs from different source
// scopes land in different histograms for the same sink reference.
func TestPatternSeparationBySource(t *testing.T) {
	const (
		prod trace.ScopeID = 1
		cons trace.ScopeID = 2
	)
	e := New(Config{BlockBits: 6})
	e.EnterScope(0)
	// Producer touches blocks 0..9 (ref 1), consumer reads them (ref 2),
	// then consumer re-reads them (ref 2 again, source now cons).
	e.EnterScope(prod)
	scan(e, 1, 10)
	e.ExitScope(prod)
	e.EnterScope(cons)
	scan(e, 2, 10)
	scan(e, 2, 10)
	e.ExitScope(cons)
	e.ExitScope(0)

	rd := e.Ref(2)
	if len(rd.Patterns) != 2 {
		t.Fatalf("patterns = %d, want 2", len(rd.Patterns))
	}
	var sources []trace.ScopeID
	for key, p := range rd.Patterns {
		sources = append(sources, key.Source)
		if p.Count != 10 {
			t.Errorf("pattern %+v count = %d, want 10", key, p.Count)
		}
	}
	seen := map[trace.ScopeID]bool{}
	for _, s := range sources {
		seen[s] = true
	}
	if !seen[prod] || !seen[cons] {
		t.Errorf("sources = %v, want both prod and cons", sources)
	}
}

func TestAccessSpanningBlocks(t *testing.T) {
	e := New(Config{BlockBits: 6})
	e.EnterScope(0)
	e.Access(1, 60, 8, false) // touches blocks 0 and 1
	e.ExitScope(0)
	if e.Clock() != 2 {
		t.Errorf("clock = %d, want 2 (two blocks touched)", e.Clock())
	}
	if e.DistinctBlocks() != 2 {
		t.Errorf("distinct blocks = %d, want 2", e.DistinctBlocks())
	}
}

func TestZeroSizeAccess(t *testing.T) {
	e := New(Config{BlockBits: 6})
	e.EnterScope(0)
	e.Access(1, 64, 0, false)
	e.ExitScope(0)
	if e.Clock() != 1 {
		t.Errorf("clock = %d, want 1", e.Clock())
	}
}

// randomTrace drives both handlers with the same random, properly nested
// event stream.
func randomTrace(seed int64, events int, h trace.Handler) {
	rng := rand.New(rand.NewSource(seed))
	depth := 0
	h.EnterScope(0)
	depth++
	nextScope := trace.ScopeID(1)
	var open []trace.ScopeID
	open = append(open, 0)
	for i := 0; i < events; i++ {
		switch r := rng.Intn(10); {
		case r < 2 && depth < 8:
			s := nextScope
			// Reuse a small set of scope IDs to get repeated patterns.
			if rng.Intn(2) == 0 {
				s = trace.ScopeID(1 + rng.Intn(6))
			} else {
				nextScope++
			}
			h.EnterScope(s)
			open = append(open, s)
			depth++
		case r < 3 && depth > 1:
			h.ExitScope(open[len(open)-1])
			open = open[:len(open)-1]
			depth--
		default:
			ref := trace.RefID(rng.Intn(5))
			// Cluster addresses so reuses actually happen.
			addr := uint64(rng.Intn(50)) * 64
			h.Access(ref, addr, uint32(1+rng.Intn(16)), rng.Intn(2) == 0)
		}
	}
	for depth > 0 {
		h.ExitScope(open[len(open)-1])
		open = open[:len(open)-1]
		depth--
	}
}

func patternsEqual(t *testing.T, a, b *RefData) bool {
	t.Helper()
	if a.Total != b.Total || a.Cold != b.Cold || a.Scope != b.Scope {
		return false
	}
	if len(a.Patterns) != len(b.Patterns) {
		return false
	}
	for key, pa := range a.Patterns {
		pb := b.Patterns[key]
		if pb == nil || pa.Count != pb.Count {
			return false
		}
		for i := range pa.MissAt {
			if pa.MissAt[i] != pb.MissAt[i] {
				return false
			}
		}
		if pa.Hist.Total() != pb.Hist.Total() || pa.Hist.Max() != pb.Hist.Max() ||
			pa.Hist.Mean() != pb.Hist.Mean() {
			return false
		}
	}
	return true
}

// TestEngineMatchesNaive is the central differential test: the O(log M)
// engine must agree exactly with the O(N·M) reference implementation,
// pattern by pattern, for every tree implementation.
func TestEngineMatchesNaive(t *testing.T) {
	for _, kind := range []ostree.Kind{ostree.KindEpoch, ostree.KindAVL, ostree.KindFenwick} {
		f := func(seed int64) bool {
			thresholds := []uint64{4, 16, 64}
			e := New(Config{BlockBits: 6, Thresholds: thresholds, Tree: kind})
			n := NewNaive(6, thresholds)
			randomTrace(seed, 2000, trace.Multi{e, n})
			for _, rd := range e.Refs() {
				nd := n.Ref(rd.Ref)
				if nd == nil || !patternsEqual(t, rd, nd) {
					return false
				}
			}
			return len(e.Refs()) == len(n.Refs())
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

func TestCollectorLevelsAndEngines(t *testing.T) {
	c := NewCollector([]Granularity{
		{Name: "line", BlockBits: 7, Thresholds: []uint64{2048, 12288}, LevelNames: []string{"L2", "L3"}},
		{Name: "page", BlockBits: 14, Thresholds: []uint64{128}, LevelNames: []string{"TLB"}},
	}, 0)
	c.EnterScope(0)
	for i := 0; i < 1000; i++ {
		c.Access(1, uint64(i%100)*128, 8, false)
	}
	c.ExitScope(0)

	if e := c.Engine("line"); e == nil || e.BlockBits() != 7 {
		t.Fatal("line engine missing or misconfigured")
	}
	if e := c.Engine("nope"); e != nil {
		t.Fatal("unknown engine name should return nil")
	}
	e, idx := c.Level("L3")
	if e == nil || idx != 1 {
		t.Fatalf("Level(L3) = %v, %d", e, idx)
	}
	if e2, idx2 := c.Level("TLB"); e2 == nil || idx2 != 0 || e2.BlockBits() != 14 {
		t.Fatalf("Level(TLB) misconfigured")
	}
	if _, idx := c.Level("L1"); idx != -1 {
		t.Fatal("unknown level should return -1")
	}
	// The page engine sees 100 lines mapping to fewer pages.
	if c.Engine("page").DistinctBlocks() >= c.Engine("line").DistinctBlocks() {
		t.Error("page-granularity engine should see fewer distinct blocks")
	}
}

func TestTotalsConsistency(t *testing.T) {
	e := New(Config{BlockBits: 6, Thresholds: []uint64{8}})
	randomTrace(3, 5000, e)
	var totals, cold uint64
	for _, rd := range e.Refs() {
		totals += rd.Total
		cold += rd.Cold
		// Per-ref: finite arcs + cold == total accesses.
		var finite uint64
		for _, p := range rd.Patterns {
			finite += p.Count
			if p.Hist.Total() != p.Count {
				t.Errorf("ref %d: hist total %d != pattern count %d", rd.Ref, p.Hist.Total(), p.Count)
			}
		}
		if finite+rd.Cold != rd.Total {
			t.Errorf("ref %d: finite %d + cold %d != total %d", rd.Ref, finite, rd.Cold, rd.Total)
		}
	}
	if totals != e.Clock() {
		t.Errorf("sum of ref totals %d != clock %d", totals, e.Clock())
	}
	if cold != e.TotalCold() {
		t.Errorf("cold sum mismatch")
	}
	if uint64(e.DistinctBlocks()) != cold {
		t.Errorf("distinct blocks %d != compulsory accesses %d", e.DistinctBlocks(), cold)
	}
	if e.TotalMissAt(0) < e.TotalCold() {
		t.Errorf("misses cannot be fewer than compulsory misses")
	}
}

func BenchmarkEngineEpoch(b *testing.B)   { benchEngine(b, ostree.KindEpoch) }
func BenchmarkEngineAVL(b *testing.B)     { benchEngine(b, ostree.KindAVL) }
func BenchmarkEngineFenwick(b *testing.B) { benchEngine(b, ostree.KindFenwick) }

func benchEngine(b *testing.B, kind ostree.Kind) {
	e := New(Config{BlockBits: 7, Thresholds: []uint64{2048, 12288}, Tree: kind})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	e.EnterScope(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Access(trace.RefID(i&7), addrs[i&0xffff], 8, false)
	}
}

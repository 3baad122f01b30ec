package ostree

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// brute is an O(n) reference implementation backed by a slice.
type brute struct {
	keys []uint64
}

func (b *brute) Insert(t uint64) { b.keys = append(b.keys, t) }

func (b *brute) Delete(t uint64) {
	for i, k := range b.keys {
		if k == t {
			b.keys[i] = b.keys[len(b.keys)-1]
			b.keys = b.keys[:len(b.keys)-1]
			return
		}
	}
}

func (b *brute) CountGreater(t uint64) uint64 {
	var c uint64
	for _, k := range b.keys {
		if k > t {
			c++
		}
	}
	return c
}

func (b *brute) Len() int { return len(b.keys) }

func implementations() map[string]func() Tree {
	return map[string]func() Tree{
		"AVL":   func() Tree { return NewAVL(0) },
		"Epoch": func() Tree { return NewEpoch(16) },
	}
}

func TestEmptyTree(t *testing.T) {
	for name, mk := range implementations() {
		tr := mk()
		if tr.Len() != 0 {
			t.Errorf("%s: empty Len = %d", name, tr.Len())
		}
		if got := tr.CountGreater(0); got != 0 {
			t.Errorf("%s: empty CountGreater(0) = %d", name, got)
		}
		tr.Delete(42) // must be a no-op
		if tr.Len() != 0 {
			t.Errorf("%s: Len after no-op delete = %d", name, tr.Len())
		}
	}
}

func TestSingleElement(t *testing.T) {
	for name, mk := range implementations() {
		tr := mk()
		tr.Insert(10)
		if tr.Len() != 1 {
			t.Errorf("%s: Len = %d, want 1", name, tr.Len())
		}
		if got := tr.CountGreater(5); got != 1 {
			t.Errorf("%s: CountGreater(5) = %d, want 1", name, got)
		}
		if got := tr.CountGreater(10); got != 0 {
			t.Errorf("%s: CountGreater(10) = %d, want 0", name, got)
		}
		if got := tr.CountGreater(15); got != 0 {
			t.Errorf("%s: CountGreater(15) = %d, want 0", name, got)
		}
		tr.Delete(10)
		if tr.Len() != 0 {
			t.Errorf("%s: Len after delete = %d, want 0", name, tr.Len())
		}
	}
}

func TestSequentialInsertRank(t *testing.T) {
	for name, mk := range implementations() {
		tr := mk()
		const n = 1000
		for i := uint64(1); i <= n; i++ {
			tr.Insert(i)
		}
		for i := uint64(1); i <= n; i++ {
			if got := tr.CountGreater(i); got != n-i {
				t.Fatalf("%s: CountGreater(%d) = %d, want %d", name, i, got, n-i)
			}
		}
	}
}

// TestReuseDistanceUsagePattern exercises the exact pattern the
// reuse-distance engine performs: delete an old timestamp, insert the
// current time, query the rank of the old timestamp first.
func TestReuseDistanceUsagePattern(t *testing.T) {
	for name, mk := range implementations() {
		tr := mk()
		ref := &brute{}
		rng := rand.New(rand.NewSource(7))
		// live maps block -> last access time.
		live := map[int]uint64{}
		now := uint64(0)
		for step := 0; step < 20000; step++ {
			now++
			block := rng.Intn(200)
			if old, ok := live[block]; ok {
				want := ref.CountGreater(old)
				got := tr.CountGreater(old)
				if got != want {
					t.Fatalf("%s: step %d CountGreater(%d) = %d, want %d", name, step, old, got, want)
				}
				tr.Delete(old)
				ref.Delete(old)
			}
			tr.Insert(now)
			ref.Insert(now)
			live[block] = now
			if tr.Len() != ref.Len() {
				t.Fatalf("%s: Len = %d, want %d", name, tr.Len(), ref.Len())
			}
		}
	}
}

// TestRandomOpsQuick compares each implementation against the brute-force
// reference on random operation sequences using testing/quick.
func TestRandomOpsQuick(t *testing.T) {
	for name, mk := range implementations() {
		name, mk := name, mk
		f := func(seed int64, nOps uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			tr := mk()
			ref := &brute{}
			now := uint64(0)
			inserted := []uint64{}
			for i := 0; i < int(nOps)+1; i++ {
				switch rng.Intn(3) {
				case 0: // insert
					now++
					tr.Insert(now)
					ref.Insert(now)
					inserted = append(inserted, now)
				case 1: // delete a random live key
					if len(ref.keys) > 0 {
						k := ref.keys[rng.Intn(len(ref.keys))]
						tr.Delete(k)
						ref.Delete(k)
					}
				case 2: // query a random previously inserted key
					if len(inserted) > 0 {
						k := inserted[rng.Intn(len(inserted))]
						if tr.CountGreater(k) != ref.CountGreater(k) {
							return false
						}
					}
				}
				if tr.Len() != ref.Len() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestAVLInvariantsUnderChurn(t *testing.T) {
	tr := NewAVL(0)
	rng := rand.New(rand.NewSource(11))
	live := map[int]uint64{}
	now := uint64(0)
	for step := 0; step < 5000; step++ {
		now++
		block := rng.Intn(64)
		if old, ok := live[block]; ok {
			tr.Delete(old)
		}
		tr.Insert(now)
		live[block] = now
		if step%500 == 0 && !tr.checkInvariants() {
			t.Fatalf("AVL invariants violated at step %d", step)
		}
	}
	if !tr.checkInvariants() {
		t.Fatal("AVL invariants violated at end")
	}
	// Drain and re-check.
	for _, v := range live {
		tr.Delete(v)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", tr.Len())
	}
	if !tr.checkInvariants() {
		t.Fatal("AVL invariants violated after drain")
	}
}

func TestAVLNodeReuse(t *testing.T) {
	tr := NewAVL(4)
	for round := 0; round < 10; round++ {
		base := uint64(round * 1000)
		for i := uint64(1); i <= 100; i++ {
			tr.Insert(base + i)
		}
		for i := uint64(1); i <= 100; i++ {
			tr.Delete(base + i)
		}
	}
	// The pool should not have grown far beyond the peak live size.
	if len(tr.nodes) > 200 {
		t.Errorf("node pool grew to %d entries for a peak of 100 live keys", len(tr.nodes))
	}
}

// TestAllKindsAgreeWithOracle drives AVL and the epoch-compacted binary
// indexed tree through the same random insert/delete/count/touch
// interleavings and checks every query against the brute-force oracle. The
// two structures are interchangeable inside the engine (Config.Tree), so
// any divergence here would silently change reported reuse distances.
func TestAllKindsAgreeWithOracle(t *testing.T) {
	kinds := []Kind{KindEpoch, KindAVL}
	f := func(seed int64, nOps uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		trees := make([]Tree, len(kinds))
		for i, k := range kinds {
			trees[i] = NewTree(k, 0)
		}
		ref := &brute{}
		now := uint64(0)
		inserted := []uint64{}
		for i := 0; i < int(nOps)%2000+1; i++ {
			switch rng.Intn(5) {
			case 0, 1: // insert, sometimes with a clock gap to break affine runs
				now += uint64(rng.Intn(3) + 1)
				for _, tr := range trees {
					tr.Insert(now)
				}
				ref.Insert(now)
				inserted = append(inserted, now)
			case 2: // delete a random live key
				if len(ref.keys) > 0 {
					k := ref.keys[rng.Intn(len(ref.keys))]
					for _, tr := range trees {
						tr.Delete(k)
					}
					ref.Delete(k)
				}
			case 3: // query any previously seen (possibly deleted) key
				if len(inserted) > 0 {
					k := inserted[rng.Intn(len(inserted))]
					want := ref.CountGreater(k)
					for _, tr := range trees {
						if got := tr.CountGreater(k); got != want {
							return false
						}
					}
				}
			default: // touch a random live key to now+1, as the engine does on a reuse
				if len(ref.keys) > 0 {
					k := ref.keys[rng.Intn(len(ref.keys))]
					want := ref.CountGreater(k)
					now++
					for _, tr := range trees {
						if got := tr.Touch(k, now); got != want {
							return false
						}
					}
					ref.Delete(k)
					ref.Insert(now)
					inserted = append(inserted, now)
				}
			}
			for _, tr := range trees {
				if tr.Len() != ref.Len() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestEpochWindowBoundaryGrowth pushes the live set past the historical
// 1<<16 default window so compaction must grow the slot space. Before growth
// was made explicit this was the regime where a full window of live slots
// could recycle slots incorrectly.
func TestEpochWindowBoundaryGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("large live set; skipped in -short")
	}
	const n = 1<<16 + 5000
	tr := NewEpoch(1 << 16)
	for i := uint64(1); i <= n; i++ {
		tr.Insert(i)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for _, q := range []uint64{1, 255, 1 << 15, 1 << 16, 1<<16 + 1, n - 1, n} {
		if got, want := tr.CountGreater(q), uint64(n-q); got != want {
			t.Errorf("CountGreater(%d) = %d, want %d", q, got, want)
		}
	}
	// Churn across the boundary: delete the older half, keep counting.
	for i := uint64(1); i <= n/2; i++ {
		tr.Delete(i)
	}
	if got, want := tr.CountGreater(n/2), uint64(n-n/2); got != want {
		t.Errorf("after deletes CountGreater(%d) = %d, want %d", n/2, got, want)
	}
	if got, want := tr.CountGreater(0), uint64(n-n/2); got != want {
		t.Errorf("after deletes CountGreater(0) = %d, want %d", got, want)
	}
}

// TestEpochCompactionChurn inserts and deletes far more keys than the window
// holds, forcing many compactions, with clock gaps mixed in so compaction
// interacts with broken affine runs.
func TestEpochCompactionChurn(t *testing.T) {
	e := NewEpoch(16)
	ref := &brute{}
	live := []uint64{}
	now := uint64(0)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		now += uint64(rng.Intn(2) + 1)
		e.Insert(now)
		ref.Insert(now)
		live = append(live, now)
		if len(live) > 24 {
			j := rng.Intn(len(live))
			e.Delete(live[j])
			ref.Delete(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if i%53 == 0 && len(live) > 0 {
			k := live[rng.Intn(len(live))]
			if got, want := e.CountGreater(k), ref.CountGreater(k); got != want {
				t.Fatalf("after %d ops: CountGreater(%d) = %d, want %d", i, k, got, want)
			}
		}
	}
}

// epochConsistent checks e against the oracle: the live slots hold exactly
// ref's keys, in increasing order, and every BIT prefix sum equals the
// number of live flags up to that slot. The last check catches a fused
// update walk that stops one node early or late.
func epochConsistent(e *Epoch, ref *brute) error {
	if e.Len() != ref.Len() {
		return fmt.Errorf("Len = %d, want %d", e.Len(), ref.Len())
	}
	want := map[uint64]bool{}
	for _, k := range ref.keys {
		want[k] = true
	}
	var live uint32
	var last uint64
	for s := int32(0); s < int32(len(e.live)); s++ {
		if e.live[s] {
			if s >= e.next {
				return fmt.Errorf("slot %d live beyond next %d", s, e.next)
			}
			t := e.slotTime[s]
			if !want[t] || (live > 0 && t <= last) {
				return fmt.Errorf("slot %d holds %d, not an oracle key in order", s, t)
			}
			live++
			last = t
		}
		if got := e.prefix(s); got != live {
			return fmt.Errorf("prefix(%d) = %d, want %d", s, got, live)
		}
	}
	if int(live) != len(want) {
		return fmt.Errorf("%d live slots, want %d", live, len(want))
	}
	return nil
}

// TestEpochTouchRegimes drives Epoch.Touch through each regime the fused
// walk handles differently from the three separate calls, and checks the
// count and the whole tree state against the oracle after every touch.
func TestEpochTouchRegimes(t *testing.T) {
	type step struct{ prev, now uint64 }
	insertRange := func(e *Epoch, ref *brute, lo, hi uint64) {
		for k := lo; k <= hi; k++ {
			e.Insert(k)
			ref.Insert(k)
		}
	}
	cases := []struct {
		name  string
		big   bool
		setup func(ref *brute) *Epoch
		steps []step
		// check asserts, before the first touch, that setup reached the
		// regime the case is about.
		check func(e *Epoch) string
	}{
		{
			name: "prev is the newest slot",
			setup: func(ref *brute) *Epoch {
				e := NewEpoch(16)
				insertRange(e, ref, 1, 5)
				return e
			},
			steps: []step{{5, 6}, {6, 7}},
			check: func(e *Epoch) string {
				if e.slotOf(5) != e.next-1 {
					return "5 is not in the newest slot"
				}
				return ""
			},
		},
		{
			name: "prev in the compacted prefix",
			setup: func(ref *brute) *Epoch {
				e := NewEpoch(16)
				insertRange(e, ref, 1, 16)
				for k := uint64(2); k <= 16; k += 2 {
					e.Delete(k)
					ref.Delete(k)
				}
				insertRange(e, ref, 17, 17) // compacts; 17 starts a new run
				return e
			},
			steps: []step{{3, 18}, {1, 19}, {15, 20}, {17, 21}},
			check: func(e *Epoch) string {
				if s := e.slotOf(3); s < 0 || s >= e.runStart {
					return "3 is not in the compacted prefix"
				}
				return ""
			},
		},
		{
			name: "full window takes the compaction fallback",
			setup: func(ref *brute) *Epoch {
				e := NewEpoch(16)
				insertRange(e, ref, 1, 16)
				e.Delete(8)
				ref.Delete(8)
				return e
			},
			steps: []step{{4, 17}, {17, 18}, {1, 19}},
			check: func(e *Epoch) string {
				if int(e.next) != len(e.live) {
					return "window is not full"
				}
				return ""
			},
		},
		{
			name: "clock gap starts a new affine run",
			setup: func(ref *brute) *Epoch {
				e := NewEpoch(16)
				insertRange(e, ref, 1, 5)
				return e
			},
			// 2->9 opens a run at slot 5; 4 is then found by binary
			// search below it, and 9 and 10 through the new run.
			steps: []step{{2, 9}, {4, 10}, {9, 11}, {10, 14}, {11, 15}},
		},
		{
			name: "upward walk leaves the array before the paths merge",
			setup: func(ref *brute) *Epoch {
				// A 20-slot window: the walks from BIT indices 1 and 20
				// meet only at 32, past the array's last index.
				e := NewEpoch(20)
				insertRange(e, ref, 1, 19)
				return e
			},
			steps: []step{{1, 20}},
			check: func(e *Epoch) string {
				if len(e.bit)-1 != 20 || e.next != 19 {
					return "new slot is not at the array's last index"
				}
				return ""
			},
		},
		{
			name: "new slot at a power-of-two last index",
			setup: func(ref *brute) *Epoch {
				e := NewEpoch(16)
				insertRange(e, ref, 1, 15)
				return e
			},
			steps: []step{{7, 16}},
		},
		{
			name: "live set past 1<<16 grows the window",
			big:  true,
			setup: func(ref *brute) *Epoch {
				e := NewEpoch(1 << 16)
				insertRange(e, ref, 1, 1<<16)
				return e
			},
			// The first touch compacts with every slot live, so the
			// window doubles; the rest run the fused path in the grown
			// window, near both ends of the old one.
			steps: []step{{1, 1<<16 + 1}, {2, 1<<16 + 2}, {1 << 15, 1<<16 + 3}, {1<<16 - 1, 1<<16 + 4}, {1<<16 + 2, 1<<16 + 5}},
			check: func(e *Epoch) string {
				if int(e.next) != len(e.live) || len(e.live) != 1<<16 {
					return "window of 1<<16 is not full"
				}
				return ""
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.big && testing.Short() {
				t.Skip("large live set; skipped in -short")
			}
			ref := &brute{}
			e := c.setup(ref)
			if c.check != nil {
				if msg := c.check(e); msg != "" {
					t.Fatalf("setup: %s", msg)
				}
			}
			for _, st := range c.steps {
				want := ref.CountGreater(st.prev)
				if got := e.Touch(st.prev, st.now); got != want {
					t.Fatalf("Touch(%d, %d) = %d, want %d", st.prev, st.now, got, want)
				}
				ref.Delete(st.prev)
				ref.Insert(st.now)
				if err := epochConsistent(e, ref); err != nil {
					t.Fatalf("after Touch(%d, %d): %v", st.prev, st.now, err)
				}
			}
			if c.big && len(e.live) <= 1<<16 {
				t.Errorf("window = %d, want it grown past 1<<16", len(e.live))
			}
		})
	}
}

func benchTree(b *testing.B, mk func() Tree, blocks int) {
	tr := mk()
	rng := rand.New(rand.NewSource(1))
	live := make([]uint64, blocks)
	now := uint64(0)
	// Warm up: touch every block once.
	for i := range live {
		now++
		tr.Insert(now)
		live[i] = now
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		blk := rng.Intn(blocks)
		old := live[blk]
		_ = tr.Touch(old, now)
		live[blk] = now
	}
}

func BenchmarkAVL64KBlocks(b *testing.B) { benchTree(b, func() Tree { return NewAVL(0) }, 65536) }
func BenchmarkEpoch64KBlocks(b *testing.B) {
	benchTree(b, func() Tree { return NewEpoch(0) }, 65536)
}

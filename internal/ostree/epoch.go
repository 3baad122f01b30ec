package ostree

import "sort"

// Epoch is the engine's default order-statistic structure: a binary
// indexed tree over a bounded, periodically compacted slot window, with no
// per-operation hashing.
//
// Like Fenwick, it exploits the engine's access pattern — timestamps are
// inserted in strictly increasing order — but it drops Fenwick's
// timestamp-to-slot map entirely:
//
//   - Slots are assigned in insertion order, so slot times are strictly
//     increasing and any timestamp can be located by binary search.
//   - The engine's clock advances by exactly one per insert, so the slots
//     assigned since the last compaction form an affine run
//     (slotTime[s] = runBase + s). Timestamps in that run — the most
//     recent epoch, which is where stencil and streaming reuses
//     overwhelmingly land — are located in O(1) with one subtraction.
//
// When the window fills, live slots are re-packed to the front (an epoch
// boundary): the re-packed prefix stays binary-searchable, a fresh affine
// run starts, and the window doubles only when more than half of it is
// live. Compaction is O(window) and triggered at most once per window/2
// inserts, so it amortizes to O(1); the BIT stays sized to the live set
// (cache-resident) instead of growing with total trace length.
type Epoch struct {
	bit      []uint32 // 1-based BIT; bit tree over live-slot indicators
	slotTime []uint64 // slotTime[slot]; strictly increasing over [0, next)
	live     []bool
	next     int32 // next slot to assign
	runStart int32 // first slot of the current affine run
	n        int
}

// NewEpoch returns an empty epoch-compacted order-statistic tree. capHint
// sizes the initial slot window (it grows as needed; see compact).
func NewEpoch(capHint int) *Epoch {
	if capHint < 16 {
		capHint = 16
	}
	return &Epoch{
		bit:      make([]uint32, capHint+1),
		slotTime: make([]uint64, capHint),
		live:     make([]bool, capHint),
	}
}

// Len reports the number of live timestamps.
func (e *Epoch) Len() int { return e.n }

func (e *Epoch) add(slot int32, delta uint32) {
	for i := slot + 1; i <= int32(len(e.bit)-1); i += i & (-i) {
		e.bit[i] += delta
	}
}

// prefix reports the number of live slots in [0, slot].
func (e *Epoch) prefix(slot int32) uint32 {
	var s uint32
	for i := slot + 1; i > 0; i -= i & (-i) {
		s += e.bit[i]
	}
	return s
}

// Insert adds t, which must be strictly greater than every timestamp ever
// inserted.
func (e *Epoch) Insert(t uint64) {
	if int(e.next) == len(e.live) {
		e.compact()
	}
	slot := e.next
	// Maintain the affine-run invariant: slotTime[s] = slotTime[runStart]
	// + (s - runStart) for all s in [runStart, next). The engine's
	// one-per-clock inserts extend the run forever; a gap starts a new run.
	if slot > e.runStart && t != e.slotTime[slot-1]+1 {
		e.runStart = slot
	}
	e.next++
	e.live[slot] = true
	e.slotTime[slot] = t
	e.add(slot, 1)
	e.n++
}

// slotOf locates the slot holding timestamp t, or -1 if t was never
// inserted or has been compacted away. The affine fast path resolves any
// timestamp from the current run — the most recent epoch — in O(1).
func (e *Epoch) slotOf(t uint64) int32 {
	if e.next == 0 {
		return -1
	}
	if e.runStart < e.next {
		if base := e.slotTime[e.runStart]; t >= base {
			if t > e.slotTime[e.next-1] {
				return -1
			}
			return e.runStart + int32(t-base)
		}
	}
	// Binary search the compacted prefix (strictly increasing).
	hi := e.runStart
	if hi > e.next {
		hi = e.next
	}
	s := sort.Search(int(hi), func(i int) bool { return e.slotTime[i] >= t })
	if int32(s) < hi && e.slotTime[s] == t {
		return int32(s)
	}
	return -1
}

// Delete removes t. Deleting an absent timestamp is a no-op.
func (e *Epoch) Delete(t uint64) {
	slot := e.slotOf(t)
	if slot < 0 || !e.live[slot] {
		return
	}
	e.live[slot] = false
	for i := slot + 1; i <= int32(len(e.bit)-1); i += i & (-i) {
		e.bit[i]--
	}
	e.n--
}

// CountGreater reports the number of live timestamps strictly greater than
// t. The engine always passes a live timestamp (the previous access time
// of a block still in the table), which the affine fast path resolves
// without a search for the most recent epoch.
func (e *Epoch) CountGreater(t uint64) uint64 {
	if e.n == 0 {
		return 0
	}
	// pos = index of the first slot with slotTime > t.
	var pos int32
	if e.runStart < e.next && t >= e.slotTime[e.runStart] {
		if t >= e.slotTime[e.next-1] {
			return 0 // t is the newest timestamp (or beyond): nothing greater
		}
		pos = e.runStart + int32(t-e.slotTime[e.runStart]) + 1
	} else {
		hi := e.runStart
		if hi > e.next {
			hi = e.next
		}
		pos = int32(sort.Search(int(hi), func(i int) bool { return e.slotTime[i] > t }))
	}
	if pos == 0 {
		return uint64(e.n)
	}
	return uint64(e.n) - uint64(e.prefix(pos-1))
}

// Touch returns CountGreater(prev), then deletes prev and inserts now, in
// one pass when prev is live and the window has a free slot. prev's slot is
// located once. The count is the BIT range (slot+1, next], summed by two
// downward walks that stop where they meet. The -1 at prev's slot and the
// +1 at the new slot go up two walks that stop where the paths merge: every
// node above covers both slots, so the two updates cancel there. A full
// window (compaction is due) or an absent prev takes the three-call path.
func (e *Epoch) Touch(prev, now uint64) uint64 {
	if int(e.next) == len(e.live) {
		return touchByParts(e, prev, now)
	}
	slot := e.slotOf(prev)
	if slot < 0 || !e.live[slot] {
		return touchByParts(e, prev, now)
	}
	ns := e.next
	if ns > e.runStart && now != e.slotTime[ns-1]+1 {
		e.runStart = ns // see Insert: a clock gap starts a new affine run
	}
	var c uint32 // may wrap mid-walk; the final range sum is exact
	for i, j := ns, slot+1; i != j; {
		if i > j {
			c += e.bit[i]
			i -= i & (-i)
		} else {
			c -= e.bit[j]
			j -= j & (-j)
		}
	}
	top := int32(len(e.bit) - 1)
	for a, b := slot+1, ns+1; a != b && min(a, b) <= top; {
		if a < b {
			e.bit[a]--
			a += a & (-a)
		} else {
			e.bit[b]++
			b += b & (-b)
		}
	}
	e.live[slot] = false
	e.live[ns] = true
	e.slotTime[ns] = now
	e.next++
	return uint64(c)
}

// compact re-packs live slots to the front and starts a new epoch. The
// window grows (doubles) only when more than half of it is live, so the
// slot space stays proportional to the peak live set and compaction cost
// amortizes to O(1) per insert. Growth is explicit and unbounded: a trace
// with any number of live blocks is handled without mis-counting.
func (e *Epoch) compact() {
	window := len(e.live)
	for e.n*2 > window {
		window *= 2
	}
	newLive := make([]bool, window)
	newTime := make([]uint64, window)
	var j int32
	for i := int32(0); i < e.next; i++ {
		if e.live[i] {
			newLive[j] = true
			newTime[j] = e.slotTime[i]
			j++
		}
	}
	e.live = newLive
	e.slotTime = newTime
	e.next = j
	e.runStart = j // compacted prefix is not affine; next insert starts a run
	if len(e.bit) != window+1 {
		e.bit = make([]uint32, window+1)
	} else {
		for i := range e.bit {
			e.bit[i] = 0
		}
	}
	// Build the BIT in O(window): seed each live slot, then push partial
	// sums to parents.
	for i := int32(0); i < j; i++ {
		e.bit[i+1]++
	}
	for i := int32(1); i <= int32(window); i++ {
		p := i + i&(-i)
		if p <= int32(window) {
			e.bit[p] += e.bit[i]
		}
	}
}

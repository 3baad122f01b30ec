package ostree

// Fenwick is an order-statistic structure built on a binary indexed tree
// over a sliding, periodically compacted window of logical time.
//
// Timestamps arrive in strictly increasing order, so each live timestamp is
// assigned a slot in insertion order. When the slot space fills up, live
// slots are compacted to the front (preserving order) and the
// timestamp-to-slot mapping is rebuilt. With a window of at least twice the
// peak number of live timestamps, compaction cost amortizes to O(1) slots
// per insert, making every operation amortized O(log M).
type Fenwick struct {
	bit      []uint32 // 1-based Fenwick array over slots
	live     []bool   // live[slot]
	slotTime []uint64 // slotTime[slot] = timestamp occupying the slot
	slotOf   map[uint64]int32
	next     int32 // next slot to assign
	n        int
}

// NewFenwick returns an empty Fenwick order-statistic tree. window is the
// slot-space size; it is grown automatically if the live set exceeds half of
// it.
func NewFenwick(window int) *Fenwick {
	if window < 16 {
		window = 16
	}
	return &Fenwick{
		bit:      make([]uint32, window+1),
		live:     make([]bool, window),
		slotTime: make([]uint64, window),
		slotOf:   make(map[uint64]int32, window/2),
	}
}

// Len reports the number of live timestamps.
func (f *Fenwick) Len() int { return f.n }

func (f *Fenwick) add(slot int32, delta uint32) {
	for i := slot + 1; i <= int32(len(f.bit)-1); i += i & (-i) {
		f.bit[i] += delta
	}
}

func (f *Fenwick) sub(slot int32, delta uint32) {
	for i := slot + 1; i <= int32(len(f.bit)-1); i += i & (-i) {
		f.bit[i] -= delta
	}
}

// prefix reports the number of live slots in [0, slot].
func (f *Fenwick) prefix(slot int32) uint32 {
	var s uint32
	for i := slot + 1; i > 0; i -= i & (-i) {
		s += f.bit[i]
	}
	return s
}

// Insert adds t, which must be strictly greater than every timestamp ever
// inserted.
func (f *Fenwick) Insert(t uint64) {
	if int(f.next) == len(f.live) {
		f.compact()
	}
	slot := f.next
	f.next++
	f.live[slot] = true
	f.slotTime[slot] = t
	f.slotOf[t] = slot
	f.add(slot, 1)
	f.n++
}

// Delete removes t. Deleting an absent timestamp is a no-op.
func (f *Fenwick) Delete(t uint64) {
	slot, ok := f.slotOf[t]
	if !ok {
		return
	}
	delete(f.slotOf, t)
	f.live[slot] = false
	f.sub(slot, 1)
	f.n--
}

// CountGreater reports the number of live timestamps strictly greater
// than t. t need not be live; absent timestamps count from their insertion
// position which, for timestamps never inserted, is only meaningful for
// t smaller than all live entries (yields Len) or larger (yields 0).
func (f *Fenwick) CountGreater(t uint64) uint64 {
	slot, ok := f.slotOf[t]
	if !ok {
		// Binary search over live slot order: slots hold increasing
		// timestamps, so find the first slot with slotTime > t.
		lo, hi := int32(0), f.next
		for lo < hi {
			mid := (lo + hi) / 2
			if f.slotTime[mid] <= t {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == 0 {
			return uint64(f.n)
		}
		return uint64(f.n) - uint64(f.prefix(lo-1))
	}
	return uint64(f.n) - uint64(f.prefix(slot))
}

// Touch is CountGreater(prev), Delete(prev), Insert(now).
func (f *Fenwick) Touch(prev, now uint64) uint64 { return touchByParts(f, prev, now) }

// compact re-packs live slots to the front, growing the window while more
// than half of it is live. Growth is explicit and unbounded — a live set of
// any size (in particular one crossing the historical 1<<16 default window)
// is re-homed without slot exhaustion or mis-counting.
func (f *Fenwick) compact() {
	window := len(f.live)
	for f.n*2 > window {
		window *= 2
	}
	newLive := make([]bool, window)
	newTime := make([]uint64, window)
	var j int32
	for i := int32(0); i < f.next; i++ {
		if f.live[i] {
			newLive[j] = true
			newTime[j] = f.slotTime[i]
			f.slotOf[f.slotTime[i]] = j
			j++
		}
	}
	f.live = newLive
	f.slotTime = newTime
	f.next = j
	f.bit = make([]uint32, window+1)
	for i := int32(0); i < j; i++ {
		f.add(i, 1)
	}
}

package netem

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file holds the sharded hierarchical timer wheel backing the
// virtual clock's deadline scheduling. The previous implementation kept
// every pending deadline in one mutex-guarded container/heap, which
// serialised every park in the emulator — client sleeps, pacing ticks,
// segment arrivals, abort watchers — on a single lock and paid O(log n)
// per event. The wheel splits that state across numShards independent
// shards (each participant parks on its own shard, assigned round-robin
// at registration), makes the common park O(1) (an append into a coarse
// time bucket), and exposes a lock-free per-shard earliest-deadline
// summary so the jump loop finds the next instant with one atomic load
// per shard instead of taking any lock.
//
// Layout per shard:
//
//   - wheelBuckets coarse buckets of bucketGran (2^granShift ns ≈ 1 ms)
//     each, covering the wheelHorizon (~268 ms) ahead of the last jump.
//     A deadline d lives in bucket index d>>granShift; the bucket slot
//     is that index mod wheelBuckets, which is bijective inside the
//     horizon. A bitmap of non-empty slots makes "first pending bucket"
//     a couple of bits.TrailingZeros64 calls.
//   - an overflow min-heap (ordered by (deadline, seq), exactly the
//     retired global heap's order) for deadlines beyond the horizon:
//     session arrival spreads, playout drains, idle timeouts. As the
//     wheel advances, overflow entries whose deadline comes within the
//     horizon are re-homed into buckets, so each far deadline pays its
//     O(log n) once and the steady-state hot path (segment arrivals,
//     pacing ticks — all well inside the horizon) never touches the
//     heap.
//   - earliest: an atomic copy of the shard's minimum pending deadline
//     (sleeperNone when the shard is empty), maintained on every push
//     and pop. The jump loop's "what is the next instant" scan is
//     numShards atomic loads, no locks.
//
// Ordering: the wheel does not keep buckets internally sorted — the
// jump loop collects every sleeper due at the jump instant across all
// shards into one batch and sorts that batch by (deadline, seq), the
// exact comparison the retired heap popped in. Firing order is
// therefore bit-identical to the old implementation (the differential
// test in wheel_diff_test.go drives randomized schedules through both).

const (
	// shardBits/numShards: shard count for participant-affine sharding.
	// A small power of two: enough to spread lock traffic at fleet
	// populations, cheap enough that the per-jump earliest scan (one
	// atomic load per shard) stays negligible.
	shardBits = 4
	numShards = 1 << shardBits

	// granShift/bucketGran: level-0 bucket width. 2^20 ns ≈ 1.05 ms is
	// far coarser than the scheduling precision (deadlines keep full ns
	// resolution; buckets only index them) and fine enough that one
	// bucket rarely mixes more than a handful of distinct instants.
	granShift = 20

	// wheelBuckets/wheelHorizon: buckets per shard. 256 × ~1 ms ≈ 268 ms
	// of horizon, comfortably past the emulator's dense deadline band
	// (propagation delays, pacing quanta, server think times), so the
	// overflow heap only sees coarse session-scale waits.
	wheelBuckets = 256
	bucketMask   = wheelBuckets - 1
	bitmapWords  = wheelBuckets / 64

	// sleeperNone is the shard earliest-summary value meaning "empty".
	sleeperNone = math.MaxInt64
)

// sleeper is one pending deadline entry: a parked goroutine's wake
// token target (ch != nil) or a timer callback (fn != nil). Nodes are
// owned by their Participant or Timer and reused across parks, so the
// steady state allocates nothing.
type sleeper struct {
	deadline  int64 // ns offset from the clock base
	seq       int64 // global tiebreaker; preserves retired-heap firing order
	ch        chan struct{}
	fn        func() // timer callback, run on the jump goroutine
	cancelled bool   // timers only; a cancelled entry never fires
	// queued distinguishes "in a bucket" (removable in place) from "in
	// the overflow heap" (cancelled lazily; the node is abandoned and a
	// reschedule allocates a fresh one). slot is the bucket slot the
	// entry was pushed into (valid while queued == sleeperInBucket).
	// Both are guarded by the shard mutex.
	queued sleeperState
	slot   int32
}

type sleeperState uint8

const (
	sleeperIdle sleeperState = iota
	sleeperInBucket
	sleeperInOverflow
)

// overflowHeap is a min-heap over (deadline, seq) — the retired global
// heap's exact ordering, now holding only beyond-horizon deadlines.
type overflowHeap []*sleeper

func (h overflowHeap) less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}

func (h *overflowHeap) push(s *sleeper) {
	*h = append(*h, s)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *overflowHeap) pop() *sleeper {
	old := *h
	s := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	h.siftDown(0)
	return s
}

func (h overflowHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// clockShard is one lock's worth of the wheel. Participants are
// assigned a shard at registration and park on it for life, so a
// session's reusable sleeper node stays on one lock and one set of
// cache lines.
type clockShard struct {
	mu       sync.Mutex
	earliest atomic.Int64 // min pending deadline, sleeperNone when empty

	// base is the bucket index of the last jump instant: every bucketed
	// entry has index in [base, base+wheelBuckets). Guarded by mu.
	base      int64
	bitmap    [bitmapWords]uint64
	bucketIdx [wheelBuckets]int64 // absolute bucket index held by each slot
	buckets   [wheelBuckets][]*sleeper
	overflow  overflowHeap
}

// push enqueues s; the caller holds sh.mu and guarantees s.deadline is
// in the future of the deadlines already popped.
func (sh *clockShard) push(s *sleeper) {
	idx := s.deadline >> granShift
	if idx < sh.base+wheelBuckets {
		slot := int(idx & bucketMask)
		sh.buckets[slot] = append(sh.buckets[slot], s)
		sh.bucketIdx[slot] = idx
		sh.bitmap[slot>>6] |= 1 << uint(slot&63)
		s.queued = sleeperInBucket
		s.slot = int32(slot)
	} else {
		sh.overflow.push(s)
		s.queued = sleeperInOverflow
	}
	if s.deadline < sh.earliest.Load() {
		sh.earliest.Store(s.deadline)
	}
}

// popDue advances the shard to instant t (ns offset), appending every
// pending non-cancelled sleeper with deadline <= t to batch. It re-homes
// overflow entries that came within the new horizon and refreshes the
// shard's earliest summary. Bucket backing arrays are retained across
// jumps (length reset, capacity kept), so steady-state jumps allocate
// nothing. The caller holds the jump lock; popDue takes sh.mu itself.
func (sh *clockShard) popDue(t int64, batch []*sleeper) []*sleeper {
	sh.mu.Lock()
	if sh.earliest.Load() > t {
		// Nothing due here; still advance base so future pushes and
		// re-homes index off the current instant. Safe: no pending
		// deadline is <= t, so no bucketed index is below t's bucket.
		if b := t >> granShift; b > sh.base {
			sh.base = b
		}
		sh.mu.Unlock()
		return batch
	}
	tIdx := t >> granShift
	for w := 0; w < bitmapWords; w++ {
		bm := sh.bitmap[w]
		for bm != 0 {
			slot := w<<6 + bits.TrailingZeros64(bm)
			bm &= bm - 1
			if sh.bucketIdx[slot] > tIdx {
				continue
			}
			b := sh.buckets[slot]
			if sh.bucketIdx[slot] < tIdx {
				// Whole bucket due: every deadline precedes t's bucket.
				for i, s := range b {
					if !s.cancelled {
						s.queued = sleeperIdle
						batch = append(batch, s)
					}
					b[i] = nil
				}
				sh.buckets[slot] = b[:0]
				sh.bitmap[slot>>6] &^= 1 << uint(slot&63)
				continue
			}
			// t's own bucket: split around the exact instant.
			keep := b[:0]
			for _, s := range b {
				switch {
				case s.cancelled:
				case s.deadline <= t:
					s.queued = sleeperIdle
					batch = append(batch, s)
				default:
					keep = append(keep, s)
				}
			}
			for i := len(keep); i < len(b); i++ {
				b[i] = nil
			}
			sh.buckets[slot] = keep
			if len(keep) == 0 {
				sh.bitmap[slot>>6] &^= 1 << uint(slot&63)
			}
		}
	}
	if tIdx > sh.base {
		sh.base = tIdx
	}
	// Overflow: pop everything due, then re-home what the advance
	// brought inside the horizon so it fires from buckets next time.
	for len(sh.overflow) > 0 {
		top := sh.overflow[0]
		if top.cancelled {
			sh.overflow.pop()
			continue
		}
		if top.deadline > t {
			break
		}
		top.queued = sleeperIdle
		batch = append(batch, sh.overflow.pop())
	}
	for len(sh.overflow) > 0 {
		top := sh.overflow[0]
		if top.cancelled {
			sh.overflow.pop()
			continue
		}
		if top.deadline>>granShift >= sh.base+wheelBuckets {
			break
		}
		sh.push(sh.overflow.pop())
	}
	sh.earliest.Store(sh.minPending())
	sh.mu.Unlock()
	return batch
}

// minPending recomputes the shard's earliest pending deadline. Caller
// holds sh.mu. The minimum bucketed deadline lives in the slot with the
// lowest absolute bucket index (bucket index is deadline>>granShift, so
// bucket order is deadline order at bucket granularity); within that
// slot a linear scan finds it. Cancelled overflow tops are discarded on
// the way.
func (sh *clockShard) minPending() int64 {
	min := int64(sleeperNone)
	bestIdx := int64(sleeperNone)
	bestSlot := -1
	for w := 0; w < bitmapWords; w++ {
		bm := sh.bitmap[w]
		for bm != 0 {
			slot := w<<6 + bits.TrailingZeros64(bm)
			bm &= bm - 1
			if sh.bucketIdx[slot] < bestIdx {
				bestIdx = sh.bucketIdx[slot]
				bestSlot = slot
			}
		}
	}
	if bestSlot >= 0 {
		for _, s := range sh.buckets[bestSlot] {
			if !s.cancelled && s.deadline < min {
				min = s.deadline
			}
		}
	}
	for len(sh.overflow) > 0 && sh.overflow[0].cancelled {
		sh.overflow.pop()
	}
	if len(sh.overflow) > 0 && sh.overflow[0].deadline < min {
		min = sh.overflow[0].deadline
	}
	return min
}

// cancel removes a queued timer entry. Bucketed entries are removed in
// place (the node is immediately reusable); overflow entries are marked
// and swept lazily by popDue/minPending, and the node is abandoned to
// the heap (reported via the false return, so the owner re-allocates on
// the next schedule). Caller holds sh.mu.
func (sh *clockShard) cancel(s *sleeper) (reusable bool) {
	switch s.queued {
	case sleeperInBucket:
		slot := int(s.slot)
		b := sh.buckets[slot]
		for i, e := range b {
			if e == s {
				last := len(b) - 1
				b[i] = b[last]
				b[last] = nil
				sh.buckets[slot] = b[:last]
				break
			}
		}
		if len(sh.buckets[slot]) == 0 {
			sh.bitmap[slot>>6] &^= 1 << uint(slot&63)
		}
		s.queued = sleeperIdle
		if s.deadline <= sh.earliest.Load() {
			sh.earliest.Store(sh.minPending())
		}
		return true
	case sleeperInOverflow:
		s.cancelled = true
		if s.deadline <= sh.earliest.Load() {
			sh.earliest.Store(sh.minPending())
		}
		return false
	default:
		return true
	}
}

// reset drops every pending entry (Clock.Stop): parked waiters are woken
// through the clock's done channel instead.
func (sh *clockShard) reset() {
	sh.mu.Lock()
	for slot := range sh.buckets {
		b := sh.buckets[slot]
		for i := range b {
			b[i] = nil
		}
		sh.buckets[slot] = b[:0]
	}
	for i := range sh.bitmap {
		sh.bitmap[i] = 0
	}
	for i := range sh.overflow {
		sh.overflow[i] = nil
	}
	sh.overflow = sh.overflow[:0]
	sh.earliest.Store(sleeperNone)
	sh.mu.Unlock()
}

// sleeperBatch sorts a jump batch by (deadline, seq) — the retired
// heap's pop order — so same-instant wakes fan out in the exact
// sequence the old implementation produced.
type sleeperBatch []*sleeper

func (b *sleeperBatch) Len() int { return len(*b) }
func (b *sleeperBatch) Less(i, j int) bool {
	s, t := (*b)[i], (*b)[j]
	if s.deadline != t.deadline {
		return s.deadline < t.deadline
	}
	return s.seq < t.seq
}
func (b *sleeperBatch) Swap(i, j int) { (*b)[i], (*b)[j] = (*b)[j], (*b)[i] }

package netem

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"time"
)

// This file differentially tests the clock's timer queue against the
// reference it must agree with: one container/heap ordered by
// (deadline, seq), cancelling lazily. The virtual clock's determinism
// contract says the queue fires timers in exactly the sequence that
// heap pops them — including same-instant ties, cancellations and
// reschedules — so randomized schedules are driven through both
// structures and the firing sequences compared element-by-element
// across many seeds.

// refEntry is one reference-heap entry; cancelled entries are skipped
// when they reach the top.
type refEntry struct {
	deadline, seq int64
	cancelled     bool
}

// refHeap is the retired scheduler: a container/heap popped in
// (deadline, seq) order.
type refHeap []*refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return s
}

const none = math.MaxInt64 // "nothing pending"

// min names the reference's next instant, discarding cancelled tops.
func (h *refHeap) min() int64 {
	for len(*h) > 0 && (*h)[0].cancelled {
		heap.Pop(h)
	}
	if len(*h) == 0 {
		return none
	}
	return (*h)[0].deadline
}

// popDue collects everything due at or before t, skipping cancelled
// entries.
func (h *refHeap) popDue(t int64) []*refEntry {
	var due []*refEntry
	for len(*h) > 0 && (*h)[0].deadline <= t {
		s := heap.Pop(h).(*refEntry)
		if !s.cancelled {
			due = append(due, s)
		}
	}
	return due
}

// min and popDue on the queue are the driver's own steps (Clock.step
// repeated through one instant).
func (q *queue) min() int64 {
	if len(*q) == 0 {
		return none
	}
	return (*q)[0].deadline
}

func (q *queue) popDue(t int64) []*Timer {
	var due []*Timer
	for len(*q) > 0 && (*q)[0].deadline <= t {
		due = append(due, q.remove(0))
	}
	return due
}

// check asserts that every queued node records its own position and
// that the heap order holds.
func (q queue) check(t *testing.T, where string) {
	t.Helper()
	for i, s := range q {
		if s.idx != i {
			t.Fatalf("%s: node at %d records idx %d", where, i, s.idx)
		}
		if i > 0 && q.less(i, (i-1)/2) {
			t.Fatalf("%s: node at %d orders before its parent", where, i)
		}
	}
}

// TestWheelMatchesRetiredHeap drives a randomized schedule — timers at
// mixed distances (sub-millisecond, the dense ~268 ms band, beyond it,
// far future), same-instant ties, timer cancellations (the abort path)
// and reschedules that move a live node to a new deadline — through
// the reference heap and the clock's queue, asserting identical firing
// sequences, jump instants and emptiness across 100 seeds.
func TestWheelMatchesRetiredHeap(t *testing.T) {
	const (
		seeds      = 100
		opsPerSeed = 400

		subMs  = int64(time.Millisecond)       // same-instant neighbourhood
		band   = int64(268 * time.Millisecond) // propagation, pacing, think times
		beyond = int64(50 * time.Second)       // session-scale waits past the band
		future = int64(500 * time.Second)      // arrival spreads, idle timeouts
	)
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := &refHeap{}
		q := &queue{}

		type entry struct {
			refS *refEntry
			qS   *Timer
		}
		var (
			virt int64
			seq  int64
			live []entry
		)
		push := func(deadline int64) {
			seq++
			// Two nodes with identical ordering keys, one per structure:
			// the structures take ownership of what they queue.
			rs := &refEntry{deadline: deadline, seq: seq}
			qs := &Timer{deadline: deadline, seq: seq}
			heap.Push(ref, rs)
			q.push(qs)
			live = append(live, entry{refS: rs, qS: qs})
		}
		newDeadline := func() int64 {
			switch rng.Intn(10) {
			case 0, 1, 2:
				return virt + 1 + rng.Int63n(subMs)
			case 3, 4, 5, 6:
				return virt + 1 + rng.Int63n(band)
			case 7, 8:
				return virt + band + rng.Int63n(beyond)
			default:
				return virt + rng.Int63n(future)
			}
		}

		for op := 0; op < opsPerSeed; op++ {
			switch k := rng.Intn(12); {
			case k < 5: // schedule
				d := newDeadline()
				push(d)
				if rng.Intn(3) == 0 { // same-instant tie
					push(d)
				}
			case k < 7 && len(live) > 0: // cancel (abort-watcher path)
				i := rng.Intn(len(live))
				e := live[i]
				e.refS.cancelled = true
				q.cancel(e.qS)
				if e.qS.idx != -1 {
					t.Fatalf("seed %d op %d: cancelled node still records idx %d", seed, op, e.qS.idx)
				}
				live = append(live[:i], live[i+1:]...)
			case k < 9 && len(live) > 0: // reschedule a live node in place
				i := rng.Intn(len(live))
				e := &live[i]
				d := newDeadline()
				seq++
				e.refS.cancelled = true
				e.refS = &refEntry{deadline: d, seq: seq}
				heap.Push(ref, e.refS)
				q.cancel(e.qS)
				e.qS.deadline, e.qS.seq = d, seq
				q.push(e.qS)
			default: // jump to the next instant and compare firing order
				rmin, qmin := ref.min(), q.min()
				if rmin != qmin {
					t.Fatalf("seed %d op %d: next instant diverged: heap %d, queue %d", seed, op, rmin, qmin)
				}
				if rmin == none {
					continue
				}
				virt = rmin
				rdue, qdue := ref.popDue(virt), q.popDue(virt)
				if len(rdue) != len(qdue) {
					t.Fatalf("seed %d op %d: batch size diverged at %d: heap %d, queue %d",
						seed, op, virt, len(rdue), len(qdue))
				}
				for i := range rdue {
					if rdue[i].deadline != qdue[i].deadline || rdue[i].seq != qdue[i].seq {
						t.Fatalf("seed %d op %d: firing order diverged at %d[%d]: heap (%d,%d), queue (%d,%d)",
							seed, op, virt, i,
							rdue[i].deadline, rdue[i].seq, qdue[i].deadline, qdue[i].seq)
					}
				}
				fired := make(map[int64]bool, len(rdue))
				for _, s := range rdue {
					fired[s.seq] = true
				}
				keep := live[:0]
				for _, e := range live {
					if !fired[e.refS.seq] {
						keep = append(keep, e)
					}
				}
				live = keep
			}
			q.check(t, "after op")
		}
		// Drain both completely: every remaining entry must fire, in
		// the same order, across as many jumps as it takes.
		for {
			rmin, qmin := ref.min(), q.min()
			if rmin != qmin {
				t.Fatalf("seed %d drain: next instant diverged: heap %d, queue %d", seed, rmin, qmin)
			}
			if rmin == none {
				break
			}
			virt = rmin
			rdue, qdue := ref.popDue(virt), q.popDue(virt)
			if len(rdue) != len(qdue) {
				t.Fatalf("seed %d drain: batch size diverged at %d: heap %d, queue %d", seed, virt, len(rdue), len(qdue))
			}
			for i := range rdue {
				if rdue[i].seq != qdue[i].seq {
					t.Fatalf("seed %d drain: firing order diverged at %d[%d]", seed, virt, i)
				}
			}
		}
	}
}

// TestTimerFiresAtScheduledInstant pins the timer path: the callback
// runs at exactly the scheduled virtual instant, and a Stop before the
// instant suppresses it.
func TestTimerFiresAtScheduledInstant(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	drv := clock.Register()
	defer drv.Unregister()
	start := clock.Now()

	var firedAt time.Duration = -1
	clock.NewTimer(func() { firedAt = clock.Now().Sub(start) }).Schedule(start.Add(30 * time.Millisecond))
	stopped := clock.NewTimer(func() { t.Error("stopped timer fired") })
	stopped.Schedule(start.Add(20 * time.Millisecond))
	stopped.Stop()
	drv.SleepUntil(start.Add(50 * time.Millisecond))
	if firedAt != 30*time.Millisecond {
		t.Fatalf("timer fired at +%v, want +30ms", firedAt)
	}
}

// TestTimerStopAndReschedule exercises the cancel paths of the queue:
// a stopped timer never fires, and rescheduling replaces the pending
// instant (the earliest-abort-wins reschedule in the conn protocol).
func TestTimerStopAndReschedule(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	drv := clock.Register()
	defer drv.Unregister()
	start := clock.Now()

	var fired []time.Duration
	record := func() { fired = append(fired, clock.Now().Sub(start)) }
	timer := clock.NewTimer(record)
	far := clock.NewTimer(record)
	stopped := clock.NewTimer(func() { t.Error("stopped timer fired") })

	stopped.Schedule(start.Add(10 * time.Millisecond))
	stopped.Stop()

	// Schedule at +40ms, then move earlier to +20ms: only +20ms fires.
	timer.Schedule(start.Add(40 * time.Millisecond))
	timer.Schedule(start.Add(20 * time.Millisecond))

	// A far-future schedule moved near: the timer is removed from
	// wherever it sits in the queue and pushed again.
	far.Schedule(start.Add(10 * time.Second))
	far.Schedule(start.Add(25 * time.Millisecond))

	drv.SleepUntil(start.Add(60 * time.Millisecond))
	if len(fired) != 2 || fired[0] != 20*time.Millisecond || fired[1] != 25*time.Millisecond {
		t.Fatalf("fired at %v, want [20ms 25ms]", fired)
	}
}

// TestWheelParkAllocs guards the zero-alloc drive path: a timer that
// reschedules itself from its own callback, drained by the driver's
// SleepUntil, must not allocate, and the queue's backing array must be
// reused across instants.
func TestWheelParkAllocs(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	drv := clock.Register()
	defer drv.Unregister()

	near := true
	var tick *Timer
	tick = clock.NewTimer(func() {
		// Mixed distances, sub-millisecond and a few milliseconds, both
		// reuse the timer's own node.
		if near = !near; near {
			tick.Schedule(clock.Now().Add(100 * time.Microsecond))
		} else {
			tick.Schedule(clock.Now().Add(3 * time.Millisecond))
		}
	})
	tick.Schedule(clock.Now().Add(time.Millisecond))
	drv.SleepUntil(clock.Now().Add(10 * time.Millisecond)) // warm the queue's backing array
	if avg := testing.AllocsPerRun(200, func() {
		drv.SleepUntil(clock.Now().Add(4 * time.Millisecond))
	}); avg > 0 {
		t.Fatalf("steady-state drive allocates %.2f times per 4 ms, want 0", avg)
	}
}

// TestTimerRescheduleAllocs pins in-place reschedule: moving a pending
// timer from far in the future to near, then stopping it, removes and
// reuses the timer's own queue node and allocates nothing.
func TestTimerRescheduleAllocs(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	timer := clock.NewTimer(func() { t.Error("stopped timer fired") })
	if avg := testing.AllocsPerRun(100, func() {
		now := clock.Now()
		timer.Schedule(now.Add(10 * time.Second))
		timer.Schedule(now.Add(time.Millisecond))
		timer.Stop()
	}); avg > 0 {
		t.Fatalf("far-to-near reschedule and stop allocate %.2f times per op, want 0", avg)
	}
}

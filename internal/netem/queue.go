package netem

// This file holds the virtual clock's timer queue: one binary min-heap
// of pending deadlines ordered by (deadline, seq), guarded by Clock.mu.
// Pops come out in exactly the order the emulator's determinism rests
// on — earliest deadline first, same-instant ties in scheduling order —
// so a jump batch needs no sort. Every node records its heap index, so
// a timer's cancel or reschedule removes its node in place and the node
// is reused: the steady state allocates nothing.

// sleeper is one pending deadline entry: a parked goroutine's wake
// token target (ch != nil) or a timer callback (fn != nil). Nodes are
// owned by their Participant or Timer and reused across parks.
type sleeper struct {
	deadline int64 // ns offset from the clock base
	seq      int64 // scheduling order; breaks same-instant ties
	ch       chan struct{}
	fn       func() // timer callback, run on the jump goroutine
	idx      int    // position in the queue; -1 when not queued
}

// queue is a binary min-heap over (deadline, seq). The caller holds
// Clock.mu for every operation.
type queue []*sleeper

func (q queue) less(i, j int) bool {
	if q[i].deadline != q[j].deadline {
		return q[i].deadline < q[j].deadline
	}
	return q[i].seq < q[j].seq
}

func (q queue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}

func (q queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q queue) down(i int) {
	n := len(q)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}

// push enqueues s.
func (q *queue) push(s *sleeper) {
	s.idx = len(*q)
	*q = append(*q, s)
	q.up(s.idx)
}

// remove dequeues the node at position i and returns it; pop is
// remove(0).
func (q *queue) remove(i int) *sleeper {
	old := *q
	s := old[i]
	n := len(old) - 1
	if i != n {
		old.swap(i, n)
	}
	old[n] = nil
	*q = old[:n]
	if i != n {
		q.down(i)
		q.up(i)
	}
	s.idx = -1
	return s
}

// cancel dequeues s if it is queued.
func (q *queue) cancel(s *sleeper) {
	if s.idx >= 0 {
		q.remove(s.idx)
	}
}

// reset drops every pending entry (Clock.Stop): parked waiters are woken
// through the clock's done channel instead.
func (q *queue) reset() {
	for i, s := range *q {
		s.idx = -1
		(*q)[i] = nil
	}
	*q = (*q)[:0]
}

package netem

// This file holds the virtual clock's timer queue: one binary min-heap
// of pending timers ordered by (deadline, seq). Pops come out in
// exactly the order the emulator's determinism rests on — earliest
// deadline first, same-instant ties in scheduling order. Every timer
// records its heap index, so a cancel or reschedule removes it in place
// and the steady state allocates nothing.

// queue is a binary min-heap of timers over (deadline, seq).
type queue []*Timer

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

// push enqueues t.
func (q *queue) push(t *Timer) {
	t.idx = len(*q)
	*q = append(*q, t)
	q.up(t.idx)
}

// remove dequeues the timer at position i and returns it; pop is
// remove(0).
func (q *queue) remove(i int) *Timer {
	old := *q
	t := old[i]
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
	t.idx = -1
	return t
}

// cancel dequeues t if it is queued.
func (q *queue) cancel(t *Timer) {
	if t.idx >= 0 {
		q.remove(t.idx)
	}
}

// reset drops every pending timer (Clock.Stop).
func (q *queue) reset() {
	for i, t := range *q {
		t.idx = -1
		(*q)[i] = nil
	}
	*q = (*q)[:0]
}

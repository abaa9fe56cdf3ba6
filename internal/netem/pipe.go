package netem

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// segment is a block of bytes due for delivery at an emulated instant.
// data is a pooled buffer owned by the direction until the reader has
// fully consumed it, at which point it returns to segPool. box is the
// pool's reusable header so put-backs allocate nothing.
type segment struct {
	data    []byte
	box     *[]byte
	arrival time.Time
}

// ackPoint marks the emulated instant at which the sender has received
// acknowledgements covering cum bytes.
type ackPoint struct {
	t   time.Time
	cum int64
}

// ring is a reusable FIFO over a power-of-two circular buffer. Unlike
// the previous `q = q[1:]` re-slicing queues, popping compacts nothing
// and retains nothing: slots are zeroed on pop, so delivered segments
// release their (pooled) payload buffers immediately instead of pinning
// the backing array for the life of the connection.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring[T]) grow() {
	next := make([]T, max(len(r.buf)*2, 8))
	for i := 0; i < r.n; i++ {
		next[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = next
	r.head = 0
}

// front returns a pointer to the oldest element; undefined when empty.
func (r *ring[T]) front() *T { return &r.buf[r.head] }

// back returns a pointer to the newest element; undefined when empty.
func (r *ring[T]) back() *T { return &r.buf[(r.head+r.n-1)&(len(r.buf)-1)] }

func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// popBack removes and returns the newest element; undefined when empty.
// Used by the abort protocol to drop segments that would arrive at or
// after the abort instant (the queue is arrival-ordered, so dropped
// segments are always a suffix).
func (r *ring[T]) popBack() T {
	var zero T
	i := (r.head + r.n - 1) & (len(r.buf) - 1)
	v := r.buf[i]
	r.buf[i] = zero
	r.n--
	return v
}

// segPool recycles segment payload buffers across every direction in
// the process. Buffers are handed out by write sized to the pacing
// segment and returned by read once fully consumed (or by teardown
// paths). Oversized one-off buffers (beyond maxPooledSeg) are left to
// the garbage collector so a burst of huge segments cannot pin memory.
var segPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, defaultSegCap)
		return &b
	},
}

const (
	defaultSegCap = 32 << 10
	maxPooledSeg  = 256 << 10
)

func getSegBuf(n int) ([]byte, *[]byte) {
	box := segPool.Get().(*[]byte)
	if cap(*box) < n {
		*box = make([]byte, 0, max(n, defaultSegCap))
	}
	return (*box)[:n], box
}

func putSegBuf(s segment) {
	if s.box == nil {
		return
	}
	if cap(s.data) > maxPooledSeg {
		*s.box = nil // oversized one-off: let the GC take the payload
	} else {
		*s.box = s.data[:0]
	}
	segPool.Put(s.box)
}

// direction carries bytes one way between two conns: pacing state on the
// write side, an arrival-ordered queue on the read side.
//
// Randomness invariant: the jitter/loss rng is a per-instance
// *rand.Rand derived from LinkParams.Seed (itself derived from the
// testbed or scenario seed), only ever touched under d.mu, and created
// lazily on the first draw — links with neither jitter nor loss never
// pay for seeding. No global rand is consulted anywhere in the
// emulator, so runs with hundreds of concurrent sessions stay
// bit-identical per seed: one direction's draw sequence depends only on
// its own byte stream, never on scheduling order against other
// directions.
type direction struct {
	clock  *Clock
	params LinkParams
	rng    *rand.Rand // lazily seeded on first draw; guarded by mu

	mu       sync.Mutex
	cond     *Cond // clock-aware; signalled on enqueue, read, close, abort
	queue    ring[segment]
	buffered int // bytes written but not yet read (send buffer accounting)
	unread   int // offset into the head segment already consumed

	lastDeparture time.Time // pacing frontier
	lastArrival   time.Time // FIFO arrival frontier

	// slow-start state: cwnd grows by one byte per acknowledged byte
	// (classic slow start), where a segment counts as acknowledged one
	// reverse-path delay after it arrives.
	lastActivity time.Time
	sentCum      int64          // bytes queued onto the link
	ackedCum     int64          // bytes acknowledged by time lastAckCheck
	ackQueue     ring[ackPoint] // pending (ackTime, cumulative sent) marks
	ssBaseline   int64          // ackedCum at the last slow-start (re)start

	closed bool // writer closed: drain queue then EOF

	// Event-API state (see event.go). readableCb/writableCb are the
	// armed completion callbacks of a non-parking reader/writer;
	// readTimer is the wheel entry that fires readableCb at the head
	// segment's arrival instant. retained holds segments consumed
	// through readBuf whose borrowed views are still outstanding
	// (released FIFO by release); relOff is the released prefix of the
	// retained head.
	readableCb func()
	writableCb func()
	readTimer  *Timer
	retained   ring[segment]
	relOff     int
	// evWake is the arrival instant an evented reader last committed to
	// wake at (the queue head's arrival when it drained to nil, exactly
	// the instant a blocking reader would SleepUntil). An abort that
	// drops that segment stays unobservable through readBuf until
	// evWake, mirroring the sleeping blocking reader that only sees the
	// error once its scheduled wake instant arrives.
	evWake time.Time

	// Abort protocol state. An abort is a scheduled event at an emulated
	// instant, not a wall-clock side effect: abortErr/abortTime are set
	// once (earliest schedule wins) and every endpoint behaviour is then
	// a pure function of virtual time — reads and writes fail once the
	// clock reaches abortTime, segments that arrived at or before the
	// abort instant stay deliverable (even if read later), and segments
	// that would arrive strictly after it are dropped in flight.
	// Outcomes therefore never depend on goroutine scheduling order
	// around the abort. abortTimer re-wakes parked waiters at a
	// future abort instant; it is a clock timer-wheel entry, not a
	// goroutine, so scheduling (and re-scheduling, when an earlier
	// abort supersedes) is a bucket write on the owner's shard.
	abortErr   error
	abortTime  time.Time
	abortTimer *Timer
}

func newDirection(clock *Clock, p LinkParams) *direction {
	d := &direction{
		clock:  clock,
		params: p.withDefaults(),
	}
	d.cond = NewCond(clock, &d.mu)
	now := clock.Now()
	d.lastActivity = now
	d.lastDeparture = now
	d.lastArrival = now
	return d
}

// draws returns the direction's lazily-created rng. Seeding a math/rand
// source costs ~600 words of state initialisation, which dominated
// fleet-scale connection setup when done eagerly for every direction;
// deferring it to the first jitter/loss draw keeps the draw sequence
// identical while making loss-free links free. Callers must hold d.mu.
func (d *direction) draws() *rand.Rand {
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(d.params.Seed + 1))
	}
	return d.rng
}

// ssRate returns the slow-start cap on the pacing rate at emulated time t,
// in bytes per second, or +Inf when slow start is disabled. Classic
// slow start: the congestion window starts at InitCwnd segments and
// grows by one byte per acknowledged byte (doubling per round trip
// while the link keeps up), restarting after an idle period.
func (d *direction) ssRate(t time.Time) float64 {
	if !d.params.SlowStart {
		return math.Inf(1)
	}
	rtt := 2 * d.params.Delay
	if rtt <= 0 {
		return math.Inf(1)
	}
	// Absorb acknowledgements due by t.
	for d.ackQueue.len() > 0 && !d.ackQueue.front().t.After(t) {
		d.ackedCum = d.ackQueue.pop().cum
	}
	if t.Sub(d.lastActivity) > d.params.SSRestartIdle {
		d.ssBaseline = d.ackedCum // idle restart
	}
	cwnd := float64(d.params.InitCwnd*DefaultMSS) + float64(d.ackedCum-d.ssBaseline)
	return cwnd / rtt.Seconds()
}

// write paces p onto the link, blocking while the send buffer is full.
// It returns the number of bytes accepted and the abort error, if any.
// part is the writing goroutine's clock handle.
//
// stable marks p as immutable and immortal for the purposes of this
// write (a borrowed view of the origin's content page cache): instead
// of copying into a pooled segment buffer, the queue aliases sub-slices
// of p directly (capacity clipped to length, so the coalescing append
// can never touch bytes beyond the slice and falls back to a fresh
// segment instead). Pacing, arrival instants and delivered bytes are
// identical either way — only the copy disappears.
func (d *direction) write(p []byte, part *Participant, stable bool) (int, error) {
	written := 0
	for len(p) > 0 {
		d.mu.Lock()
		for {
			if err := d.abortedBy(d.clock.Now()); err != nil {
				d.mu.Unlock()
				return written, err
			}
			if d.closed {
				d.mu.Unlock()
				return written, errClosedConn
			}
			if d.buffered < d.params.SendBuf {
				break
			}
			// Send buffer full: space is freed only by reads, and a
			// reader waiting out an arrival wakes through the clock, so
			// this wait cannot deadlock (a pending abort re-wakes every
			// waiter at the abort instant). A false return means the
			// clock stopped and the reader will never drain.
			if !d.cond.Wait(part) {
				d.mu.Unlock()
				return written, errClosedConn
			}
		}

		wasEmpty := d.queue.len() == 0
		segBytes := d.pushSegmentLocked(p, stable)
		p = p[segBytes:]
		written += segBytes
		d.cond.Broadcast()
		arm, fire := d.readableArmLocked(wasEmpty)
		d.mu.Unlock()
		d.dispatchReadable(arm, fire)
	}
	return written, nil
}

// pushSegmentLocked paces one segment of p onto the link and returns its
// size. It is the single pacing/enqueue path shared by the blocking
// write and the non-parking tryWrite, so both produce identical segment
// boundaries, arrival instants and slow-start evolution. Callers must
// hold d.mu, must have checked abort/closed/send-buffer admission, and
// must broadcast afterwards.
func (d *direction) pushSegmentLocked(p []byte, stable bool) int {
	now := d.clock.Now()
	if d.lastDeparture.Before(now) {
		d.lastDeparture = now
	}
	rate := d.params.rateAt(d.lastDeparture)
	if ss := d.ssRate(d.lastDeparture); ss < rate {
		rate = ss
	}
	d.lastActivity = d.lastDeparture

	// Segment size: at most Quantum of line time, at least one MSS.
	segBytes := int(rate * d.params.Quantum.Seconds())
	if segBytes < DefaultMSS {
		segBytes = DefaultMSS
	}
	if segBytes > len(p) {
		segBytes = len(p)
	}

	tx := time.Duration(float64(segBytes) / rate * float64(time.Second))
	dep := d.lastDeparture.Add(tx)
	arr := dep.Add(d.params.Delay)
	if d.params.Jitter > 0 {
		arr = arr.Add(time.Duration(d.draws().Int63n(int64(d.params.Jitter))))
	}
	if prob := d.params.lossAt(dep); prob > 0 {
		// Loss draws happen only when the effective probability at the
		// departure instant is positive, so links whose storms never
		// activate — and all loss-free links — keep a byte-identical
		// draw sequence with and without LossWindows configured.
		nseg := (segBytes + DefaultMSS - 1) / DefaultMSS
		for i := 0; i < nseg; i++ {
			if d.draws().Float64() < prob {
				arr = arr.Add(d.params.RTOPenalty)
			}
		}
	}
	if arr.Before(d.lastArrival) {
		arr = d.lastArrival // FIFO
	}
	d.lastDeparture = dep
	d.lastArrival = arr
	d.sentCum += int64(segBytes)
	if d.params.SlowStart {
		// The segment is acknowledged one reverse-path delay after
		// it arrives.
		d.ackQueue.push(ackPoint{t: arr.Add(d.params.Delay), cum: d.sentCum})
	}
	if d.abortErr != nil && arr.After(d.abortTime) {
		// Dropped-at-abort rule: the segment would arrive strictly
		// after the scheduled abort instant, so it is accepted from
		// the sender (which cannot tell yet) but vanishes in flight
		// and never occupies the receive queue.
	} else if last := d.lastSegment(); last != nil && last.arrival.Equal(arr) &&
		len(last.data)+segBytes <= cap(last.data) {
		// Coalesce into the tail segment when the arrival instant is
		// identical (a clamped backlog) and the pooled buffer has
		// room: the reader drains by arrival instant, so merging
		// changes neither timing nor content, only queue churn.
		// (Aliased stable segments advertise no spare capacity, so
		// they are never appended into.)
		last.data = append(last.data, p[:segBytes]...)
		d.buffered += segBytes
	} else if stable {
		d.queue.push(segment{data: p[:segBytes:segBytes], arrival: arr})
		d.buffered += segBytes
	} else {
		data, box := getSegBuf(segBytes)
		copy(data, p[:segBytes])
		d.queue.push(segment{data: data, box: box, arrival: arr})
		d.buffered += segBytes
	}
	return segBytes
}

// lastSegment returns the newest queued segment, or nil when the queue
// is empty. Appending to it is safe even when it doubles as the
// partially consumed head: consumption tracks unread while append only
// extends len, and both happen under d.mu. Callers must hold d.mu.
func (d *direction) lastSegment() *segment {
	if d.queue.len() == 0 {
		return nil
	}
	return d.queue.back()
}

// read copies delivered bytes into p, blocking until data is available
// (waiting out the arrival time of the head segment when necessary).
// Fully consumed segments return their pooled buffers. part is the
// reading goroutine's clock handle.
func (d *direction) read(p []byte, part *Participant) (int, error) {
	for {
		d.mu.Lock()
		if d.queue.len() == 0 {
			// Delivered-before-abort rule: the queue only ever holds
			// segments arriving at or before the abort instant (later
			// ones are dropped at enqueue/schedule time), so queued data
			// is always drained before the abort error surfaces — even
			// when the reader runs after the abort instant.
			if err := d.abortedBy(d.clock.Now()); err != nil {
				d.mu.Unlock()
				return 0, err
			}
			if d.closed {
				d.mu.Unlock()
				return 0, errEOF
			}
			ok := d.cond.Wait(part)
			d.mu.Unlock()
			if !ok {
				return 0, errClosedConn
			}
			continue
		}
		head := d.queue.front()
		now := d.clock.Now()
		if head.arrival.After(now) {
			if d.clock.Stopped() {
				// Teardown: SleepUntil would return immediately and the
				// arrival instant will never come.
				d.mu.Unlock()
				return 0, errClosedConn
			}
			arrival := head.arrival
			d.mu.Unlock()
			part.SleepUntil(arrival)
			continue
		}
		// Drain as many arrived segments as fit into p.
		n := 0
		for n < len(p) && d.queue.len() > 0 {
			s := d.queue.front()
			if s.arrival.After(now) {
				break
			}
			avail := s.data[d.unread:]
			c := copy(p[n:], avail)
			n += c
			d.unread += c
			if d.unread == len(s.data) {
				putSegBuf(d.queue.pop())
				d.unread = 0
			}
		}
		d.buffered -= n
		d.cond.Broadcast()
		wcb := d.writableCb
		d.mu.Unlock()
		if wcb != nil && n > 0 {
			wcb()
		}
		return n, nil
	}
}

// close marks the writer side closed: the reader drains then sees EOF.
// Idempotent: only the first close signals waiters and callbacks, so a
// callback that closes its own conn cannot recurse through itself.
func (d *direction) close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.cond.Broadcast()
	var rcb func()
	if d.queue.len() == 0 {
		rcb = d.readableCb // EOF is observable immediately
	}
	wcb := d.writableCb
	d.mu.Unlock()
	if rcb != nil {
		rcb()
	}
	if wcb != nil {
		wcb()
	}
}

// writerClosed reports whether the writing endpoint has closed.
func (d *direction) writerClosed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// abortedBy returns the abort error when the scheduled abort has taken
// effect by the emulated instant now. Callers must hold d.mu.
func (d *direction) abortedBy(now time.Time) error {
	if d.abortErr != nil && !now.Before(d.abortTime) {
		return d.abortErr
	}
	return nil
}

// abort schedules a hard failure effective at the current emulated
// instant: both ends fail from now on, and queued segments that have
// not yet arrived are dropped (already-arrived data stays deliverable).
func (d *direction) abort(err error) { d.abortAt(d.clock.Now(), err) }

// abortAt schedules a hard failure of the direction at the emulated
// instant t (clamped to now). The earliest scheduled abort wins; a
// later re-schedule is a no-op, which makes redundant abort sources
// (teardown sweep, per-request cancellation watchers, interface loss)
// commute. Segments whose arrival instant is strictly after t are
// dropped immediately (releasing their pooled buffers); segments
// arriving at or before t remain deliverable until read. Both
// endpoints observe the error exactly from t onward, regardless of
// when their goroutines are scheduled.
func (d *direction) abortAt(t time.Time, err error) { d.markAbort(t, err).dispatch() }

// abortWake is what an abort recorded under d.mu still has to do once
// the lock is released: fire the armed callbacks (immediate abort) or
// schedule the wake timer (future abort). Conn.AbortAt records both
// directions before dispatching either, so a callback never observes
// one direction aborted and the other not.
type abortWake struct {
	d        *direction
	t        time.Time
	rcb, wcb func()
	watcher  *Timer // future abort: the timer to schedule at t
}

// markAbort records the abort under d.mu and returns the wake-up to
// dispatch outside it.
func (d *direction) markAbort(t time.Time, err error) abortWake {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clock.Now()
	if t.Before(now) {
		t = now
	}
	if d.abortErr != nil && !d.abortTime.After(t) {
		return abortWake{}
	}
	d.abortErr, d.abortTime = err, t
	// Dropped-at-abort rule: in-flight segments arriving strictly after
	// the abort instant vanish; a segment arriving exactly at t counts
	// as delivered. Strictness is what makes same-instant races
	// commute: a reader runnable at t may already have (partially)
	// consumed a segment with arrival == t, and dropping it here would
	// make the outcome depend on which goroutine ran first (besides
	// corrupting the unread/buffered accounting of a half-read head).
	// The queue is arrival-ordered, so dropped segments form a suffix,
	// and a partially consumed head (arrival <= now <= t) survives.
	for d.queue.len() > 0 && d.queue.back().arrival.After(t) {
		s := d.queue.popBack()
		d.buffered -= len(s.data)
		putSegBuf(s)
	}
	d.cond.Broadcast()
	if !t.After(now) {
		return abortWake{rcb: d.readableCb, wcb: d.writableCb}
	}
	if d.abortTimer == nil {
		d.abortTimer = d.clock.NewTimer(func() {
			d.mu.Lock()
			d.cond.Broadcast()
			rcb, wcb := d.readableCb, d.writableCb
			d.mu.Unlock()
			// The abort instant has arrived: event-API endpoints learn of
			// the failure through their armed callbacks, exactly like the
			// parked waiters the broadcast re-wakes.
			if rcb != nil {
				rcb()
			}
			if wcb != nil {
				wcb()
			}
		})
	}
	return abortWake{d: d, t: t, watcher: d.abortTimer}
}

func (w abortWake) dispatch() {
	if w.rcb != nil {
		w.rcb()
	}
	if w.wcb != nil {
		w.wcb()
	}
	if w.watcher == nil {
		return
	}
	// Future abort: a wheel timer re-wakes all waiters at the abort
	// instant, when the error becomes observable. An earlier abort
	// superseding a later one reschedules the same timer (its old entry
	// is cancelled in place); immediate aborts (the teardown hot path)
	// never schedule anything.
	//
	// Schedule runs outside d.mu (a stale schedule fires the broadcast
	// callback synchronously, which retakes d.mu), so two racing
	// abortAt calls could otherwise interleave as set(t1) set(t2<t1)
	// schedule(t2) schedule(t1), pinning the timer at the later
	// instant while abortTime holds the earlier one. Converge instead:
	// after scheduling, re-read abortTime and reschedule until the
	// timer's target matches it — abortTime only ever moves earlier,
	// so the loop terminates, and earliest-abort-wins stays true
	// regardless of goroutine interleaving.
	d, t := w.d, w.t
	for {
		w.watcher.Schedule(t)
		d.mu.Lock()
		cur := d.abortTime
		d.mu.Unlock()
		if cur.Equal(t) {
			return
		}
		t = cur
	}
}

// queuedBytes reports the bytes currently queued for delivery,
// including the partially consumed head segment; used by tests to
// verify that delivered segments release their memory.
func (d *direction) queuedBytes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	total := -d.unread
	for i := 0; i < d.queue.len(); i++ {
		total += len(d.queue.buf[(d.queue.head+i)&(len(d.queue.buf)-1)].data)
	}
	if total < 0 {
		total = 0
	}
	return total
}

// queueCapBytes reports the payload capacity referenced by the queue's
// backing array — what the direction is actually pinning. A drained
// queue must report 0 regardless of how much traffic has passed.
func (d *direction) queueCapBytes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	total := 0
	for i := range d.queue.buf {
		total += cap(d.queue.buf[i].data)
	}
	return total
}

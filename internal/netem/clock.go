package netem

import "time"

// Clock is the time source for an emulated network. All emulated delays
// (propagation, pacing, server think time, playout draining) are
// expressed through a Clock.
//
// The Clock is a deterministic discrete-event queue that one driver
// drains. Pending events are Timer callbacks in one timer queue (see
// queue.go), a min-heap ordered by (deadline, seq). The driver — the
// goroutine holding the clock's Participant — fires them one at a
// time, in that order, on its own goroutine, through SleepUntil and
// Await; between those calls virtual time stands still. Nothing parks:
// a wait is a Timer whose callback runs the next step. There is no
// background goroutine and no wall-clock polling, so virtual runs are
// CPU-bound and their event order is independent of machine load.
//
// A Clock and everything scheduled on it belong to one goroutine at a
// time — the driver while it drains, whoever sets the emulation up
// otherwise — so the clock takes no lock.
type Clock struct {
	virt    int64     // current virtual offset from base, in ns
	base    time.Time // virtual epoch
	q       queue
	seq     int64        // tiebreaker for same-instant firing order
	stopped bool         // set by Stop; a stopped clock never moves
	driver  *Participant // the live driver, nil when none
}

// Participant is the clock's driver handle, minted by Register: the
// only way to move virtual time.
type Participant struct {
	c *Clock
}

// NewVirtualClock returns a deterministic discrete-event clock. Time only
// advances while the driver drains the queue (SleepUntil, Await). Call
// Stop when the emulation is finished.
func NewVirtualClock() *Clock {
	return &Clock{base: time.Unix(1_700_000_000, 0)} // arbitrary fixed epoch for determinism
}

// Register claims the clock's single driver role and returns its
// handle. It panics if a driver is already live: two drivers would each
// run the other's events. Pair every Register with Unregister.
func (c *Clock) Register() *Participant {
	if c.driver != nil {
		panic("netem: Register on a clock that already has a live driver")
	}
	p := &Participant{c: c}
	c.driver = p
	return p
}

// Clock returns the clock the participant drives.
func (p *Participant) Clock() *Clock { return p.c }

// Unregister gives up the driver role. It is idempotent; a handle must
// not drive the clock after unregistering.
func (p *Participant) Unregister() {
	if p.c.driver == p {
		p.c.driver = nil
	}
}

// Stop terminates the clock: pending events are dropped, a driver
// returns from SleepUntil or Await after the event that called Stop,
// and Now stays at the stop instant, so teardown-path reads (session
// metrics, buffer levels) are stable. Call it on the clock's goroutine,
// from a callback or after the driver returned.
func (c *Clock) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.q.reset()
}

// Stopped reports whether Stop has been called. Machines check it to
// stop re-arming during teardown.
func (c *Clock) Stopped() bool { return c.stopped }

// Now returns the current emulated time. After Stop, Now is frozen at
// the stop instant.
func (c *Clock) Now() time.Time {
	return c.base.Add(time.Duration(c.virt))
}

// SleepUntil fires every event due at or before the emulated instant t
// in (deadline, seq) order on the caller, then moves Now to t. It
// returns at once on a stopped clock.
func (p *Participant) SleepUntil(t time.Time) {
	c := p.c
	deadline := int64(t.Sub(c.base))
	for !c.stopped && len(c.q) > 0 && c.q[0].deadline <= deadline {
		c.step()
	}
	if !c.stopped && deadline > c.virt {
		c.virt = deadline
	}
}

// Await fires events in (deadline, seq) order until done() holds and
// returns true, or returns false when the clock stops or the queue
// empties first: nothing is left that could make done() hold. done is
// checked before the first event and after each one. Await returns only
// at an instant boundary: once done() holds it still fires every event
// due at the current instant, so work the caller schedules next never
// runs ahead of the instant's leftovers.
//
// A false return is final — the emulation has quiesced or been torn
// down — and callers turn it into an error rather than waiting again.
func (p *Participant) Await(done func() bool) bool {
	c := p.c
	for !done() {
		if c.stopped || len(c.q) == 0 {
			return false
		}
		c.step()
	}
	for !c.stopped && len(c.q) > 0 && c.q[0].deadline <= c.virt {
		c.step()
	}
	return true
}

// step pops the earliest event, moves Now to its deadline and runs its
// callback. The timer is off the queue before the callback runs, so the
// callback may reschedule it.
func (c *Clock) step() {
	t := c.q.remove(0)
	if t.deadline > c.virt {
		c.virt = t.deadline
	}
	t.fn()
}

// A Timer runs a callback at an emulated instant. Consumers use it for
// every event-at-an-instant: future conn aborts, readiness wakes,
// request deadlines, session arrivals, fault onsets.
//
// The callback runs on the driver at exactly the scheduled instant. It
// must not drive the clock itself (no SleepUntil, no Await): it
// schedules, aborts, flips flags and enqueues Loop steps.
//
// A timer holds at most one pending schedule: Schedule replaces the
// previous one, removing the timer from the queue in place. Stop
// cancels the pending schedule if the callback has not fired yet.
type Timer struct {
	c  *Clock
	fn func()

	// Queue node state, reused by every schedule.
	deadline int64 // ns offset from the clock base
	seq      int64 // scheduling order; breaks same-instant ties
	idx      int   // position in the queue; -1 when not queued
}

// NewTimer returns an unscheduled timer firing fn.
func (c *Clock) NewTimer(fn func()) *Timer {
	return &Timer{c: c, fn: fn, idx: -1}
}

// Schedule (re)schedules the timer to fire at the emulated instant at,
// replacing any pending schedule. An instant at or before the current
// emulated time runs the callback synchronously. On a stopped clock
// Schedule only cancels.
func (t *Timer) Schedule(at time.Time) {
	c := t.c
	c.q.cancel(t)
	if c.stopped {
		return
	}
	deadline := int64(at.Sub(c.base))
	if deadline <= c.virt {
		t.fn()
		return
	}
	c.seq++
	t.deadline, t.seq = deadline, c.seq
	c.q.push(t)
}

// Stop cancels the pending schedule, if any.
func (t *Timer) Stop() { t.c.q.cancel(t) }

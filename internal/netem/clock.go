package netem

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the time source for an emulated network. All emulated delays
// (propagation, pacing, server think time, playout draining) are
// expressed through a Clock.
//
// The Clock is a deterministic discrete-event scheduler driven by
// waiter accounting: every emulation participant registers
// (Register / Go), receiving a *Participant handle, and parks only
// through clock-visible primitives (Participant.Sleep / SleepUntil,
// Cond.Wait). The moment every registered participant is parked the
// clock jumps straight to the earliest pending deadline. There is no
// background advancer goroutine and no wall-clock polling: virtual runs
// are CPU-bound and their event order is independent of machine load.
//
// Pending deadlines live in one timer queue (see queue.go), a min-heap
// ordered by (deadline, seq) under the clock's one lock, mu. The jump
// loop pops every sleeper due at the next instant in that order and
// fans the wake tokens out after the lock is released.
//
// The Participant handle is the unit of accounting: registering is a
// counter increment, parking reuses the handle's wake channel and
// queue node, and no per-park goroutine-identity lookup happens
// anywhere. The participant/idle counters are atomics, so
// condition-variable parks and wakes never take the clock lock at all.
//
// Only registered goroutines park: every blocking primitive takes the
// caller's Participant. A goroutine that never registered (a test, an
// example's main) registers first or drives the emulation entirely
// through Timers and Loops.
type Clock struct {
	// parts counts registered participants plus holds; idle counts
	// participants currently parked in clock-visible waits. The clock
	// may jump exactly when idle == parts. Every operation that can make
	// the condition become true (parking, releasing a hold,
	// unregistering) calls tryAdvance afterwards, so no advance is ever
	// missed.
	parts atomic.Int64
	idle  atomic.Int64

	virt atomic.Int64 // current virtual offset from base, in ns
	base time.Time    // virtual epoch

	// mu guards the timer queue, seq and stopped, and serialises the
	// jump loop.
	mu      sync.Mutex
	q       queue
	seq     int64      // tiebreaker for same-instant firing order
	stopped bool       // set by Stop; a stopped clock never jumps
	fire    []wakeItem // jump-scratch: due wakes fanned out lock-free

	done chan struct{} // closed by Stop; wakes every parked waiter
}

// Participant is one registered emulation participant: a handle minted
// by Register or Go that the owning goroutine threads through every
// clock-visible park (Sleep, SleepUntil, Cond.Wait). A Participant
// belongs to exactly one goroutine at a time and its park state (wake
// channel, queue node) is reused across parks, so steady-state parking
// allocates nothing and never consults a goroutine-identity map.
type Participant struct {
	c    *Clock
	wake chan struct{} // cap 1; carries one wake token per park
	s    sleeper       // reusable queue node for deadline parks
	gone atomic.Bool   // unregistered
}

// NewVirtualClock returns a deterministic discrete-event clock. Time only
// advances when every registered participant is parked in a clock-visible
// wait; it then jumps to the earliest pending deadline. Call Stop when
// the emulation is finished.
func NewVirtualClock() *Clock {
	return &Clock{
		base: time.Unix(1_700_000_000, 0), // arbitrary fixed epoch for determinism
		done: make(chan struct{}),
	}
}

// Register marks the calling goroutine as an emulation participant and
// returns its handle: the virtual clock refuses to jump while any
// participant is running, so everything the goroutine does between
// parks happens at a frozen virtual instant. Park only through the
// returned handle, and pair every Register with Unregister.
func (c *Clock) Register() *Participant {
	p := &Participant{c: c, wake: make(chan struct{}, 1)}
	c.parts.Add(1)
	return p
}

// Clock returns the clock the participant is registered with.
func (p *Participant) Clock() *Clock { return p.c }

// Unregister removes the participant from the clock's accounting. It is
// idempotent; a handle must not be used to park after unregistering.
func (p *Participant) Unregister() {
	c := p.c
	if !p.gone.Swap(true) {
		c.parts.Add(-1)
		c.tryAdvance()
	}
}

// Hold blocks virtual-time jumps until Release, without registering a
// goroutine. It covers handoff windows where work has been scheduled but
// the goroutine that will perform it has not started executing yet.
func (c *Clock) Hold() { c.parts.Add(1) }

// Release undoes one Hold.
func (c *Clock) Release() {
	c.parts.Add(-1)
	c.tryAdvance()
}

// Go runs fn on a new goroutine registered with the clock, passing fn
// its Participant handle. The clock cannot jump between the call and fn
// starting to execute, so events fn schedules are anchored to the
// virtual instant of the spawn.
func (c *Clock) Go(fn func(*Participant)) {
	c.Hold()
	go func() { //detlint:allow baredgo -- this IS Clock.Go: the one registered spawn point
		p := c.Register()
		c.Release()
		defer p.Unregister()
		fn(p)
	}()
}

// Stop terminates the clock. Parked waiters are woken immediately
// through the done channel; the emulation is expected to be torn down
// afterwards. A stopped clock never jumps again, so Now stays at the
// stop instant and teardown-path reads (session metrics, buffer
// levels) are stable.
func (c *Clock) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	c.stopped = true
	close(c.done)
	c.q.reset()
}

// Stopped reports whether Stop has been called. Blocking primitives
// return immediately on a stopped clock, so loops that wait for an
// emulated instant must check this to avoid spinning during teardown.
func (c *Clock) Stopped() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Now returns the current emulated time: a lock-free atomic read.
// Registered participants can only observe the clock between jumps
// (jumps require them all parked). After Stop, Now is frozen at the
// stop instant.
func (c *Clock) Now() time.Time {
	return c.base.Add(time.Duration(c.virt.Load()))
}

// Sleep blocks the participant for an emulated duration d.
func (p *Participant) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	p.SleepUntil(p.c.Now().Add(d))
}

// SleepUntil parks the participant until the emulated instant t. The
// park reuses the participant's wake channel and queue node, so the
// steady state allocates nothing.
func (p *Participant) SleepUntil(t time.Time) {
	c := p.c
	deadline := int64(t.Sub(c.base))
	c.mu.Lock()
	if c.stopped || deadline <= c.virt.Load() {
		c.mu.Unlock()
		return
	}
	c.seq++
	p.s = sleeper{deadline: deadline, seq: c.seq, ch: p.wake}
	c.q.push(&p.s)
	c.mu.Unlock()
	// The sleeper becomes eligible to be popped only once idle is
	// incremented: an advance requires idle == parts, and this
	// goroutine is counted in parts but not yet in idle.
	if c.idle.Add(1) == c.parts.Load() {
		c.tryAdvance()
	}
	select {
	case <-p.wake:
	case <-c.done:
	}
}

// tryAdvance jumps virtual time to the earliest pending deadline when
// every participant is parked, waking every sleeper that becomes due.
// Waking a sleeper leaves idle < parts, ending the loop until that
// goroutine parks again; a fired timer callback releases its hold, so
// the condition is re-evaluated and further jumps may fire immediately.
//
// The idle == parts check is a pair of atomic loads, re-evaluated under
// mu on every loop iteration. A torn read can only produce equality at
// instants where the condition genuinely held (every counter transition
// toward equality triggers its own tryAdvance, and transitions away
// from it mean the affected goroutine is runnable and will re-check
// when it parks), so jumps stay deterministic.
func (c *Clock) tryAdvance() {
	// Due sleepers are popped under mu but their wake tokens are fanned
	// out after it is released: a channel send can wake a goroutine (a
	// futex syscall under contention), and doing that inside the
	// critical section convoys other advance attempts behind it, and a
	// timer callback may re-enter Schedule. Popping a sleeper
	// decrements idle, so no further jump can fire until it parks again
	// — sending its token late is indistinguishable from the goroutine
	// being slow to run. A popped timer closes the condition too (the
	// pending callback holds the clock) until the callback has run; the
	// outer loop re-checks.
	for {
		c.mu.Lock()
		fire := c.collectDue()
		c.mu.Unlock()
		if len(fire) == 0 {
			return
		}
		for _, w := range fire {
			if w.fn != nil {
				// Timer callback: runs on this goroutine at the popped
				// instant, under the hold collectDue took for it.
				// Callbacks must not park (they broadcast, signal,
				// schedule — never wait).
				w.fn()
				c.parts.Add(-1) // release the hold; loop re-checks
				continue
			}
			select {
			case w.ch <- struct{}{}:
			default:
			}
		}
	}
}

// wakeItem is a popped sleeper's wake action, snapshotted under mu.
// Fan-out must not touch the sleeper nodes themselves: the moment the
// first token of a batch is delivered, a woken goroutine may reuse its
// own node for the next park — or reschedule a popped Timer, whose node
// would be rewritten mid-fan-out.
type wakeItem struct {
	ch chan struct{}
	fn func()
}

// collectDue advances virtual time while every participant is parked,
// popping every due sleeper in (deadline, seq) order and snapshotting
// its wake action. The caller holds mu; the returned slice is the
// clock's reusable scratch, valid until the next collectDue call. No
// next jump can start before this batch's fan-out ends: every popped
// sleeper is off the idle count until its token arrives and parks it
// again, and every popped timer holds the clock until its callback has
// run.
func (c *Clock) collectDue() []wakeItem {
	fire := c.fire[:0]
	for !c.stopped && len(c.q) > 0 && c.idle.Load() == c.parts.Load() {
		virt := c.virt.Load()
		if d := c.q[0].deadline; d > virt {
			virt = d
			c.virt.Store(virt)
		}
		for len(c.q) > 0 && c.q[0].deadline <= virt {
			s := c.q.remove(0)
			fire = append(fire, wakeItem{ch: s.ch, fn: s.fn})
			// Sleepers return to the running state (idle--); timers
			// take a hold (parts++) released by tryAdvance after their
			// callback runs.
			if s.fn != nil {
				c.parts.Add(1)
			} else {
				c.idle.Add(-1)
			}
		}
	}
	c.fire = fire
	return fire
}

// A Timer runs a callback at an emulated instant without dedicating a
// goroutine to waiting for it: the clock's jump loop fires the callback
// when virtual time reaches the scheduled deadline. Consumers use it
// for event-at-an-instant work that previously parked a whole goroutine
// per event (future conn aborts, wake-the-waiters watchers).
//
// The callback runs on the jump goroutine at the exact scheduled
// instant, while the clock is mid-jump: it must not park (no Sleep, no
// Cond.Wait) — broadcasting a Cond, signalling, or scheduling further
// timers is the intended use.
//
// Schedule and Stop may be called from any running goroutine. A timer
// holds at most one pending schedule: Schedule replaces the previous
// one, removing its queue node in place and reusing it. Stop cancels
// the pending schedule if the callback has not fired yet; a callback
// that is already firing cannot be recalled (it is idempotent in every
// consumer here).
type Timer struct {
	c  *Clock
	fn func()

	mu sync.Mutex // orders Schedule/Stop against each other
	s  sleeper    // queue node, reused by every schedule
}

// NewTimer returns an unscheduled timer firing fn.
func (c *Clock) NewTimer(fn func()) *Timer {
	t := &Timer{c: c, fn: fn}
	t.s.idx = -1
	return t
}

// Schedule (re)schedules the timer to fire at the emulated instant t,
// replacing any pending schedule. An instant at or before the current
// emulated time runs the callback synchronously. On a stopped clock
// Schedule is a no-op (parked waiters have already been woken through
// the done channel).
func (t *Timer) Schedule(at time.Time) {
	c := t.c
	if c.Stopped() {
		return
	}
	// The hold pins virtual time across the push for unregistered
	// callers (mirroring Clock.Go's handoff window); for registered
	// callers it is a cheap no-op-equivalent pair of atomic adds.
	c.Hold()
	defer c.Release()
	t.mu.Lock()
	defer t.mu.Unlock()
	deadline := int64(at.Sub(c.base))
	c.mu.Lock()
	c.q.cancel(&t.s)
	if c.stopped {
		c.mu.Unlock()
		return
	}
	if deadline <= c.virt.Load() {
		c.mu.Unlock()
		t.fn()
		return
	}
	c.seq++
	t.s = sleeper{deadline: deadline, seq: c.seq, fn: t.fn}
	c.q.push(&t.s)
	c.mu.Unlock()
}

// Stop cancels the pending schedule, if any. It does not wait for a
// callback that is already firing.
func (t *Timer) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.c
	c.mu.Lock()
	c.q.cancel(&t.s)
	c.mu.Unlock()
}

// Cond is a clock-aware condition variable: waiting parks the caller in
// a clock-visible state (so virtual time can advance past it), and
// signalling transfers the waiter back to the running state before the
// signaller can park, closing the wake-up race that would otherwise let
// the clock jump over a goroutine that is about to resume.
//
// Usage mirrors sync.Cond, with one extra rule: Signal and Broadcast
// must also be called with L held. Wait takes the caller's Participant
// handle.
//
// Neither Wait nor wake touches the clock lock: parking is one atomic
// increment (plus an advance attempt when the caller was the last
// runner), waking one atomic decrement.
type Cond struct {
	clock   *Clock
	L       sync.Locker
	waiters []chan struct{}
}

// NewCond returns a Cond bound to clock whose Wait/Signal/Broadcast are
// guarded by l.
func NewCond(clock *Clock, l sync.Locker) *Cond {
	return &Cond{clock: clock, L: l}
}

// Wait atomically unlocks L and parks the participant p until woken by
// Signal or Broadcast, then relocks L before returning. Unlike
// sync.Cond there are no spurious wakeups, but callers should still
// re-check their predicate in a loop.
//
// Wait returns false when the clock has been stopped (at entry, or
// while parked): the wait's wake-up condition may never be signalled
// once the emulation is torn down, so callers must treat false as an
// abort rather than re-checking and waiting again.
func (cv *Cond) Wait(p *Participant) bool {
	c := cv.clock
	if c.Stopped() {
		return false
	}
	cv.waiters = append(cv.waiters, p.wake)
	advance := c.idle.Add(1) == c.parts.Load()
	cv.L.Unlock()
	// The advance runs only after L is released: tryAdvance fires due
	// timer callbacks inline on this goroutine, and a callback may need
	// L itself (a connection callback signalling the very Cond this
	// goroutine waits on) — firing under L would self-deadlock.
	// Running it here is safe against lost wakeups because the waiter is
	// already appended: any Signal/Broadcast issued from inside the
	// advance sees it. And it is safe against a stale condition because
	// tryAdvance re-checks idle == parts under the clock lock.
	if advance {
		c.tryAdvance()
	}
	ok := true
	select {
	case <-p.wake:
	case <-c.done:
		ok = false
	}
	cv.L.Lock()
	return ok
}

// Signal wakes the longest-waiting goroutine, if any. L must be held.
func (cv *Cond) Signal() {
	if len(cv.waiters) == 0 {
		return
	}
	w := cv.waiters[0]
	n := copy(cv.waiters, cv.waiters[1:])
	cv.waiters[n] = nil
	cv.waiters = cv.waiters[:n]
	cv.wake(w)
}

// Broadcast wakes every waiter. L must be held.
func (cv *Cond) Broadcast() {
	for i, w := range cv.waiters {
		cv.waiters[i] = nil
		cv.wake(w)
	}
	cv.waiters = cv.waiters[:0]
}

// wake returns the waiter to the running state before releasing it, so
// the clock sees it as active from the instant of the signal.
func (cv *Cond) wake(ch chan struct{}) {
	cv.clock.idle.Add(-1)
	select {
	case ch <- struct{}{}:
	default:
	}
}

package netem

import (
	"sort"
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
// Pending deadlines live in a sharded timer wheel (see wheel.go):
// each participant is assigned a shard at registration and its parks
// touch only that shard's lock, so deadline scheduling no longer
// serialises the whole emulation on one mutex, and the common park is
// an O(1) bucket append instead of an O(log n) heap insert. The jump
// loop finds the next instant from a lock-free per-shard
// earliest-deadline summary (one atomic load per shard), pops every
// sleeper due at that instant across all shards as one batch, and fans
// the wake tokens out after all shard locks are released — sorted by
// the same (deadline, seq) order the previous global heap popped in,
// so firing order (and with it every downstream report byte) is
// unchanged.
//
// The Participant handle is the unit of accounting: registering is a
// counter increment, parking reuses the handle's wake channel and
// wheel node, and no per-park goroutine-identity lookup happens
// anywhere. The participant/idle counters are atomics, so
// condition-variable parks and wakes never take any clock lock at all.
// This keeps the hot path O(1) and allocation-free, which is what lets
// one clock carry tens of thousands of concurrently parked session
// goroutines without serialising them on a single lock.
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

	seq       atomic.Int64  // global tiebreaker for same-instant firing order
	nextShard atomic.Uint32 // round-robin shard assignment
	stopped   atomic.Bool

	// jumpMu serialises the jump loop (and Stop) only: parks and
	// cancels take shard locks, never this one.
	jumpMu sync.Mutex
	shards [numShards]clockShard
	batch  sleeperBatch // jump-scratch; reused across jumps
	fire   []wakeItem   // jump-scratch: batch snapshot fanned out lock-free

	done chan struct{} // closed by Stop; wakes every parked waiter

}

// Participant is one registered emulation participant: a handle minted
// by Register or Go that the owning goroutine threads through every
// clock-visible park (Sleep, SleepUntil, Cond.Wait). A Participant
// belongs to exactly one goroutine at a time and its park state (wake
// channel, timer-wheel node) is reused across parks, so steady-state
// parking allocates nothing and never consults a goroutine-identity
// map. Each participant is pinned to one wheel shard at registration
// (round-robin), so all of its deadline parks contend only with the
// 1/numShards of the emulation sharing that shard.
type Participant struct {
	c     *Clock
	wake  chan struct{} // cap 1; carries one wake token per park
	s     sleeper       // reusable wheel node for deadline parks
	shard uint32
	gone  atomic.Bool // unregistered
}

// NewVirtualClock returns a deterministic discrete-event clock. Time only
// advances when every registered participant is parked in a clock-visible
// wait; it then jumps to the earliest pending deadline. Call Stop when
// the emulation is finished.
func NewVirtualClock() *Clock {
	c := &Clock{
		base: time.Unix(1_700_000_000, 0), // arbitrary fixed epoch for determinism
		done: make(chan struct{}),
	}
	for i := range c.shards {
		c.shards[i].earliest.Store(sleeperNone)
	}
	return c
}

// Register marks the calling goroutine as an emulation participant and
// returns its handle: the virtual clock refuses to jump while any
// participant is running, so everything the goroutine does between
// parks happens at a frozen virtual instant. Park only through the
// returned handle, and pair every Register with Unregister.
func (c *Clock) Register() *Participant {
	p := &Participant{
		c:     c,
		wake:  make(chan struct{}, 1),
		shard: c.nextShard.Add(1) & (numShards - 1),
	}
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

// Suspend removes the participant from the accounting without retiring
// the handle, returning after Resume restores it. Use it around a wait
// the clock cannot see (e.g. joining worker goroutines whose progress
// needs virtual time): while suspended the goroutine does not hold up
// jumps. The participant must not park while suspended.
func (p *Participant) Suspend() {
	c := p.c
	if p.gone.Load() {
		return
	}
	c.parts.Add(-1)
	c.tryAdvance()
}

// Resume restores a registration removed by Suspend.
func (p *Participant) Resume() {
	if p.gone.Load() {
		return
	}
	p.c.parts.Add(1)
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
	c.jumpMu.Lock()
	if c.stopped.Load() {
		c.jumpMu.Unlock()
		return
	}
	c.stopped.Store(true)
	close(c.done)
	for i := range c.shards {
		c.shards[i].reset()
	}
	c.jumpMu.Unlock()
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
// park reuses the participant's wake channel and wheel node on the
// participant's own shard, so the steady state allocates nothing and
// contends with no other shard.
func (p *Participant) SleepUntil(t time.Time) {
	c := p.c
	sh := &c.shards[p.shard]
	deadline := int64(t.Sub(c.base))
	sh.mu.Lock()
	if c.stopped.Load() || deadline <= c.virt.Load() {
		sh.mu.Unlock()
		return
	}
	p.s = sleeper{deadline: deadline, seq: c.seq.Add(1), ch: p.wake}
	sh.push(&p.s)
	sh.mu.Unlock()
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
// the jump mutex on every loop iteration. A torn read can only produce
// equality at instants where the condition genuinely held (every
// counter transition toward equality triggers its own tryAdvance, and
// transitions away from it mean the affected goroutine is runnable and
// will re-check when it parks), so jumps stay deterministic.
func (c *Clock) tryAdvance() {
	// Due sleepers are collected into one batch under the jump mutex
	// (taking each shard lock exactly once per jump) but their wake
	// tokens are fanned out after every lock is released: a channel
	// send can wake a goroutine (a futex syscall under contention), and
	// doing that inside the critical section convoys other advance
	// attempts behind it. Popping a sleeper decrements idle, so no
	// further jump can fire until it parks again — sending its token
	// late is indistinguishable from the goroutine being slow to run. A
	// popped timer closes the condition too (the pending callback holds
	// the clock) until the callback has run; the outer loop re-checks.
	for {
		c.jumpMu.Lock()
		fire := c.collectDue()
		c.jumpMu.Unlock()
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

// wakeItem is a popped sleeper's wake action, snapshotted under the
// jump lock. Fan-out must not touch the sleeper nodes themselves: the
// moment the first token of a batch is delivered, a woken goroutine may
// reuse its own node for the next park — or reschedule a popped Timer,
// whose node would be rewritten mid-fan-out.
type wakeItem struct {
	ch chan struct{}
	fn func()
}

// collectDue advances virtual time while every participant is parked,
// collecting every due sleeper across shards into one (deadline, seq)
// sorted batch and snapshotting its wake actions. The caller holds
// jumpMu; the returned slice is the clock's reusable scratch, valid
// until the next collectDue call. No next jump can start before this
// batch's fan-out ends: every popped sleeper is off the idle count
// until its token arrives and parks it again, and every popped timer
// holds the clock until its callback has run.
func (c *Clock) collectDue() []wakeItem {
	batch := c.batch[:0]
	for !c.stopped.Load() && c.idle.Load() == c.parts.Load() {
		// Lock-free earliest-deadline summary: one atomic load per
		// shard names the next instant.
		min := int64(sleeperNone)
		for i := range c.shards {
			if e := c.shards[i].earliest.Load(); e < min {
				min = e
			}
		}
		if min == sleeperNone {
			break
		}
		virt := c.virt.Load()
		if min > virt {
			virt = min
			c.virt.Store(virt)
		}
		// Pop only shards whose summary says they have due work: in the
		// common case one shard owns the next instant and the other
		// locks are never touched. The summary is exact while every
		// participant is parked (nothing can push).
		n0 := len(batch)
		for i := range c.shards {
			if c.shards[i].earliest.Load() <= virt {
				batch = c.shards[i].popDue(virt, batch)
			}
		}
		// Account the batch before re-checking the loop condition:
		// sleepers return to the running state (idle--), and timers
		// take a hold (parts++) released by tryAdvance after their
		// callback runs.
		for _, s := range batch[n0:] {
			if s.fn != nil {
				c.parts.Add(1)
			} else {
				c.idle.Add(-1)
			}
		}
	}
	c.batch = batch
	if len(batch) > 1 {
		// Same-instant wakes fire in (deadline, seq) order — exactly the
		// retired global heap's pop order — so event sequencing is
		// unchanged by the wheel. c.batch is a persistent field, so the
		// sort interface conversion does not allocate.
		sort.Sort(&c.batch)
	}
	fire := c.fire[:0]
	for _, s := range batch {
		fire = append(fire, wakeItem{ch: s.ch, fn: s.fn})
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
// one. Stop cancels the pending schedule if the callback has not fired
// yet; a callback that is already firing cannot be recalled (it is
// idempotent in every consumer here).
type Timer struct {
	c     *Clock
	fn    func()
	shard uint32

	mu sync.Mutex // orders Schedule/Stop against each other
	s  *sleeper   // current node; recycled unless abandoned to overflow
}

// NewTimer returns an unscheduled timer firing fn, pinned to the next
// round-robin wheel shard.
func (c *Clock) NewTimer(fn func()) *Timer {
	return &Timer{c: c, fn: fn, shard: c.nextShard.Add(1) & (numShards - 1)}
}

// NewTimer returns an unscheduled timer firing fn, pinned to the
// participant's own wheel shard: events the participant schedules stay
// on the shard its parks already touch.
func (p *Participant) NewTimer(fn func()) *Timer {
	return &Timer{c: p.c, fn: fn, shard: p.shard}
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
	sh := &c.shards[t.shard]
	sh.mu.Lock()
	if t.s != nil && t.s.queued != sleeperIdle {
		if !sh.cancel(t.s) {
			t.s = nil // abandoned to the overflow heap
		}
	}
	deadline := int64(at.Sub(c.base))
	if c.stopped.Load() {
		sh.mu.Unlock()
		return
	}
	if deadline <= c.virt.Load() {
		sh.mu.Unlock()
		t.fn()
		return
	}
	if t.s == nil {
		t.s = &sleeper{}
	}
	*t.s = sleeper{deadline: deadline, seq: c.seq.Add(1), fn: t.fn}
	sh.push(t.s)
	sh.mu.Unlock()
}

// Stop cancels the pending schedule, if any. It does not wait for a
// callback that is already firing.
func (t *Timer) Stop() {
	c := t.c
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.s == nil {
		return
	}
	sh := &c.shards[t.shard]
	sh.mu.Lock()
	if t.s.queued != sleeperIdle && !sh.cancel(t.s) {
		t.s = nil // abandoned to the overflow heap
	}
	sh.mu.Unlock()
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
// Neither Wait nor wake touches any clock lock: parking is one atomic
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
	// tryAdvance re-checks idle == parts under the jump lock.
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

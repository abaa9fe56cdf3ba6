package netem

import (
	"fmt"
	"io"
	"net"
	"time"
)

// Completion API: the only way bytes move on a Conn.
//
// Reads and writes never park a goroutine. A reader drains arrived
// views with ReadBuf and is called back through OnReadable when more
// become observable; a writer paces what the send buffer admits with
// TryWrite and is called back through OnWritable when space frees;
// dials complete through DialEvent's callback and accepts through
// Listener.OnAcceptable's. A whole session's I/O therefore runs as a
// state machine on the clock's driver.
//
// Rules (see also netem/doc.go, "Timer-driven state machines"):
//
//   - OnReadable/OnWritable callbacks fire on the clock's driver (or
//     synchronously on a mutating caller) and MUST NOT drive the
//     clock. Drain, re-arm, hand off — never SleepUntil or Await.
//   - A callback is a level trigger, not an edge count: it may fire
//     spuriously, and one firing may cover many arrivals. Consumers
//     drain until ReadBuf returns nil (or TryWrite stops accepting)
//     and rely on the next firing for the rest.
//   - ReadBuf hands out borrowed views of arrived segments. A view is
//     valid until released; Release(n) returns the oldest n borrowed
//     bytes to the segment pool, strictly FIFO per direction. Escaping
//     a view past its release is a buffer-ownership bug (detlint's
//     borrowck flags retention).

// OnReadable arms fn as the connection's readability callback: it is
// invoked (once or more) whenever bytes may have become readable — a
// segment arrival, writer close, or abort taking effect. fn must not
// park; it typically drains via ReadBuf until nil and returns. Passing
// nil disarms. If data, EOF or an error is already observable, fn
// fires immediately.
func (c *Conn) OnReadable(fn func()) { c.in.onReadable(fn) }

// ReadBuf returns a borrowed view of the next arrived, unconsumed
// bytes, or (nil, nil) when nothing is observable yet — in which case
// the armed OnReadable callback is guaranteed to fire when that
// changes. The view is owned by the direction: it stays valid until
// the caller has Released that many bytes (FIFO). At EOF it returns
// (nil, io.EOF); after an effective abort, (nil, err). Queued data
// always drains before an abort error surfaces.
func (c *Conn) ReadBuf() ([]byte, error) { return c.in.readBuf() }

// Release returns the oldest n bytes previously handed out by ReadBuf
// to the segment pool. Views are released strictly in the order they
// were borrowed; releasing more than is outstanding panics (it is an
// ownership bug, not a runtime condition).
func (c *Conn) Release(n int) { c.in.release(n) }

// TryWrite paces as much of p onto the link as the send buffer admits
// and returns the number of bytes accepted. Each call ends its last
// pacing segment at the end of p, so call boundaries shape the
// timeline. A short write means the send buffer filled: keep a cursor
// and resume when the armed OnWritable callback fires.
func (c *Conn) TryWrite(p []byte) (int, error) { return c.out.tryWrite(p, false) }

// TryWriteStable is TryWrite for callers that guarantee p is immutable
// and outlives its delivery (the origin's content page cache): enqueued
// segments alias sub-slices of p (capacity clipped to length, so the
// coalescing append can never touch bytes beyond them) instead of
// copying into pooled buffers. Pacing and arrival instants are
// identical to TryWrite; only the copy is skipped.
func (c *Conn) TryWriteStable(p []byte) (int, error) { return c.out.tryWrite(p, true) }

// OnWritable arms fn as the connection's writability callback: it is
// invoked whenever send-buffer space may have freed (the peer drained)
// or the direction failed (abort, close) — a level trigger, like
// OnReadable. fn must not park. Passing nil disarms.
func (c *Conn) OnWritable(fn func()) { c.out.onWritable(fn) }

// onReadable arms (or disarms) the readable callback and fires or
// schedules it for already-observable state.
func (d *direction) onReadable(fn func()) {
	d.mu.Lock()
	d.readableCb = fn
	if fn == nil {
		d.mu.Unlock()
		return
	}
	if d.readTimer == nil {
		d.readTimer = d.clock.NewTimer(d.fireReadable)
	}
	var arm time.Time
	fire := false
	if d.queue.len() > 0 {
		arm = d.queue.front().arrival
	} else if d.closed || d.abortErr != nil {
		// EOF now, or an abort that is (or will become) observable; for
		// a future abort the armed abortTimer re-fires the callback at
		// the abort instant, so firing now at worst drains to nil.
		fire = true
	}
	d.mu.Unlock()
	d.dispatchReadable(arm, fire)
}

func (d *direction) onWritable(fn func()) {
	d.mu.Lock()
	d.writableCb = fn
	d.mu.Unlock()
}

// readableArmLocked decides, after segments were enqueued, whether the
// readable callback needs (re)arming: only when the queue went from
// empty to non-empty — an unchanged head keeps its already-armed
// timer, and a reader that drained to nil re-arms through readBuf.
func (d *direction) readableArmLocked(wasEmpty bool) (arm time.Time, fire bool) {
	if d.readableCb == nil || !wasEmpty || d.queue.len() == 0 {
		return time.Time{}, false
	}
	// The reader commits to wake at the new head's arrival.
	d.evWake = d.queue.front().arrival
	return d.queue.front().arrival, false
}

// dispatchReadable performs the arming decided under d.mu, outside it:
// Timer.Schedule on a past instant fires synchronously, and the
// callback re-enters d.mu through ReadBuf.
func (d *direction) dispatchReadable(arm time.Time, fire bool) {
	if fire {
		d.fireReadable()
		return
	}
	if !arm.IsZero() {
		d.readTimer.Schedule(arm)
	}
}

func (d *direction) fireReadable() {
	d.mu.Lock()
	cb := d.readableCb
	d.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// readBuf consumes the head segment's arrived bytes as a borrowed view,
// moving the segment to the retained ring until released. Send-buffer
// accounting (buffered) is charged at consume time; release only
// returns memory.
func (d *direction) readBuf() ([]byte, error) {
	d.mu.Lock()
	now := d.clock.Now()
	if d.queue.len() == 0 {
		// Delivered-before-abort rule: the queue never holds post-abort
		// arrivals, so an empty queue surfaces the error.
		if err := d.abortedBy(now); err != nil {
			if d.evWake.After(now) {
				// The reader had committed to the (now dropped) head
				// segment's arrival instant and observes the error only
				// then: the readTimer armed for that instant re-fires the
				// callback.
				d.mu.Unlock()
				return nil, nil
			}
			d.mu.Unlock()
			return nil, err
		}
		if d.closed {
			d.mu.Unlock()
			return nil, io.EOF
		}
		d.mu.Unlock()
		return nil, nil
	}
	head := d.queue.front()
	if head.arrival.After(now) {
		arm := head.arrival
		d.evWake = arm
		d.mu.Unlock()
		if d.readTimer != nil {
			d.readTimer.Schedule(arm)
		}
		return nil, nil
	}
	s := d.queue.pop()
	view := s.data
	d.retained.push(s)
	d.buffered -= len(view)
	wcb := d.writableCb
	d.mu.Unlock()
	if wcb != nil && len(view) > 0 {
		wcb()
	}
	return view, nil
}

// release returns the oldest n borrowed bytes to the segment pool.
func (d *direction) release(n int) {
	d.mu.Lock()
	for n > 0 {
		if d.retained.len() == 0 {
			d.mu.Unlock()
			panic("netem: Release beyond outstanding borrowed views")
		}
		head := d.retained.front()
		rem := len(head.data) - d.relOff
		if n < rem {
			d.relOff += n
			n = 0
			break
		}
		n -= rem
		d.relOff = 0
		putSegBuf(d.retained.pop())
	}
	d.mu.Unlock()
}

// retainedBytes reports the borrowed-view bytes not yet released; used
// by tests to verify release bookkeeping.
func (d *direction) retainedBytes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	total := -d.relOff
	for i := 0; i < d.retained.len(); i++ {
		total += len(d.retained.buf[(d.retained.head+i)&(len(d.retained.buf)-1)].data)
	}
	if total < 0 {
		total = 0
	}
	return total
}

// tryWrite pushes segments of p until p is exhausted or the send buffer
// fills, and returns the bytes accepted.
//
// stable marks p as immutable and immortal for the purposes of this
// write (see TryWriteStable): the queue aliases sub-slices of p instead
// of copying them into pooled segment buffers.
func (d *direction) tryWrite(p []byte, stable bool) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	written := 0
	d.mu.Lock()
	wasEmpty := d.queue.len() == 0
	for len(p) > 0 {
		if err := d.abortedBy(d.clock.Now()); err != nil {
			arm, fire := d.readableArmLocked(wasEmpty)
			d.mu.Unlock()
			d.dispatchReadable(arm, fire)
			return written, err
		}
		if d.closed {
			arm, fire := d.readableArmLocked(wasEmpty)
			d.mu.Unlock()
			d.dispatchReadable(arm, fire)
			return written, errClosedConn
		}
		if d.buffered >= d.params.SendBuf {
			break
		}
		segBytes := d.pushSegmentLocked(p, stable)
		p = p[segBytes:]
		written += segBytes
	}
	arm, fire := d.readableArmLocked(wasEmpty)
	d.mu.Unlock()
	d.dispatchReadable(arm, fire)
	return written, nil
}

// DialEvent establishes an emulated connection to addr through this
// interface, charging one round trip for the TCP three-way handshake.
// cb is invoked exactly once — on the clock's driver when the
// round trip ends (or synchronously, when it is zero) — with the
// connected endpoint or the dial error. Immediate failures (interface
// down, connection refused, partition) are returned directly and cb is
// never called. cb must not park.
func (i *Interface) DialEvent(addr string, cb func(*Conn, error)) error {
	i.mu.Lock()
	if !i.alive {
		i.mu.Unlock()
		return &net.OpError{Op: "dial", Net: "netem", Addr: Addr(addr), Err: ErrInterfaceDown}
	}
	i.dialSeq++
	seq := i.dialSeq
	i.mu.Unlock()

	n := i.network
	n.mu.Lock()
	l, ok := n.listeners[addr]
	parted := n.partitioned(i.name, addr)
	n.mu.Unlock()
	if !ok {
		return &net.OpError{Op: "dial", Net: "netem", Addr: Addr(addr), Err: fmt.Errorf("connection refused")}
	}
	if parted {
		// The partition drops the SYN: fail instantly, before any
		// handshake round trip is charged.
		return &net.OpError{Op: "dial", Net: "netem", Addr: Addr(addr), Err: ErrPartitioned}
	}

	up, down := i.up, i.down
	up.Delay += l.extraDelay
	down.Delay += l.extraDelay
	// Derive per-connection seeds so jitter/loss differ across conns but
	// stay reproducible.
	up.Seed = up.Seed*1000003 + int64(seq)
	down.Seed = down.Seed*1000003 + int64(seq)*7

	clock := n.clock
	done := clock.NewTimer(func() {
		client, err := i.connect(l, addr, seq, up, down)
		if err != nil {
			cb(nil, &net.OpError{Op: "dial", Net: "netem", Addr: Addr(addr), Err: err})
			return
		}
		cb(client, nil)
	})
	// TCP 3WHS: one full round trip before the connection is usable.
	done.Schedule(clock.Now().Add(2 * up.Delay))
	return nil
}

// Loop serializes the steps of an event-driven state machine. Steps
// run one at a time in FIFO order; a step scheduled from within
// another step (directly or through a callback chain that re-enters
// the same machine) is deferred until the running step returns, so
// machines can call into connections — whose callbacks may call
// straight back — without reentrant locking. Do never parks: fn runs
// on the caller, at once or after the steps queued before it. A Loop
// belongs to its clock's goroutine, like everything else on the clock.
type Loop struct {
	running bool
	q       []func()
}

// NewLoop returns a ready Loop.
func NewLoop() *Loop { return &Loop{} }

// Do enqueues fn and, unless a step is already running, drains the
// queue. fn must not park.
func (l *Loop) Do(fn func()) {
	l.q = append(l.q, fn)
	if l.running {
		return
	}
	l.running = true
	for len(l.q) > 0 {
		step := l.q[0]
		copy(l.q, l.q[1:])
		l.q[len(l.q)-1] = nil
		l.q = l.q[:len(l.q)-1]
		step()
	}
	l.running = false
}

package netem

import (
	"errors"
	"net"
	"time"
)

var (
	errClosedConn = errors.New("netem: use of closed connection")

	// ErrInterfaceDown is surfaced on connections whose local interface
	// lost connectivity (mobility events).
	ErrInterfaceDown = errors.New("netem: interface down")

	// ErrServerDown is surfaced on connections whose remote endpoint was
	// killed (server failure injection).
	ErrServerDown = errors.New("netem: server down")

	// ErrPartitioned is surfaced on connections and dials cut by a
	// network partition (Network.SetPartitioned): both endpoints stay
	// alive but cannot reach each other.
	ErrPartitioned = errors.New("netem: network partitioned")
)

// Addr is a trivial net.Addr for emulated endpoints.
type Addr string

// Network implements net.Addr.
func (Addr) Network() string { return "netem" }

// String implements net.Addr.
func (a Addr) String() string { return string(a) }

// Conn is one endpoint of an emulated connection. It carries bytes only
// through the completion API (event.go): ReadBuf/Release and OnReadable
// to receive, TryWrite and OnWritable to send. Nothing on a Conn parks.
type Conn struct {
	in, out *direction // in: peer→us, out: us→peer
	remote  Addr
	onClose func()
}

// Pipe creates a connected pair of emulated conns. c2s shapes the c→s
// direction, s2c the reverse. The returned conns are (client, server).
func Pipe(clock *Clock, c2s, s2c LinkParams, clientAddr, serverAddr Addr) (*Conn, *Conn) {
	up := newDirection(clock, c2s)
	down := newDirection(clock, s2c)
	// One allocation for both endpoints: they share their directions,
	// so neither outlives the other by much anyway.
	ends := &[2]Conn{
		{in: down, out: up, remote: serverAddr},
		{in: up, out: down, remote: clientAddr},
	}
	return &ends[0], &ends[1]
}

// Close closes the endpoint. The peer drains in-flight data, then sees
// EOF; local reads fail from the close instant on (data that had
// already arrived stays deliverable under the abort protocol's
// delivered-before-abort rule, but a closing endpoint never reads it).
func (c *Conn) Close() error {
	c.out.close()
	c.in.markAbort(c.in.clock.Now(), errClosedConn).dispatch()
	if c.onClose != nil {
		c.onClose()
	}
	return nil
}

// Abort hard-fails the connection in both directions with err effective
// at the current emulated instant, modelling interface loss or a
// crashed peer. Equivalent to AbortAt(now, err); see AbortAt for the
// determinism rules.
func (c *Conn) Abort(err error) { c.AbortAt(c.out.clock.Now(), err) }

// AbortAt schedules a hard failure of both directions at the emulated
// instant t (clamped to now). The abort is a clock event, not a
// wall-clock side effect: both endpoints observe err exactly from t
// onward, in-flight segments arriving at or before t remain
// deliverable, and segments arriving strictly after t are dropped. The
// earliest scheduled abort wins, so redundant abort sources commute and
// teardown outcomes never depend on goroutine scheduling order. Both
// directions record the abort before either dispatches its callbacks,
// so a peer reacting to the abort already sees it on both.
func (c *Conn) AbortAt(t time.Time, err error) {
	out, in := c.out.markAbort(t, err), c.in.markAbort(t, err)
	out.dispatch()
	in.dispatch()
}

// RemoteAddr returns the peer's address.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

package netem

import (
	"errors"
	"io"
	"net"
	"time"
)

var (
	errClosedConn = errors.New("netem: use of closed connection")
	errEOF        = io.EOF

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

// Conn is one endpoint of an emulated connection. It implements net.Conn.
type Conn struct {
	in, out *direction // in: peer→us, out: us→peer
	local   Addr
	remote  Addr
	onClose func()
	part    *Participant // owning goroutine's clock handle; see Bind
}

// Bind attaches the clock Participant of the goroutine that owns this
// endpoint. Blocking reads and writes park through the bound handle
// (O(1), allocation-free), so an endpoint must be bound before its
// first Read or Write; event-driven endpoints (ReadBuf, TryWrite)
// never park and need no binding. Each endpoint of an emulated connection is owned by
// exactly one goroutine in this codebase (the dialing fetch loop on the
// client side, the per-connection server loop on the other), so binding
// happens once at dial/accept time.
func (c *Conn) Bind(p *Participant) { c.part = p }

// Pipe creates a connected pair of emulated conns. c2s shapes the c→s
// direction, s2c the reverse. The returned conns are (client, server).
func Pipe(clock *Clock, c2s, s2c LinkParams, clientAddr, serverAddr Addr) (*Conn, *Conn) {
	up := newDirection(clock, c2s)
	down := newDirection(clock, s2c)
	// One allocation for both endpoints: they share their directions,
	// so neither outlives the other by much anyway.
	ends := &[2]Conn{
		{in: down, out: up, local: clientAddr, remote: serverAddr},
		{in: up, out: down, local: serverAddr, remote: clientAddr},
	}
	return &ends[0], &ends[1]
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return c.in.read(p, c.part)
}

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) { return c.out.write(p, c.part, false) }

// WriteStable is Write for callers that guarantee p is immutable and
// outlives its delivery (the origin's content page cache): delivery
// segments alias p instead of copying it into pooled buffers. Pacing
// and arrival instants are identical to Write; only the copy is
// skipped.
func (c *Conn) WriteStable(p []byte) (int, error) { return c.out.write(p, c.part, true) }

// Close implements net.Conn. The peer drains in-flight data, then sees
// EOF; local reads fail from the close instant on (data that had
// already arrived stays deliverable under the abort protocol's
// delivered-before-abort rule, but a closing endpoint never reads it).
func (c *Conn) Close() error {
	c.out.close()
	c.in.abort(errClosedConn)
	if c.onClose != nil {
		c.onClose()
	}
	return nil
}

// Abort hard-fails the connection in both directions with err effective
// at the current emulated instant, modelling interface loss or a
// crashed peer. Equivalent to AbortAt(now, err); see AbortAt for the
// determinism rules.
func (c *Conn) Abort(err error) {
	c.out.abort(err)
	c.in.abort(err)
}

// AbortAt schedules a hard failure of both directions at the emulated
// instant t (clamped to now). The abort is a clock event, not a
// wall-clock side effect: both endpoints observe err exactly from t
// onward, in-flight segments arriving at or before t remain
// deliverable, and segments arriving strictly after t are dropped. The
// earliest scheduled abort wins, so redundant abort sources commute and
// teardown outcomes never depend on goroutine scheduling order.
func (c *Conn) AbortAt(t time.Time, err error) {
	c.out.abortAt(t, err)
	c.in.abortAt(t, err)
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn. Deadlines are accepted but not
// enforced: the emulation's own clock governs all timing, and the HTTP
// stacks used in this repository do not rely on conn deadlines.
func (c *Conn) SetDeadline(time.Time) error { return nil }

// SetReadDeadline implements net.Conn (no-op; see SetDeadline).
func (c *Conn) SetReadDeadline(time.Time) error { return nil }

// SetWriteDeadline implements net.Conn (no-op; see SetDeadline).
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }

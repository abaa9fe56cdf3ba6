package netem

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

// drainEvented reads everything from c through the event API, returning
// the received bytes, the terminal error (io.EOF on clean close) and
// the virtual instant the terminal state was observed. It releases
// every borrowed view as soon as it is copied out.
func drainEvented(c *Conn) (received *bytes.Buffer, termErr *error, doneAt *time.Time) {
	received = &bytes.Buffer{}
	termErr = new(error)
	doneAt = &time.Time{}
	clock := c.in.clock
	c.OnReadable(func() {
		for {
			view, err := c.ReadBuf()
			if err != nil {
				if *termErr == nil {
					*termErr = err
					*doneAt = clock.Now()
				}
				return
			}
			if view == nil {
				return
			}
			received.Write(view)
			c.Release(len(view))
		}
	})
	return received, termErr, doneAt
}

// pumpEvented writes slabs to c in order through the completion API —
// one TryWrite call sequence per slab, resuming from OnWritable when the
// send buffer fills — and closes c once the last slab is accepted when
// closeAfter is set. It returns a pointer to the first write error. c's
// link must take time (a nonzero rate or delay), so the peer's readable
// callback never runs inside TryWrite.
func pumpEvented(c *Conn, closeAfter bool, slabs ...[]byte) *error {
	werr := new(error)
	i, off := 0, 0
	pump := func() {
		for i < len(slabs) {
			n, err := c.TryWrite(slabs[i][off:])
			off += n
			if err != nil {
				*werr = err
				c.OnWritable(nil)
				return
			}
			if off < len(slabs[i]) {
				return // send buffer full: resume on writable
			}
			i, off = i+1, 0
		}
		c.OnWritable(nil)
		if closeAfter {
			c.Close()
		}
	}
	c.OnWritable(pump)
	pump()
	return werr
}

// await drives p until the callback it hands to issue has run.
func await(p *Participant, issue func(done func())) {
	fired := false
	issue(func() { fired = true })
	p.Await(func() bool { return fired })
}

// dial dials addr from iface and drives p until the dial completes.
func dial(p *Participant, iface *Interface, addr string) (c *Conn, err error) {
	await(p, func(done func()) {
		err = iface.DialEvent(addr, func(conn *Conn, derr error) {
			c, err = conn, derr
			done()
		})
		if err != nil {
			done()
		}
	})
	return c, err
}

// TestEventReadMatchesClosedForm sends a payload through a pipe drained
// on the completion API and requires the bytes intact and the reader's
// EOF at the closed-form instant: the payload's line time at the link
// rate plus one propagation delay. Pacing segments carry a quantum of
// line time each, so the only slack is each segment's nanosecond
// rounding.
func TestEventReadMatchesClosedForm(t *testing.T) {
	params := LinkParams{Rate: Mbps(8), Delay: 25 * time.Millisecond, Seed: 42}
	payload := make([]byte, 300_000)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	clock := NewVirtualClock()
	defer clock.Stop()
	drv := clock.Register()
	defer drv.Unregister()
	client, server := Pipe(clock, params, params, "c", "s")
	start := clock.Now()
	received, termErr, doneAt := drainEvented(client)
	pumpEvented(server, true, payload)
	drv.SleepUntil(start.Add(time.Hour))
	if !errors.Is(*termErr, io.EOF) {
		t.Fatalf("terminal error = %v, want EOF", *termErr)
	}
	if !bytes.Equal(received.Bytes(), payload) {
		t.Fatalf("delivered %d bytes, not the %d sent", received.Len(), len(payload))
	}
	want := time.Duration(float64(len(payload))/params.Rate*float64(time.Second)) + params.Delay
	segments := len(payload)/int(params.Rate*DefaultQuantum.Seconds()) + 1
	if got := doneAt.Sub(start); got < want-time.Duration(segments) || got > want+time.Duration(segments) {
		t.Fatalf("EOF at %v, want %v (rate + delay)", got, want)
	}
}

// TestReadBufBorrowRelease verifies that consumed-but-unreleased views
// stay accounted and that Release returns them FIFO, including partial
// releases of the head view.
func TestReadBufBorrowRelease(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	drv := clock.Register()
	defer drv.Unregister()
	params := LinkParams{Rate: Mbps(80), Delay: 10 * time.Millisecond}
	client, server := Pipe(clock, params, params, "c", "s")

	payload := make([]byte, 50_000)
	server.TryWrite(payload)
	server.Close()

	var views []int
	var total int
	client.OnReadable(func() {
		for {
			view, err := client.ReadBuf()
			if err != nil || view == nil {
				return
			}
			views = append(views, len(view))
			total += len(view)
		}
	})
	drv.SleepUntil(clock.Now().Add(time.Hour))

	if total != len(payload) {
		t.Fatalf("consumed %d bytes, want %d", total, len(payload))
	}
	if got := client.in.retainedBytes(); got != total {
		t.Fatalf("retainedBytes = %d before release, want %d", got, total)
	}
	// Partial release of the head view, then the rest.
	client.Release(views[0] / 2)
	if got := client.in.retainedBytes(); got != total-views[0]/2 {
		t.Fatalf("retainedBytes = %d after partial release, want %d", got, total-views[0]/2)
	}
	client.Release(total - views[0]/2)
	if got := client.in.retainedBytes(); got != 0 {
		t.Fatalf("retainedBytes = %d after full release, want 0", got)
	}
	// Over-release is an ownership bug and must panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("Release beyond outstanding views did not panic")
			}
		}()
		client.Release(1)
	}()
}

// TestTryWriteBackpressure drives a writer entirely through
// TryWrite/OnWritable against a small send buffer and verifies the
// reader receives every byte.
func TestTryWriteBackpressure(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	drv := clock.Register()
	defer drv.Unregister()
	params := LinkParams{Rate: Mbps(20), Delay: 5 * time.Millisecond, SendBuf: 16 << 10}
	client, server := Pipe(clock, params, params, "c", "s")

	payload := make([]byte, 200_000)
	for i := range payload {
		payload[i] = byte(i)
	}
	var cursor int
	var sawPartial bool
	pump := func() {
		for cursor < len(payload) {
			n, err := server.TryWrite(payload[cursor:])
			if err != nil {
				t.Errorf("TryWrite: %v", err)
				return
			}
			cursor += n
			if cursor < len(payload) {
				sawPartial = true
				if n == 0 {
					return // wait for OnWritable
				}
			}
		}
		server.OnWritable(nil)
		server.Close()
	}
	server.OnWritable(pump)
	pump()

	received, termErr, _ := drainEvented(client)
	drv.SleepUntil(clock.Now().Add(time.Hour))
	if *termErr != io.EOF {
		t.Fatalf("read: %v", *termErr)
	}
	if !sawPartial {
		t.Fatalf("send buffer never filled; backpressure path untested")
	}
	if !bytes.Equal(received.Bytes(), payload) {
		t.Fatalf("received %d bytes, want %d identical", received.Len(), len(payload))
	}
}

// TestEventAbortSurfacesAtInstant schedules a future abort and checks
// the evented reader drains delivered-before-abort data, then observes
// the error exactly at the abort instant.
func TestEventAbortSurfacesAtInstant(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	drv := clock.Register()
	defer drv.Unregister()
	params := LinkParams{Rate: Mbps(8), Delay: 20 * time.Millisecond}
	client, server := Pipe(clock, params, params, "c", "s")

	server.TryWrite(make([]byte, 500_000))
	abortErr := errors.New("scheduled failure")
	abortAt := clock.Now().Add(150 * time.Millisecond)
	client.AbortAt(abortAt, abortErr)

	received, termErr, doneAt := drainEvented(client)
	drv.SleepUntil(clock.Now().Add(time.Hour))

	if !errors.Is(*termErr, abortErr) {
		t.Fatalf("terminal error = %v, want %v", *termErr, abortErr)
	}
	if !(*doneAt).Equal(abortAt) {
		t.Fatalf("error observed at %v, want abort instant %v", *doneAt, abortAt)
	}
	if received.Len() == 0 {
		t.Fatalf("no delivered-before-abort data surfaced")
	}
}

// TestDialEventMatchesDialTiming checks the DialEvent callback fires
// exactly one handshake round trip after the dial is issued and hands
// over a working connection.
func TestDialEventMatchesDialTiming(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	drv := clock.Register()
	defer drv.Unregister()
	n := NewNetwork(clock)
	params := LinkParams{Rate: Mbps(10), Delay: 30 * time.Millisecond}
	cli := n.NewInterface("cli", params, params)

	l, err := n.Listen("srv:80", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	echo(l)

	start := clock.Now()
	var dialedAt time.Time
	var conn *Conn
	if err := cli.DialEvent("srv:80", func(c *Conn, err error) {
		if err != nil {
			t.Errorf("DialEvent: %v", err)
			return
		}
		dialedAt = clock.Now()
		conn = c
	}); err != nil {
		t.Fatal(err)
	}
	drv.SleepUntil(start.Add(time.Hour))

	if conn == nil {
		t.Fatalf("DialEvent callback never fired")
	}
	if want := start.Add(2 * params.Delay); !dialedAt.Equal(want) {
		t.Fatalf("DialEvent completed at %v, want %v (one RTT)", dialedAt, want)
	}

	// The dialed conn round-trips data through the echo server.
	msg := []byte("hello over event dial")
	received, termErr, _ := drainEvented(conn)
	if _, err := conn.TryWrite(msg); err != nil {
		t.Fatalf("TryWrite: %v", err)
	}
	conn.out.close() // half-close our write side so the echo drains
	drv.SleepUntil(clock.Now().Add(time.Hour))
	if !bytes.Equal(received.Bytes(), msg) || *termErr != io.EOF {
		t.Fatalf("echo = %q, want %q (err %v)", received.Bytes(), msg, *termErr)
	}
}

// TestDialEventRefusedImmediately checks that a dial to an unknown
// address fails synchronously and never calls back.
func TestDialEventRefusedImmediately(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	n := NewNetwork(clock)
	params := LinkParams{Rate: Mbps(10), Delay: 10 * time.Millisecond}
	cli := n.NewInterface("cli", params, params)
	if err := cli.DialEvent("nowhere:80", func(*Conn, error) {
		t.Errorf("callback fired for refused dial")
	}); err == nil {
		t.Fatalf("DialEvent to unknown address succeeded, want refusal")
	}
}

// TestLoopSerializesReentrantSteps verifies that a step enqueued from
// within a running step is deferred, not run reentrantly.
func TestLoopSerializesReentrantSteps(t *testing.T) {
	l := NewLoop()
	var order []int
	l.Do(func() {
		order = append(order, 1)
		l.Do(func() { order = append(order, 3) })
		order = append(order, 2)
	})
	for i, want := range []int{1, 2, 3} {
		if i >= len(order) || order[i] != want {
			t.Fatalf("step order = %v, want [1 2 3]", order)
		}
	}
}

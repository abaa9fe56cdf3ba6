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

// TestEventReadMatchesBlockingRead sends the same payload over two
// identically parameterised pipes — one drained by blocking Read, one
// by OnReadable/ReadBuf — and requires byte-identical content and the
// same virtual completion instant.
func TestEventReadMatchesBlockingRead(t *testing.T) {
	params := LinkParams{Rate: Mbps(8), Delay: 25 * time.Millisecond, SlowStart: true, Seed: 42}
	payload := make([]byte, 300_000)
	for i := range payload {
		payload[i] = byte(i * 31)
	}

	run := func(evented bool) ([]byte, time.Duration) {
		clock := NewVirtualClock()
		defer clock.Stop()
		client, server := Pipe(clock, params, params, "c", "s")
		start := clock.Now()
		writer := func(p *Participant) {
			server.Bind(p)
			if _, err := server.Write(payload); err != nil {
				t.Errorf("write: %v", err)
			}
			server.Close()
		}
		if !evented {
			var buf bytes.Buffer
			var err error
			var end time.Time
			goAll(clock, writer, func(p *Participant) {
				client.Bind(p)
				_, err = io.Copy(&buf, client)
				end = clock.Now()
			})()
			if err != nil {
				t.Fatalf("blocking read: %v", err)
			}
			return buf.Bytes(), end.Sub(start)
		}
		drv := clock.Register()
		defer drv.Unregister()
		clock.Go(writer)
		received, termErr, doneAt := drainEvented(client)
		drv.SleepUntil(start.Add(time.Hour))
		if !errors.Is(*termErr, io.EOF) {
			t.Fatalf("evented terminal error = %v, want EOF", *termErr)
		}
		return received.Bytes(), doneAt.Sub(start)
	}

	gotB, durB := run(false)
	gotE, durE := run(true)
	if !bytes.Equal(gotB, gotE) {
		t.Fatalf("evented read delivered different bytes (%d vs %d)", len(gotE), len(gotB))
	}
	if durB != durE {
		t.Fatalf("completion time differs: blocking %v, evented %v", durB, durE)
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
	clock.Go(func(p *Participant) {
		server.Bind(p)
		server.Write(payload)
		server.Close()
	})

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

	var received bytes.Buffer
	done := make(chan error, 1)
	clock.Go(func(p *Participant) {
		client.Bind(p)
		_, err := io.Copy(&received, client)
		done <- err
	})
	drv.SleepUntil(clock.Now().Add(time.Hour))
	if err := <-done; err != nil {
		t.Fatalf("read: %v", err)
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

	clock.Go(func(p *Participant) {
		server.Bind(p)
		server.Write(make([]byte, 500_000))
	})
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

// TestDialEventMatchesDialTiming checks DialEvent completes at the
// same virtual instant as Dial (one handshake round trip) and yields a
// working connection.
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
	clock.Go(func(p *Participant) {
		for {
			c, err := l.AcceptP(p)
			if err != nil {
				return
			}
			clock.Go(func(p *Participant) {
				if nc, ok := c.(*Conn); ok {
					nc.Bind(p)
				}
				io.Copy(c, c) // echo
				c.Close()
			})
		}
	})

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
	if !bytes.Equal(received.Bytes(), msg) {
		t.Fatalf("echo = %q, want %q (err %v)", received.Bytes(), msg, *termErr)
	}
}

// TestDialEventRefusedImmediately mirrors Dial's synchronous
// connection-refused error for unknown addresses.
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

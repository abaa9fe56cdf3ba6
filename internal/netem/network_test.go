package netem

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"
)

func newTestNet(t *testing.T) (*Network, *Clock) {
	t.Helper()
	clock := NewVirtualClock()
	t.Cleanup(clock.Stop)
	return NewNetwork(clock), clock
}

// serve accepts on l from a registered goroutine until the listener
// closes, running handle on a fresh participant for each accepted conn
// (bound to it).
func serve(clock *Clock, l *Listener, handle func(c *Conn)) {
	clock.Go(func(p *Participant) {
		for {
			c, err := l.AcceptP(p)
			if err != nil {
				return
			}
			nc := c.(*Conn)
			clock.Go(func(p *Participant) {
				nc.Bind(p)
				handle(nc)
			})
		}
	})
}

// readErr reads c from a fresh participant until it fails and sends
// the error on the returned channel.
func readErr(clock *Clock, c *Conn) <-chan error {
	errCh := make(chan error, 1)
	clock.Go(func(p *Participant) {
		c.Bind(p)
		_, err := c.Read(make([]byte, 1))
		errCh <- err
	})
	return errCh
}

func TestDialChargesOneRTT(t *testing.T) {
	n, clock := newTestNet(t)
	drv := clock.Register()
	defer drv.Unregister()
	l, err := n.Listen("srv.test:80", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serve(clock, l, func(c *Conn) { c.Close() })
	iface := n.NewInterface("wifi", LinkParams{Rate: Mbps(10), Delay: 25 * time.Millisecond}, LinkParams{Rate: Mbps(10), Delay: 25 * time.Millisecond})
	start := clock.Now()
	c, err := iface.Dial(context.Background(), "srv.test:80", drv)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if hs := clock.Now().Sub(start); hs != 50*time.Millisecond {
		t.Fatalf("3WHS took %v, want 50ms", hs)
	}
}

func TestDialUnknownAddressRefused(t *testing.T) {
	n, clock := newTestNet(t)
	drv := clock.Register()
	defer drv.Unregister()
	iface := n.NewInterface("wifi", LinkParams{Rate: Mbps(10), Delay: time.Millisecond}, LinkParams{Rate: Mbps(10), Delay: time.Millisecond})
	if _, err := iface.Dial(context.Background(), "nobody.test:80", drv); err == nil {
		t.Fatal("dial to unregistered address succeeded")
	}
}

func TestInterfaceDownAbortsConns(t *testing.T) {
	n, clock := newTestNet(t)
	drv := clock.Register()
	defer drv.Unregister()
	l, _ := n.Listen("srv.test:80", 0)
	defer l.Close()
	serve(clock, l, func(*Conn) {})
	iface := n.NewInterface("wifi", LinkParams{Rate: Mbps(10), Delay: time.Millisecond}, LinkParams{Rate: Mbps(10), Delay: time.Millisecond})
	c, err := iface.Dial(context.Background(), "srv.test:80", drv)
	if err != nil {
		t.Fatal(err)
	}

	errCh := readErr(clock, c)
	waitParked(clock, 2) // the accept loop and the reader
	iface.SetAlive(false)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrInterfaceDown) {
			t.Fatalf("read error = %v, want ErrInterfaceDown", err)
		}
	case <-time.After(2 * time.Second): //detlint:allow wallclock -- test watchdog against emulator deadlock runs on wall time
		t.Fatal("interface down did not abort read")
	}
	if _, err := iface.Dial(context.Background(), "srv.test:80", drv); !errors.Is(err, ErrInterfaceDown) {
		t.Fatalf("dial on dead interface error = %v, want ErrInterfaceDown", err)
	}
	iface.SetAlive(true)
	c2, err := iface.Dial(context.Background(), "srv.test:80", drv)
	if err != nil {
		t.Fatalf("dial after recovery: %v", err)
	}
	c2.Close()
}

func TestListenerCloseKillsConns(t *testing.T) {
	n, clock := newTestNet(t)
	drv := clock.Register()
	defer drv.Unregister()
	l, _ := n.Listen("srv.test:80", 0)
	serve(clock, l, func(*Conn) {})
	iface := n.NewInterface("wifi", LinkParams{Rate: Mbps(10), Delay: time.Millisecond}, LinkParams{Rate: Mbps(10), Delay: time.Millisecond})
	c, err := iface.Dial(context.Background(), "srv.test:80", drv)
	if err != nil {
		t.Fatal(err)
	}
	errCh := readErr(clock, c)
	waitParked(clock, 2) // the accept loop and the reader
	l.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrServerDown) {
			t.Fatalf("read error = %v, want ErrServerDown", err)
		}
	case <-time.After(2 * time.Second): //detlint:allow wallclock -- test watchdog against emulator deadlock runs on wall time
		t.Fatal("listener close did not abort conns")
	}
	// Address is released for reuse.
	if _, err := n.Listen("srv.test:80", 0); err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
}

func TestDuplicateListenRejected(t *testing.T) {
	n, _ := newTestNet(t)
	if _, err := n.Listen("srv.test:80", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("srv.test:80", 0); err == nil {
		t.Fatal("duplicate listen succeeded")
	}
}

func TestManyParallelConns(t *testing.T) {
	n, clock := newTestNet(t)
	l, _ := n.Listen("srv.test:80", 0)
	defer l.Close()
	serve(clock, l, func(c *Conn) {
		io.Copy(c, c) // echo
		c.Close()
	})
	iface := n.NewInterface("wifi", LinkParams{Rate: Mbps(50), Delay: 2 * time.Millisecond}, LinkParams{Rate: Mbps(50), Delay: 2 * time.Millisecond})
	errs := make([]error, 8)
	var clients []func(*Participant)
	for i := range errs {
		i := i
		clients = append(clients, func(p *Participant) {
			c, err := iface.Dial(context.Background(), "srv.test:80", p)
			if err != nil {
				errs[i] = err
				return
			}
			msg := fmt.Sprintf("conn-%d-payload", i)
			c.Write([]byte(msg))
			buf := make([]byte, len(msg))
			if _, err := io.ReadFull(c, buf); err != nil {
				errs[i] = err
				return
			}
			c.Close()
			if string(buf) != msg {
				errs[i] = fmt.Errorf("echo mismatch: %q", buf)
			}
		})
	}
	goAll(clock, clients...)()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// heldPairs returns how many server endpoints l still holds.
func heldPairs(l *Listener) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// TestListenerForgetsClosedPairs: a listener holds a connection only
// until its second endpoint closes, whichever side closes first, so a
// long run of short connections leaves nothing behind on either the
// listener or the dialing interface.
func TestListenerForgetsClosedPairs(t *testing.T) {
	n, clock := newTestNet(t)
	drv := clock.Register()
	defer drv.Unregister()
	l, _ := n.Listen("srv.test:80", 0)
	defer l.Close()
	// 'e' asks for an echo until the client closes (client closes
	// first); 'r' for one reply after which the server closes at once,
	// leaving the client to read it on a half-closed pair.
	serve(clock, l, func(c *Conn) {
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err != nil {
			return
		}
		c.Write(buf)
		if buf[0] == 'e' {
			io.Copy(io.Discard, c)
		}
		c.Close()
	})
	link := LinkParams{Rate: Mbps(10), Delay: 2 * time.Millisecond}
	iface := n.NewInterface("wifi", link, link)
	const cycles = 40
	for i := 0; i < cycles; i++ {
		c, err := iface.Dial(context.Background(), "srv.test:80", drv)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("echo")
		if i%2 == 1 {
			msg = []byte("rply")
		}
		c.Write(msg)
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(c, buf); err != nil || string(buf) != string(msg) {
			t.Fatalf("cycle %d: read %q, %v", i, buf, err)
		}
		if msg[0] == 'r' {
			// The server has closed; the client has not. The pair stays
			// held so a kill could still cut it.
			if _, err := c.Read(buf); err != io.EOF {
				t.Fatalf("cycle %d: read after reply = %v, want EOF", i, err)
			}
			if got := heldPairs(l); got != 1 {
				t.Fatalf("cycle %d: %d pairs held on a half-closed connection, want 1", i, got)
			}
		}
		c.Close()
		// Let the echo server see EOF and close its end.
		drv.Sleep(10 * time.Millisecond)
	}
	if got := heldPairs(l); got != 0 {
		t.Fatalf("after %d closed connections the listener holds %d", cycles, got)
	}
	iface.mu.Lock()
	open := len(iface.conns)
	iface.mu.Unlock()
	if open != 0 {
		t.Fatalf("after %d closed connections the interface holds %d", cycles, open)
	}
}

// TestListenerCloseCutsHalfClosedPair pins the kill semantics that
// forgetting closed pairs must not change: a server that wrote its
// response and closed while the client is still reading it stays
// killable. Listener.Close cuts the client at the kill instant, after
// exactly the bytes that arrived by then; the rest are dropped in
// flight. The figures are those of a listener that never forgets.
func TestListenerCloseCutsHalfClosedPair(t *testing.T) {
	n, clock := newTestNet(t)
	drv := clock.Register()
	defer drv.Unregister()
	l, _ := n.Listen("srv.test:80", 0)
	const (
		respLen = 100 << 10
		// The reader drains the segments that arrived by the kill, then
		// observes it at the next segment's scheduled arrival, the
		// instant it was parked until; that segment and the rest of the
		// response are dropped.
		wantCut   = 70 * time.Millisecond
		wantBytes = 40000
	)
	serverClosed := make(chan time.Time, 1)
	serve(clock, l, func(c *Conn) {
		c.Write(make([]byte, respLen))
		c.Close()
		serverClosed <- clock.Now()
	})
	// 1 MB/s each way: the response needs ~100 ms of line time.
	link := LinkParams{Rate: 1e6, Delay: 10 * time.Millisecond}
	iface := n.NewInterface("wifi", link, link)
	c, err := iface.Dial(context.Background(), "srv.test:80", drv)
	if err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	type outcome struct {
		n   int
		err error
		at  time.Duration
	}
	got := make(chan outcome, 1)
	clock.Go(func(p *Participant) {
		c.Bind(p)
		buf := make([]byte, 4096)
		total := 0
		for {
			k, err := c.Read(buf)
			total += k
			if err != nil {
				got <- outcome{total, err, clock.Now().Sub(start)}
				return
			}
		}
	})
	drv.Sleep(60 * time.Millisecond)
	select {
	case at := <-serverClosed:
		if at.After(clock.Now()) {
			t.Fatalf("server closed at %v, after the kill", at.Sub(start))
		}
	default:
		t.Fatal("server had not closed by the kill instant")
	}
	if held := heldPairs(l); held != 1 {
		t.Fatalf("%d pairs held while the client is mid-response, want 1", held)
	}
	l.Close()
	drv.Sleep(time.Second)
	o := <-got
	if !errors.Is(o.err, ErrServerDown) {
		t.Fatalf("client read error = %v, want ErrServerDown", o.err)
	}
	if o.at != wantCut || o.n != wantBytes {
		t.Fatalf("client cut at %v after %d of %d bytes, want %v after %d", o.at, o.n, respLen, wantCut, wantBytes)
	}
}

package netem

import (
	"bytes"
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

// echo serves l with an echo: each accepted conn writes back what it
// reads and closes once its peer has closed.
func echo(l *Listener) {
	l.OnAcceptable(func(c *Conn) {
		c.OnReadable(func() {
			for {
				view, err := c.ReadBuf()
				if err != nil {
					c.OnReadable(nil)
					c.Close()
					return
				}
				if view == nil {
					return
				}
				c.TryWrite(view)
				c.Release(len(view))
			}
		})
	})
}

// TestDialChargesOneRTT checks a dial completes one handshake round
// trip after it is issued.
func TestDialChargesOneRTT(t *testing.T) {
	n, clock := newTestNet(t)
	drv := clock.Register()
	defer drv.Unregister()
	l, err := n.Listen("srv.test:80", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	echo(l)
	link := LinkParams{Rate: Mbps(10), Delay: 25 * time.Millisecond}
	iface := n.NewInterface("wifi", link, link)
	start := clock.Now()
	c, err := dial(drv, iface, "srv.test:80")
	if err != nil {
		t.Fatal(err)
	}
	if hs := clock.Now().Sub(start); hs != 2*link.Delay {
		t.Fatalf("3WHS took %v, want %v", hs, 2*link.Delay)
	}
	c.Close()
}

// TestDialUnknownAddressRefused checks that dials to an address nobody
// listens on — never, or no longer — are refused at once.
func TestDialUnknownAddressRefused(t *testing.T) {
	n, _ := newTestNet(t)
	iface := n.NewInterface("wifi", LinkParams{Rate: Mbps(10), Delay: time.Millisecond}, LinkParams{Rate: Mbps(10), Delay: time.Millisecond})
	l, err := n.Listen("srv.test:80", 0)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	for _, addr := range []string{"nobody.test:80", "srv.test:80"} {
		if err := iface.DialEvent(addr, func(*Conn, error) {
			t.Errorf("dial to %s called back", addr)
		}); err == nil {
			t.Errorf("dial to %s succeeded", addr)
		}
	}
}

func TestInterfaceDownAbortsConns(t *testing.T) {
	n, clock := newTestNet(t)
	drv := clock.Register()
	defer drv.Unregister()
	l, _ := n.Listen("srv.test:80", 0)
	defer l.Close()
	echo(l)
	iface := n.NewInterface("wifi", LinkParams{Rate: Mbps(10), Delay: time.Millisecond}, LinkParams{Rate: Mbps(10), Delay: time.Millisecond})
	c, err := dial(drv, iface, "srv.test:80")
	if err != nil {
		t.Fatal(err)
	}

	_, termErr, _ := drainEvented(c)
	iface.SetAlive(false)
	if !errors.Is(*termErr, ErrInterfaceDown) {
		t.Fatalf("read error = %v, want ErrInterfaceDown", *termErr)
	}
	if _, err := dial(drv, iface, "srv.test:80"); !errors.Is(err, ErrInterfaceDown) {
		t.Fatalf("dial on dead interface error = %v, want ErrInterfaceDown", err)
	}
	iface.SetAlive(true)
	c2, err := dial(drv, iface, "srv.test:80")
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
	echo(l)
	iface := n.NewInterface("wifi", LinkParams{Rate: Mbps(10), Delay: time.Millisecond}, LinkParams{Rate: Mbps(10), Delay: time.Millisecond})
	c, err := dial(drv, iface, "srv.test:80")
	if err != nil {
		t.Fatal(err)
	}
	_, termErr, _ := drainEvented(c)
	l.Close()
	if !errors.Is(*termErr, ErrServerDown) {
		t.Fatalf("read error = %v, want ErrServerDown", *termErr)
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
	drv := clock.Register()
	defer drv.Unregister()
	l, _ := n.Listen("srv.test:80", 0)
	defer l.Close()
	echo(l)
	iface := n.NewInterface("wifi", LinkParams{Rate: Mbps(50), Delay: 2 * time.Millisecond}, LinkParams{Rate: Mbps(50), Delay: 2 * time.Millisecond})
	errs := make([]error, 8)
	got := make([]bytes.Buffer, len(errs))
	for i := range errs {
		i, msg := i, fmt.Sprintf("conn-%d-payload", i)
		errs[i] = iface.DialEvent("srv.test:80", func(c *Conn, err error) {
			if err != nil {
				errs[i] = err
				return
			}
			c.OnReadable(func() {
				for got[i].Len() < len(msg) {
					view, err := c.ReadBuf()
					if err != nil {
						errs[i] = err
						return
					}
					if view == nil {
						return
					}
					got[i].Write(view)
					c.Release(len(view))
				}
				c.OnReadable(nil)
				c.Close()
			})
			c.TryWrite([]byte(msg))
		})
	}
	drv.SleepUntil(clock.Now().Add(time.Hour))
	for i, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("conn-%d-payload", i); got[i].String() != want {
			t.Fatalf("echo mismatch: %q, want %q", got[i].String(), want)
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
	l.OnAcceptable(func(c *Conn) {
		var req []byte
		c.OnReadable(func() {
			for {
				view, err := c.ReadBuf()
				if err != nil {
					c.OnReadable(nil)
					c.Close()
					return
				}
				if view == nil {
					return
				}
				first := len(req) == 0
				req = append(req, view...)
				c.Release(len(view))
				if first {
					c.TryWrite(req[:4])
					if req[0] != 'e' {
						c.OnReadable(nil)
						c.Close()
						return
					}
				}
			}
		})
	})
	link := LinkParams{Rate: Mbps(10), Delay: 2 * time.Millisecond}
	iface := n.NewInterface("wifi", link, link)
	const cycles = 40
	for i := 0; i < cycles; i++ {
		c, err := dial(drv, iface, "srv.test:80")
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("echo")
		if i%2 == 1 {
			msg = []byte("rply")
		}
		received, termErr, _ := drainEvented(c)
		c.TryWrite(msg)
		// Ample time for the request and its reply to cross.
		drv.SleepUntil(clock.Now().Add(10 * time.Millisecond))
		if received.String() != string(msg) {
			t.Fatalf("cycle %d: read %q, %v", i, received, *termErr)
		}
		if msg[0] == 'r' {
			// The server has closed; the client has not. The pair stays
			// held so a kill could still cut it.
			if *termErr != io.EOF {
				t.Fatalf("cycle %d: read after reply = %v, want EOF", i, *termErr)
			}
			if got := heldPairs(l); got != 1 {
				t.Fatalf("cycle %d: %d pairs held on a half-closed connection, want 1", i, got)
			}
		}
		c.Close()
		// Let the echo server see EOF and close its end.
		drv.SleepUntil(clock.Now().Add(10 * time.Millisecond))
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
		// instant it had committed to wake at; that segment and the rest
		// of the response are dropped.
		wantCut   = 70 * time.Millisecond
		wantBytes = 40000
	)
	var serverClosed time.Time
	l.OnAcceptable(func(c *Conn) {
		pumpEvented(c, true, make([]byte, respLen))
		serverClosed = clock.Now()
	})
	// 1 MB/s each way: the response needs ~100 ms of line time.
	link := LinkParams{Rate: 1e6, Delay: 10 * time.Millisecond}
	iface := n.NewInterface("wifi", link, link)
	c, err := dial(drv, iface, "srv.test:80")
	if err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	received, termErr, doneAt := drainEvented(c)
	drv.SleepUntil(clock.Now().Add(60 * time.Millisecond))
	if serverClosed.IsZero() || serverClosed.After(clock.Now()) {
		t.Fatal("server had not closed by the kill instant")
	}
	if held := heldPairs(l); held != 1 {
		t.Fatalf("%d pairs held while the client is mid-response, want 1", held)
	}
	l.Close()
	drv.SleepUntil(clock.Now().Add(time.Second))
	if !errors.Is(*termErr, ErrServerDown) {
		t.Fatalf("client read error = %v, want ErrServerDown", *termErr)
	}
	if at := doneAt.Sub(start); at != wantCut || received.Len() != wantBytes {
		t.Fatalf("client cut at %v after %d of %d bytes, want %v after %d", at, received.Len(), respLen, wantCut, wantBytes)
	}
}

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

package handshake

import (
	"context"
	"testing"
	"time"

	"repro/internal/netem"
)

func TestClosedForms(t *testing.T) {
	p := Params{Delta1: 3 * time.Millisecond, Delta2: 2 * time.Millisecond}
	rtt := 50 * time.Millisecond
	if got, want := p.Eta(rtt), 205*time.Millisecond; got != want {
		t.Errorf("Eta = %v, want %v", got, want)
	}
	if got, want := p.Psi(rtt), 305*time.Millisecond; got != want {
		t.Errorf("Psi = %v, want %v", got, want)
	}
	if got, want := p.Pi(rtt), 510*time.Millisecond; got != want {
		t.Errorf("Pi = %v, want %v", got, want)
	}
}

func TestHeadStart(t *testing.T) {
	r1, r2 := 25*time.Millisecond, 70*time.Millisecond
	if got, want := HeadStart(r1, r2), 450*time.Millisecond; got != want {
		t.Errorf("HeadStart = %v, want %v", got, want)
	}
	if HeadStart(r1, r1) != 0 {
		t.Error("equal paths should have zero head start")
	}
}

// TestMeasuredEtaMatchesClosedForm establishes a secure connection over
// netem and compares the measured η against 4R + Δ₁ + Δ₂.
func TestMeasuredEtaMatchesClosedForm(t *testing.T) {
	clock := netem.NewVirtualClock()
	defer clock.Stop()
	n := netem.NewNetwork(clock)
	inner, err := n.Listen("proxy.test:443", 0)
	if err != nil {
		t.Fatal(err)
	}
	drv := clock.Register()
	defer drv.Unregister()
	p := Params{Delta1: 4 * time.Millisecond, Delta2: 3 * time.Millisecond}
	clock.Go(func(sp *netem.Participant) {
		c, err := inner.AcceptP(sp)
		if err != nil {
			return
		}
		c.(*netem.Conn).Bind(sp)
		Server(c, sp, p)
	})

	delay := 25 * time.Millisecond // one-way; RTT = 50 ms
	iface := n.NewInterface("wifi",
		netem.LinkParams{Rate: netem.Mbps(20), Delay: delay},
		netem.LinkParams{Rate: netem.Mbps(20), Delay: delay})

	start := clock.Now()
	conn, err := iface.Dial(context.Background(), "proxy.test:443", drv)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := Client(conn); err != nil {
		t.Fatal(err)
	}
	measured := clock.Now().Sub(start)
	want := p.Eta(2 * delay)
	// Allow transmission time of the certificate flight plus emulator
	// quantum slack on top of the propagation-only closed form.
	if measured < want || measured > want+25*time.Millisecond {
		t.Fatalf("measured eta = %v, closed form = %v", measured, want)
	}
}

// TestServerRejectsGarbage ensures a non-handshake client is dropped.
func TestServerRejectsGarbage(t *testing.T) {
	clock := netem.NewVirtualClock()
	defer clock.Stop()
	client, server := netem.Pipe(clock,
		netem.LinkParams{Rate: netem.Mbps(10), Delay: time.Millisecond},
		netem.LinkParams{Rate: netem.Mbps(10), Delay: time.Millisecond},
		"c", "s")
	errCh := make(chan error, 1)
	clock.Go(func(sp *netem.Participant) {
		server.Bind(sp)
		errCh <- Server(server, sp, Params{})
	})
	clock.Go(func(cp *netem.Participant) {
		client.Bind(cp)
		client.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	})
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("server accepted garbage")
		}
	case <-time.After(5 * time.Second): //detlint:allow wallclock -- test watchdog against emulator deadlock runs on wall time
		t.Fatal("server hung on garbage")
	}
}

// TestFasterPathFinishesBootstrapFirst reproduces the head-start effect:
// a WiFi-like path with a third of the RTT finishes η well before LTE.
func TestFasterPathFinishesBootstrapFirst(t *testing.T) {
	clock := netem.NewVirtualClock()
	defer clock.Stop()
	n := netem.NewNetwork(clock)
	p := Params{Delta1: 2 * time.Millisecond, Delta2: 2 * time.Millisecond}
	for _, host := range []string{"w.test:443", "l.test:443"} {
		inner, err := n.Listen(host, 0)
		if err != nil {
			t.Fatal(err)
		}
		l := inner
		clock.Go(func(ap *netem.Participant) {
			for {
				c, err := l.AcceptP(ap)
				if err != nil {
					return
				}
				conn := c
				clock.Go(func(sp *netem.Participant) {
					conn.(*netem.Conn).Bind(sp)
					Server(conn, sp, p)
				})
			}
		})
	}
	wifi := n.NewInterface("wifi",
		netem.LinkParams{Rate: netem.Mbps(20), Delay: 12 * time.Millisecond},
		netem.LinkParams{Rate: netem.Mbps(20), Delay: 12 * time.Millisecond})
	lte := n.NewInterface("lte",
		netem.LinkParams{Rate: netem.Mbps(20), Delay: 36 * time.Millisecond},
		netem.LinkParams{Rate: netem.Mbps(20), Delay: 36 * time.Millisecond})

	type result struct {
		name string
		eta  time.Duration
	}
	results := make(chan result, 2)
	start := clock.Now()
	// Register the spawning goroutine until both clients are up, so the
	// clock cannot run the first client's sleeps before the second
	// client exists — the bootstraps really run concurrently.
	spawner := clock.Register()
	for _, tc := range []struct {
		iface *netem.Interface
		addr  string
	}{{wifi, "w.test:443"}, {lte, "l.test:443"}} {
		iface, addr := tc.iface, tc.addr
		clock.Go(func(cp *netem.Participant) {
			conn, err := iface.Dial(context.Background(), addr, cp)
			if err != nil {
				t.Errorf("dial: %v", err)
				results <- result{iface.Name(), 0}
				return
			}
			defer conn.Close()
			if err := Client(conn); err != nil {
				t.Errorf("handshake: %v", err)
			}
			results <- result{iface.Name(), clock.Now().Sub(start)}
		})
	}
	spawner.Unregister()
	etas := map[string]time.Duration{}
	for i := 0; i < 2; i++ {
		r := <-results
		etas[r.name] = r.eta
	}
	if etas["wifi"] >= etas["lte"] {
		t.Fatalf("wifi eta (%v) should beat lte eta (%v)", etas["wifi"], etas["lte"])
	}
	lead := etas["lte"] - etas["wifi"]
	// Closed form for the eta difference alone: 4·(R2−R1) = 192 ms.
	if lead < 150*time.Millisecond || lead > 260*time.Millisecond {
		t.Fatalf("eta lead = %v, want ~192ms", lead)
	}
}

package msplayer

import (
	"context"
	"testing"
	"time"

	"repro/internal/videostore"
)

// TestServerKillRestartReprobed: a WiFi-only session loses BOTH of its
// network's replicas, exhausts the failover list, parks in jittered
// backoff/rebootstrap — and must re-probe and recover when one replica
// restarts. The restarted instance has fresh books, so traffic on its
// second Loads row proves the session really went back to it.
func TestServerKillRestartReprobed(t *testing.T) {
	tb := newTB(t, steadyProfile(9))
	p, err := tb.NewSession(SessionConfig{
		Scheduler: NewHarmonicScheduler(256<<10, 0.05),
		Paths:     WiFiOnly,
		Video:     "shortclip01",
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.At(time.Second, func() {
		tb.Cluster().Kill("video1.youtube.wifi.test:443")
		tb.Cluster().Kill("video2.youtube.wifi.test:443")
	})
	tb.At(3*time.Second, func() {
		if err := tb.Cluster().Restart("video1.youtube.wifi.test:443"); err != nil {
			t.Errorf("restart: %v", err)
		}
	})
	m, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("stream did not recover after restart: %v", err)
	}
	v, _ := videostore.DefaultCatalog().Get("shortclip01")
	if m.TotalBytes != v.Size(videostore.HD720) {
		t.Fatalf("TotalBytes = %d, want %d", m.TotalBytes, v.Size(videostore.HD720))
	}
	wifi := m.Paths[0]
	if wifi.Failures == 0 {
		t.Error("expected failed requests while both replicas were down")
	}
	if wifi.Rebootstraps == 0 {
		t.Error("expected at least one rebootstrap after exhausting the replica list")
	}
	drv := tb.Clock().Register()
	defer drv.Unregister()
	if !tb.Drain(drv) {
		t.Fatal("origin books did not settle")
	}
	var rows, restartedReqs int
	for _, l := range tb.Cluster().Loads() {
		if l.Addr == "video1.youtube.wifi.test:443" {
			rows++
			if rows == 2 {
				restartedReqs = int(l.Total)
			}
		}
	}
	if rows != 2 {
		t.Fatalf("video1.wifi has %d load rows, want 2 (killed instance + restarted instance)", rows)
	}
	if restartedReqs == 0 {
		t.Error("restarted replica served no requests: the path never re-probed it")
	}
}

// TestInterfaceRecoveryWakesBackoff: SetAlive(true) arriving while the
// only path is parked in backoff must not be missed — the path wakes at
// its scheduled backoff instant, retries, and the session completes
// instead of hanging. (The wake is the backoff timer, not the SetAlive:
// recovery is observed on the next retry.)
func TestInterfaceRecoveryWakesBackoff(t *testing.T) {
	tb := newTB(t, steadyProfile(3))
	p, err := tb.NewSession(SessionConfig{
		Scheduler: NewHarmonicScheduler(256<<10, 0.05),
		Paths:     WiFiOnly,
		Video:     "shortclip01",
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Down at 1 s fails the in-flight request and parks the path in
	// backoff; up again 600 ms later lands inside the backoff window
	// (250 ms, 500 ms, 1 s, ... plus jitter from the session seed).
	tb.At(time.Second, func() { tb.WiFi().SetAlive(false) })
	tb.At(1600*time.Millisecond, func() { tb.WiFi().SetAlive(true) })
	m, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("stream did not survive the interface flap: %v", err)
	}
	v, _ := videostore.DefaultCatalog().Get("shortclip01")
	if m.TotalBytes != v.Size(videostore.HD720) {
		t.Fatalf("TotalBytes = %d, want %d", m.TotalBytes, v.Size(videostore.HD720))
	}
	if m.Paths[0].Failures == 0 {
		t.Error("expected failed requests while the interface was down")
	}
}

// TestBlackholeDeadlineFailsOver: a blackholed replica accepts
// connections but never responds, so only the request deadline can
// unwedge the path. With RequestTimeout set the path must time out,
// fail over to the healthy replica, and finish the clip; without a
// deadline it would park forever (TestDeadlineCutsBlackholedFreshDial
// pins the exact timeout instants at the transport layer).
func TestBlackholeDeadlineFailsOver(t *testing.T) {
	tb := newTB(t, steadyProfile(7))
	p, err := tb.NewSession(SessionConfig{
		Scheduler:      NewHarmonicScheduler(256<<10, 0.05),
		Paths:          WiFiOnly,
		Video:          "shortclip01",
		RequestTimeout: 800 * time.Millisecond,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.At(1200*time.Millisecond, func() {
		if err := tb.Cluster().Blackhole("video1.youtube.wifi.test:443", true); err != nil {
			t.Errorf("blackhole: %v", err)
		}
	})
	m, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("stream wedged on the blackholed replica: %v", err)
	}
	v, _ := videostore.DefaultCatalog().Get("shortclip01")
	if m.TotalBytes != v.Size(videostore.HD720) {
		t.Fatalf("TotalBytes = %d, want %d", m.TotalBytes, v.Size(videostore.HD720))
	}
	wifi := m.Paths[0]
	if wifi.Timeouts == 0 {
		t.Error("expected at least one request-deadline expiry against the blackholed replica")
	}
	if wifi.Failovers == 0 && wifi.Rebootstraps == 0 {
		t.Error("expected a failover or rebootstrap away from the blackholed replica")
	}
}

// TestBreakerStopsPayingDeadlineOnDeadReplica: without the resilience
// layer, every rotation past a blackholed replica burns a full
// RequestTimeout budget again (the PR 8 failure mode: 401 timeouts in
// the originstorm golden). With breakers on, a dead replica costs
// deadline budget only for the strikes that open its breaker;
// afterwards selection skips it in zero virtual time (the exact
// skip/half-open instants are pinned in
// core.TestBreakerFailsFastAtSelection) and half-open probes are tiny
// hedge-bounded ranges, so the same three-second total outage must
// produce strictly fewer request-deadline expiries.
func TestBreakerStopsPayingDeadlineOnDeadReplica(t *testing.T) {
	run := func(res Resilience) *Metrics {
		tb := newTB(t, steadyProfile(7))
		p, err := tb.NewSession(SessionConfig{
			Scheduler:      NewHarmonicScheduler(256<<10, 0.05),
			Paths:          WiFiOnly,
			Video:          "shortclip01",
			RequestTimeout: 800 * time.Millisecond,
			Resilience:     res,
			Seed:           7,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Blackhole BOTH wifi replicas at 1.2 s — blind rotation now
		// burns a deadline on every attempt while the outage lasts —
		// then recover video1 three seconds later.
		tb.At(1200*time.Millisecond, func() {
			for _, addr := range []string{"video1.youtube.wifi.test:443", "video2.youtube.wifi.test:443"} {
				if err := tb.Cluster().Blackhole(addr, true); err != nil {
					t.Errorf("blackhole: %v", err)
				}
			}
		})
		tb.At(4200*time.Millisecond, func() {
			if err := tb.Cluster().Blackhole("video1.youtube.wifi.test:443", false); err != nil {
				t.Errorf("recover: %v", err)
			}
		})
		m, err := p.Run(context.Background())
		if err != nil {
			t.Fatalf("stream wedged on the blackholed replicas: %v", err)
		}
		v, _ := videostore.DefaultCatalog().Get("shortclip01")
		if m.TotalBytes != v.Size(videostore.HD720) {
			t.Fatalf("TotalBytes = %d, want %d", m.TotalBytes, v.Size(videostore.HD720))
		}
		return m
	}
	blind := run(Resilience{})
	resilient := run(Resilience{BreakerThreshold: 2, HedgeEnabled: true,
		HedgeMinSamples: 2, HedgeMultiplier: 1.25})
	b, r := blind.Paths[0], resilient.Paths[0]
	if r.BreakerOpens == 0 {
		t.Error("breaker never opened against the blackholed replicas")
	}
	if r.Timeouts >= b.Timeouts {
		t.Errorf("resilient run burned %d deadlines, blind rotation %d — breaker did not fail fast",
			r.Timeouts, b.Timeouts)
	}
}

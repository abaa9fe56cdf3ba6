package bench

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/handshake"
	"repro/internal/httpx"
	"repro/internal/netem"
)

// TestFasterPathFinishesBootstrapFirst reproduces the head-start effect
// with both bootstraps running concurrently on one clock: a WiFi-like
// path with a third of the RTT completes η well before LTE, by about
// the closed-form 4·(R₂−R₁).
func TestFasterPathFinishesBootstrapFirst(t *testing.T) {
	clock := netem.NewVirtualClock()
	defer clock.Stop()
	n := netem.NewNetwork(clock)
	p := handshake.Params{Delta1: 2 * time.Millisecond, Delta2: 2 * time.Millisecond}
	for _, host := range []string{"w.test:443", "l.test:443"} {
		l, err := n.Listen(host, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer httpx.Serve(clock, l, http.NotFoundHandler(), p).Close()
	}
	paths := []struct {
		iface, addr string
		delay       time.Duration
	}{{"wifi", "w.test:443", 12 * time.Millisecond}, {"lte", "l.test:443", 36 * time.Millisecond}}
	drv := clock.Register()
	defer drv.Unregister()
	start := clock.Now()
	var etas [2]time.Duration
	await(drv, func(done func()) {
		pending := len(paths)
		for i, path := range paths {
			i, path := i, path
			link := netem.LinkParams{Rate: netem.Mbps(20), Delay: path.delay}
			secure(n.NewInterface(path.iface, link, link), path.addr, func(err error) {
				if err != nil {
					t.Errorf("%s: %v", path.addr, err)
				}
				etas[i] = clock.Now().Sub(start)
				if pending--; pending == 0 {
					done()
				}
			})
		}
	})
	wifi, lte := etas[0], etas[1]
	if wifi >= lte {
		t.Fatalf("wifi eta (%v) should beat lte eta (%v)", wifi, lte)
	}
	// Closed form for the eta difference alone: 4·(R2−R1) = 192 ms.
	if lead := lte - wifi; lead < 150*time.Millisecond || lead > 260*time.Millisecond {
		t.Fatalf("eta lead = %v, want ~192ms", lead)
	}
}

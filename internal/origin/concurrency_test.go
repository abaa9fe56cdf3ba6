package origin

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/netem"
	"repro/internal/videostore"
)

// TestConcurrentWatchAndRange drives many concurrent clients — each with
// its own interface, as a fleet run does — against one shared Cluster:
// every watch must issue a working token and every range fetch must
// return the catalog's exact bytes.
func TestConcurrentWatchAndRange(t *testing.T) {
	const (
		clients        = 12
		rangesPerFetch = 3
	)
	clock := netem.NewVirtualClock()
	t.Cleanup(clock.Stop)
	n := netem.NewNetwork(clock)
	cluster, err := Deploy(n, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)

	v, _ := videostore.DefaultCatalog().Get("shortclip01")
	content := v.Content(videostore.HD720)

	// Each client is a callback chain on its own transport and loop —
	// watch, then rangesPerFetch ranges — and all of them run at once,
	// interleaved on the one driver.
	errs := make([]error, clients)
	finished := 0
	for i := 0; i < clients; i++ {
		i := i
		network := "wifi"
		if i%2 == 1 {
			network = "lte"
		}
		iface := n.NewInterface(network,
			netem.LinkParams{Rate: netem.Mbps(20), Delay: 10 * time.Millisecond, Seed: int64(i)},
			netem.LinkParams{Rate: netem.Mbps(20), Delay: 10 * time.Millisecond, Seed: int64(i) + 7})
		loop := netem.NewLoop()
		et := httpx.NewEventTransport(iface, clock, loop)
		done := func(err error) {
			errs[i] = err
			et.Shutdown(nil)
			finished++
		}
		var info *VideoInfo
		r := 0
		var fetch func()
		fetch = func() {
			if r == rangesPerFetch {
				done(nil)
				return
			}
			// Tokens issued under contention must verify on every
			// replica of the issuing network.
			server := info.VideoServers[r%len(info.VideoServers)]
			lo := int64(i*1000 + r*100)
			hi := lo + 499
			r++
			et.GetRangeViews(info.PlaybackURL(server, 22), lo, hi, func(views [][]byte, release func(), err error) {
				if err != nil {
					done(fmt.Errorf("range %s [%d-%d]: %w", server, lo, hi, err))
					return
				}
				var body []byte
				for _, v := range views {
					body = append(body, v...)
				}
				release()
				want := make([]byte, hi-lo+1)
				content.ReadAt(want, lo)
				if !bytes.Equal(body, want) {
					done(fmt.Errorf("range [%d-%d]: %d bytes differ from the catalog's %d", lo, hi, len(body), len(want)))
					return
				}
				fetch()
			})
		}
		proxy, err := cluster.ProxyAddr(network)
		if err != nil {
			t.Fatal(err)
		}
		loop.Do(func() {
			et.Get("http://"+proxy+"/watch?v=shortclip01", func(status int, body []byte, err error) {
				if info, err = decodeWatch(status, body, err); err != nil {
					done(err)
					return
				}
				if info.Network != network {
					done(fmt.Errorf("network = %q, want %q", info.Network, network))
					return
				}
				if len(info.VideoServers) == 0 {
					done(fmt.Errorf("no video servers"))
					return
				}
				fetch()
			})
		})
	}
	drv := clock.Register()
	defer drv.Unregister()
	if !drv.Await(func() bool { return finished == clients }) {
		t.Fatalf("the clock ran out of events with %d of %d clients finished", finished, clients)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}

	// Load accounting: every request must have been counted. Each client
	// shut its transport down before returning, so the cluster's drain
	// barrier closes the books on the clock — no wall-clock settle
	// polling.
	if !cluster.Drain(drv) {
		t.Fatal("cluster drain did not settle")
	}
	loads := cluster.Loads()
	var total int64
	for _, l := range loads {
		if l.InFlight != 0 {
			t.Errorf("server %s: %d requests still in flight", l.Addr, l.InFlight)
		}
		if l.Total < 0 || int64(l.Peak) > l.Total {
			t.Errorf("server %s: inconsistent load %+v", l.Addr, l)
		}
		total += l.Total
	}
	want := int64(clients * (1 + rangesPerFetch)) // one watch + N ranges each
	if total != want {
		t.Errorf("total requests = %d, want %d", total, want)
	}
}

// TestConcurrentTokenIssuanceDistinct checks that tokens issued to
// different networks under contention stay network-bound.
func TestConcurrentTokenIssuanceDistinct(t *testing.T) {
	cluster, _, wifi, lte := testDeployment(t, ClusterConfig{})
	type out struct {
		info *VideoInfo
		err  error
	}
	results := make([]out, 8)
	finished := 0
	for i := range results {
		i := i
		iface, network := wifi, "wifi"
		if i%2 == 1 {
			iface, network = lte, "lte"
		}
		proxy, err := cluster.ProxyAddr(network)
		if err != nil {
			t.Fatal(err)
		}
		loop := netem.NewLoop()
		et := httpx.NewEventTransport(iface, cluster.net.Clock(), loop)
		loop.Do(func() {
			et.Get("http://"+proxy+"/watch?v=shortclip01", func(status int, body []byte, err error) {
				info, err := decodeWatch(status, body, err)
				results[i] = out{info, err}
				et.Shutdown(nil)
				finished++
			})
		})
	}
	onClock(t, cluster.net.Clock(), func(p *netem.Participant) error {
		if !p.Await(func() bool { return finished == len(results) }) {
			return errStalled
		}
		return nil
	})
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("fetch %d: %v", i, r.err)
		}
	}
	// Cross-network replay must still fail even when both tokens were
	// minted in the same virtual instant.
	wifiInfo, lteInfo := results[0].info, results[1].info
	cross := *lteInfo
	cross.Token = wifiInfo.Token
	withClient(t, wifi, func(c *client) error {
		if _, err := c.getRange(cross.PlaybackURL(lteInfo.VideoServers[0], 22), 0, 99); err == nil {
			return fmt.Errorf("cross-network token accepted")
		}
		if _, err := c.getRange(wifiInfo.PlaybackURL(wifiInfo.VideoServers[0], 22), 0, 99); err != nil {
			return fmt.Errorf("legitimate token rejected: %w", err)
		}
		return nil
	})
}

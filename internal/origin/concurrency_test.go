package origin

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/videostore"
)

// TestConcurrentWatchAndRange drives many concurrent clients — each with
// its own interface, as a fleet run does — against one shared Cluster:
// every watch must issue a working token, every range fetch must return
// the catalog's exact bytes, and the whole run must be race-clean.
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

	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		network := "wifi"
		if i%2 == 1 {
			network = "lte"
		}
		iface := n.NewInterface(network,
			netem.LinkParams{Rate: netem.Mbps(20), Delay: 10 * time.Millisecond, Seed: int64(i)},
			netem.LinkParams{Rate: netem.Mbps(20), Delay: 10 * time.Millisecond, Seed: int64(i) + 7})
		wg.Add(1)
		clock.Go(func(cp *netem.Participant) {
			defer wg.Done()
			errs[i] = func() error {
				c := newClient(cp, iface)
				defer c.close()
				info, err := c.watch(cluster, network, "shortclip01")
				if err != nil {
					return err
				}
				if info.Network != network {
					return fmt.Errorf("network = %q, want %q", info.Network, network)
				}
				if len(info.VideoServers) == 0 {
					return fmt.Errorf("no video servers")
				}
				// Tokens issued under contention must verify on every
				// replica of the issuing network.
				for r := 0; r < rangesPerFetch; r++ {
					server := info.VideoServers[r%len(info.VideoServers)]
					lo := int64(i*1000 + r*100)
					hi := lo + 499
					body, err := c.getRange(info.PlaybackURL(server, 22), lo, hi)
					if err != nil {
						return fmt.Errorf("range %s [%d-%d]: %w", server, lo, hi, err)
					}
					want := make([]byte, hi-lo+1)
					content.ReadAt(want, lo)
					if len(body) != len(want) {
						return fmt.Errorf("range length = %d, want %d", len(body), len(want))
					}
					for j := range want {
						if body[j] != want[j] {
							return fmt.Errorf("content mismatch at offset %d", lo+int64(j))
						}
					}
				}
				return nil
			}()
		})
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}

	// Load accounting: every request must have been counted. Each client
	// shut its transport down before returning, so the cluster's drain
	// barrier closes the books on the clock — no wall-clock settle
	// polling.
	drv := clock.Register()
	defer drv.Unregister()
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
	var wg sync.WaitGroup
	for i := range results {
		i := i
		iface, network := wifi, "wifi"
		if i%2 == 1 {
			iface, network = lte, "lte"
		}
		wg.Add(1)
		cluster.net.Clock().Go(func(cp *netem.Participant) {
			defer wg.Done()
			c := newClient(cp, iface)
			defer c.close()
			info, err := c.watch(cluster, network, "shortclip01")
			results[i] = out{info, err}
		})
	}
	wg.Wait()
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

package origin

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/netem"
	"repro/internal/videostore"
)

// testDeployment spins up a two-network cluster plus wifi/lte interfaces.
func testDeployment(t *testing.T, cfg ClusterConfig) (*Cluster, *netem.Network, *netem.Interface, *netem.Interface) {
	t.Helper()
	clock := netem.NewVirtualClock()
	t.Cleanup(clock.Stop)
	n := netem.NewNetwork(clock)
	c, err := Deploy(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	wifi := n.NewInterface("wifi",
		netem.LinkParams{Rate: netem.Mbps(36), Delay: 12 * time.Millisecond},
		netem.LinkParams{Rate: netem.Mbps(36), Delay: 12 * time.Millisecond})
	lte := n.NewInterface("lte",
		netem.LinkParams{Rate: netem.Mbps(30), Delay: 35 * time.Millisecond},
		netem.LinkParams{Rate: netem.Mbps(30), Delay: 35 * time.Millisecond})
	return c, n, wifi, lte
}

// client issues requests on an EventTransport as the clock's driver,
// the way Player.Run drives a session: each request starts as a step on
// the transport's loop and the driver runs the clock's events until the
// completion callback fires.
type client struct {
	p  *netem.Participant
	et *httpx.EventTransport
}

func newClient(p *netem.Participant, iface *netem.Interface) *client {
	return &client{p: p, et: httpx.NewEventTransport(iface, p.Clock(), netem.NewLoop())}
}

// errStalled reports a request the clock ran out of events under.
var errStalled = errors.New("the clock ran out of events before the request completed")

// await runs issue as a loop step and drives the clock until it calls
// finish.
func (c *client) await(issue func(finish func())) error {
	finished := false
	c.et.Loop().Do(func() { issue(func() { finished = true }) })
	if !c.p.Await(func() bool { return finished }) {
		return errStalled
	}
	return nil
}

// get issues a bodyless GET.
func (c *client) get(url string) (status int, body []byte, err error) {
	if aerr := c.await(func(finish func()) {
		c.et.Get(url, func(s int, b []byte, gerr error) {
			status, body, err = s, b, gerr
			finish()
		})
	}); aerr != nil {
		return 0, nil, aerr
	}
	return status, body, err
}

// getRange fetches the inclusive range [from, to] of url, copying the
// borrowed views out before releasing them.
func (c *client) getRange(url string, from, to int64) (body []byte, err error) {
	aerr := c.await(func(finish func()) {
		c.et.GetRangeViews(url, from, to, func(views [][]byte, release func(), rerr error) {
			if err = rerr; err == nil {
				for _, v := range views {
					body = append(body, v...)
				}
				release()
			}
			finish()
		})
	})
	if aerr != nil {
		return nil, aerr
	}
	return body, err
}

// watch fetches and decodes videoID's metadata from network's proxy.
func (c *client) watch(cluster *Cluster, network, videoID string) (*VideoInfo, error) {
	proxy, err := cluster.ProxyAddr(network)
	if err != nil {
		return nil, err
	}
	return decodeWatch(c.get("http://" + proxy + "/watch?v=" + videoID))
}

// decodeWatch decodes a /watch response.
func decodeWatch(status int, body []byte, err error) (*VideoInfo, error) {
	if err != nil {
		return nil, fmt.Errorf("watch: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("watch status %d", status)
	}
	var info VideoInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return &info, nil
}

// close shuts the client's transport down.
func (c *client) close() { c.et.Loop().Do(func() { c.et.Shutdown(nil) }) }

// onClock runs fn as the clock's driver.
func onClock(t *testing.T, clock *netem.Clock, fn func(p *netem.Participant) error) {
	t.Helper()
	p := clock.Register()
	defer p.Unregister()
	if err := fn(p); err != nil {
		t.Fatal(err)
	}
}

// withClient runs fn with a client over iface as the clock's driver and
// shuts the client down afterwards.
func withClient(t *testing.T, iface *netem.Interface, fn func(c *client) error) {
	t.Helper()
	onClock(t, iface.Network().Clock(), func(p *netem.Participant) error {
		c := newClient(p, iface)
		defer c.close()
		return fn(c)
	})
}

func fetchInfo(t *testing.T, cluster *Cluster, iface *netem.Interface, network, videoID string) *VideoInfo {
	t.Helper()
	var info *VideoInfo
	withClient(t, iface, func(c *client) (err error) {
		info, err = c.watch(cluster, network, videoID)
		return err
	})
	return info
}

func TestWatchReturnsPerNetworkMetadata(t *testing.T) {
	cluster, _, wifi, lte := testDeployment(t, ClusterConfig{})
	wifiInfo := fetchInfo(t, cluster, wifi, "wifi", "qjT4T2gU9sM")
	lteInfo := fetchInfo(t, cluster, lte, "lte", "qjT4T2gU9sM")

	if wifiInfo.Network != "wifi" || lteInfo.Network != "lte" {
		t.Fatalf("networks = %q/%q", wifiInfo.Network, lteInfo.Network)
	}
	if len(wifiInfo.VideoServers) != 2 || len(lteInfo.VideoServers) != 2 {
		t.Fatalf("replica counts = %d/%d, want 2/2", len(wifiInfo.VideoServers), len(lteInfo.VideoServers))
	}
	for _, s := range wifiInfo.VideoServers {
		if !strings.Contains(s, ".wifi.") {
			t.Errorf("wifi view leaked server %s", s)
		}
	}
	if wifiInfo.Token == lteInfo.Token {
		t.Error("tokens should be network bound")
	}
	if wifiInfo.LengthSeconds != 300 {
		t.Errorf("LengthSeconds = %d, want 300", wifiInfo.LengthSeconds)
	}
	if n, err := wifiInfo.ContentLengthFor(22); err != nil || n != videostore.HD720.BytesFor(5*time.Minute) {
		t.Errorf("ContentLengthFor(22) = %d, %v", n, err)
	}
	if _, err := wifiInfo.ContentLengthFor(999); err == nil {
		t.Error("ContentLengthFor of missing itag should fail")
	}
}

func TestWatchUnknownVideo404(t *testing.T) {
	cluster, _, wifi, _ := testDeployment(t, ClusterConfig{})
	proxy, _ := cluster.ProxyAddr("wifi")
	withClient(t, wifi, func(c *client) error {
		status, _, err := c.get("http://" + proxy + "/watch?v=nosuchvideo")
		if err != nil {
			return err
		}
		if status != http.StatusNotFound {
			return fmt.Errorf("status = %d, want 404", status)
		}
		return nil
	})
}

func TestVideoPlaybackRangeAndContent(t *testing.T) {
	cluster, _, wifi, _ := testDeployment(t, ClusterConfig{})
	info := fetchInfo(t, cluster, wifi, "wifi", "shortclip01")
	url := info.PlaybackURL(info.VideoServers[0], 22)
	var body []byte
	withClient(t, wifi, func(c *client) (err error) {
		body, err = c.getRange(url, 1000, 4999)
		return err
	})
	if len(body) != 4000 {
		t.Fatalf("range length = %d, want 4000", len(body))
	}
	// Bytes must match the deterministic catalog content.
	v, _ := videostore.DefaultCatalog().Get("shortclip01")
	want := make([]byte, 4000)
	v.Content(videostore.HD720).ReadAt(want, 1000)
	for i := range want {
		if body[i] != want[i] {
			t.Fatalf("content mismatch at %d", i)
		}
	}
}

func TestReplicasServeIdenticalBytes(t *testing.T) {
	cluster, _, wifi, _ := testDeployment(t, ClusterConfig{})
	info := fetchInfo(t, cluster, wifi, "wifi", "shortclip01")
	var bodies [][]byte
	withClient(t, wifi, func(c *client) error {
		for _, s := range info.VideoServers {
			b, err := c.getRange(info.PlaybackURL(s, 22), 500, 1499)
			if err != nil {
				return fmt.Errorf("replica %s: %w", s, err)
			}
			bodies = append(bodies, b)
		}
		return nil
	})
	for i := range bodies[0] {
		if bodies[0][i] != bodies[1][i] {
			t.Fatal("replicas disagree on bytes")
		}
	}
}

func TestTokenEnforcement(t *testing.T) {
	cluster, _, wifi, lte := testDeployment(t, ClusterConfig{})
	wifiInfo := fetchInfo(t, cluster, wifi, "wifi", "shortclip01")
	lteInfo := fetchInfo(t, cluster, lte, "lte", "shortclip01")
	withClient(t, wifi, func(c *client) error {
		// A wifi-network token replayed against an LTE replica is rejected.
		cross := *lteInfo
		cross.Token = wifiInfo.Token
		cross.Network = "lte"
		if _, err := c.getRange(cross.PlaybackURL(lteInfo.VideoServers[0], 22), 0, 99); err == nil {
			return errors.New("cross-network token accepted")
		}
		// A forged token is rejected.
		forged := *wifiInfo
		forged.Token = strings.Repeat("ab", 32)
		if _, err := c.getRange(forged.PlaybackURL(wifiInfo.VideoServers[0], 22), 0, 99); err == nil {
			return errors.New("forged token accepted")
		}
		// The legitimate token works on its own network.
		if _, err := c.getRange(wifiInfo.PlaybackURL(wifiInfo.VideoServers[0], 22), 0, 99); err != nil {
			return fmt.Errorf("legitimate token rejected: %w", err)
		}
		return nil
	})
}

func TestTokenExpiry(t *testing.T) {
	clock := netem.NewVirtualClock()
	defer clock.Stop()
	secret := []byte("s")
	now := clock.Now()
	expire := now.Add(time.Hour)
	tok := SignToken(secret, "shortclip01", expire, "wifi")
	if err := VerifyToken(secret, "shortclip01", "wifi", tok, itoa(expire.Unix()), now); err != nil {
		t.Fatalf("fresh token rejected: %v", err)
	}
	if err := VerifyToken(secret, "shortclip01", "wifi", tok, itoa(expire.Unix()), now.Add(2*time.Hour)); err == nil {
		t.Fatal("expired token accepted")
	}
	if err := VerifyToken(secret, "shortclip01", "wifi", tok, "notanumber", now); err == nil {
		t.Fatal("malformed expire accepted")
	}
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

func TestKillRemovesReplicaFromWatch(t *testing.T) {
	cluster, _, wifi, _ := testDeployment(t, ClusterConfig{})
	before := fetchInfo(t, cluster, wifi, "wifi", "shortclip01")
	if len(before.VideoServers) != 2 {
		t.Fatalf("want 2 replicas, got %d", len(before.VideoServers))
	}
	if err := cluster.Kill(before.VideoServers[0]); err != nil {
		t.Fatal(err)
	}
	after := fetchInfo(t, cluster, wifi, "wifi", "shortclip01")
	if len(after.VideoServers) != 1 || after.VideoServers[0] != before.VideoServers[1] {
		t.Fatalf("replicas after kill = %v", after.VideoServers)
	}
	if err := cluster.Kill("nonexistent:443"); err == nil {
		t.Fatal("killing unknown server should fail")
	}
}

func TestThrottlePacesAfterBurst(t *testing.T) {
	throttled := ClusterConfig{Throttle: &ThrottleConfig{BurstBytes: 64 << 10, RateFactor: 1.25}}
	cluster, n, wifi, _ := testDeployment(t, throttled)
	info := fetchInfo(t, cluster, wifi, "wifi", "shortclip01")
	url := info.PlaybackURL(info.VideoServers[0], 22)

	// The driver runs the clock until well past the fetch's completion,
	// so the completion instant is a pure function of the emulation.
	clock := n.Clock()
	drv := clock.Register()
	defer drv.Unregister()
	loop := netem.NewLoop()
	et := httpx.NewEventTransport(wifi, clock, loop)
	start := clock.Now()
	var elapsed time.Duration
	ferr := errors.New("fetch never completed")
	loop.Do(func() {
		et.GetRangeViews(url, 0, 1<<20-1, func(_ [][]byte, release func(), err error) {
			elapsed, ferr = clock.Now().Sub(start), err
			if err == nil {
				release()
			}
			et.Shutdown(nil)
		})
	})
	drv.SleepUntil(start.Add(time.Minute))
	if ferr != nil {
		t.Fatal(ferr)
	}
	// 1 MiB: 64 KiB burst + ~960 KiB paced at 1.25×312.5 KB/s ≈ 2.5 s.
	// The exact instant was recorded from the goroutine-served origin,
	// whose pacing parked the connection's goroutine in Participant.Sleep.
	const pinned = 2644827064 * time.Nanosecond
	if elapsed != pinned {
		t.Fatalf("throttled fetch took %v, pinned %v", elapsed, time.Duration(pinned))
	}
}

func TestDNSViews(t *testing.T) {
	cluster, _, _, _ := testDeployment(t, ClusterConfig{})
	r := cluster.Resolver()
	wifiServers, err := r.Lookup("wifi", VideoServersName)
	if err != nil || len(wifiServers) != 2 {
		t.Fatalf("wifi lookup = %v, %v", wifiServers, err)
	}
	lteServers, _ := r.Lookup("lte", VideoServersName)
	if wifiServers[0] == lteServers[0] {
		t.Fatal("network views should differ")
	}
	if _, err := r.Lookup("ethernet", VideoServersName); err == nil {
		t.Fatal("unknown network view should fail")
	}
	if _, err := r.Lookup("wifi", "nope.test"); err == nil {
		t.Fatal("unknown name should fail")
	}
}

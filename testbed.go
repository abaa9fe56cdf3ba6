package msplayer

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/handshake"
	"repro/internal/netem"
	"repro/internal/netem/trace"
	"repro/internal/origin"
	"repro/internal/videostore"
)

// LinkProfile describes one access network of the testbed.
type LinkProfile struct {
	// Name is the network name ("wifi", "lte").
	Name string
	// RateMbps is the mean access-link rate in megabits per second.
	RateMbps float64
	// RTT is the round-trip time of the access link.
	RTT time.Duration
	// Sigma is the lognormal per-interval rate variation (0 = steady).
	Sigma float64
	// VaryEvery is the rate-resample interval for the variation.
	VaryEvery time.Duration
	// Jitter adds uniform random per-segment delay in [0, Jitter).
	Jitter time.Duration
	// LossProb is the per-segment loss probability.
	LossProb float64
	// LossWindows overlays time-bounded loss storms on the link: inside a
	// window the per-segment loss probability is raised to the window's
	// value (see netem.LossWindow). Fleet scenarios compile packet-loss
	// storm faults into these.
	LossWindows []netem.LossWindow
	// Shape optionally post-processes the link's rate profile (after the
	// base rate and lognormal variation are applied), e.g. to overlay a
	// deterministic degradation window or outage. Fleet scenarios use it
	// to compile per-session mid-stream events into the link itself.
	Shape func(trace.Rate) trace.Rate
}

// Profile is a full testbed configuration.
type Profile struct {
	// WiFi and LTE are the two access networks of the paper's client.
	WiFi LinkProfile
	LTE  LinkProfile
	// Video selects the streamed clip from the default catalog.
	Video string
	// Itag selects the format (22 = 720p).
	Itag int
	// ServerDelay is extra one-way distance to the origin servers.
	ServerDelay time.Duration
	// Handshake sets the web proxy / video server Δ₁, Δ₂ terms.
	Handshake handshake.Params
	// ReplicasPerNetwork is the video-server replica count per network.
	ReplicasPerNetwork int
	// Throttle optionally enables Trickle-style server pacing.
	Throttle *origin.ThrottleConfig
	// Catalog overrides the served videos (default: reference catalog).
	Catalog *videostore.Catalog
	// Seed varies the stochastic components between repetitions. A
	// profile is fully deterministic per seed:
	// repeated runs produce bit-identical metrics regardless of machine
	// or load, because virtual time only advances as one driver fires
	// the clock's events in order.
	Seed int64
	// EventLoop has no effect.
	//
	// Deprecated: every server runs on the event loop.
	EventLoop bool
}

// TestbedProfile returns the emulated-testbed configuration of §5,
// calibrated so the absolute pre-buffering times and the Table 1 WiFi
// traffic share land in the paper's range: a home-WiFi-like 9.5 Mb/s /
// 25 ms path, an LTE-like 7 Mb/s / 70 ms path (RTT 2-3× WiFi, as
// measured in the paper), and the 5-minute 720p reference clip.
func TestbedProfile(seed int64) Profile {
	return Profile{
		WiFi: LinkProfile{Name: "wifi", RateMbps: 9.5, RTT: 25 * time.Millisecond,
			Sigma: 0.22, VaryEvery: 500 * time.Millisecond},
		LTE: LinkProfile{Name: "lte", RateMbps: 7.0, RTT: 70 * time.Millisecond,
			Sigma: 0.30, VaryEvery: 400 * time.Millisecond},
		Video:              "qjT4T2gU9sM",
		Itag:               22,
		ServerDelay:        2 * time.Millisecond,
		Handshake:          handshake.Params{Delta1: 4 * time.Millisecond, Delta2: 3 * time.Millisecond},
		ReplicasPerNetwork: 2,
		Seed:               seed,
	}
}

// YouTubeProfile returns the §6 configuration: same interfaces but a
// more distant, more variable service (higher server delay and rate
// variance, occasional jitter), approximating the public YouTube
// infrastructure reached across the Internet.
func YouTubeProfile(seed int64) Profile {
	p := TestbedProfile(seed)
	p.ServerDelay = 10 * time.Millisecond
	p.WiFi.Sigma = 0.30
	p.LTE.Sigma = 0.40
	p.WiFi.Jitter = 2 * time.Millisecond
	p.LTE.Jitter = 5 * time.Millisecond
	p.Handshake = handshake.Params{Delta1: 6 * time.Millisecond, Delta2: 5 * time.Millisecond}
	return p
}

// PathSelection picks which interfaces a session uses.
type PathSelection int

// Path selections for Stream.
const (
	// BothPaths streams over WiFi and LTE simultaneously (MSPlayer).
	BothPaths PathSelection = iota
	// WiFiOnly is the single-path WiFi baseline.
	WiFiOnly
	// LTEOnly is the single-path LTE baseline.
	LTEOnly
)

// Testbed is a running emulated environment: a replicated YouTube-like
// origin plus any number of client attachments (each with its own pair
// of shaped access networks), all sharing one emulated clock. A freshly
// deployed testbed has one default client, so single-session use needs
// no extra setup; fleet runs attach one client per concurrent session
// with NewClient.
type Testbed struct {
	profile Profile
	clock   *netem.Clock
	network *netem.Network
	cluster *origin.Cluster
	client  *Client // default client (session 0)

	at []atEvent // At events waiting for the next session start
}

// atEvent is one pending At call.
type atEvent struct {
	offset time.Duration
	fn     func()
}

// NewTestbed deploys a testbed from the profile.
func NewTestbed(p Profile) (*Testbed, error) {
	if p.Itag == 0 {
		p.Itag = 22
	}
	if p.Video == "" {
		p.Video = "qjT4T2gU9sM"
	}
	clock := netem.NewVirtualClock()
	network := netem.NewNetwork(clock)
	cluster, err := origin.Deploy(network, origin.ClusterConfig{
		Catalog:            p.Catalog,
		Networks:           []string{p.WiFi.Name, p.LTE.Name},
		ReplicasPerNetwork: p.ReplicasPerNetwork,
		Handshake:          p.Handshake,
		ServerDelay:        p.ServerDelay,
		Throttle:           p.Throttle,
	})
	if err != nil {
		clock.Stop()
		return nil, err
	}
	tb := &Testbed{profile: p, clock: clock, network: network, cluster: cluster}
	tb.client = tb.NewClient(p.WiFi, p.LTE, p.Seed)
	return tb, nil
}

// Client is one emulated subscriber attachment: its own WiFi and LTE
// access links (with their own shaping, variation and randomness seed)
// reaching the testbed's shared origin cluster over the shared clock.
// Clients are cheap and independent — a fleet run attaches hundreds —
// and sessions started on distinct clients may run concurrently.
type Client struct {
	tb   *Testbed
	wifi *netem.Interface
	lte  *netem.Interface
}

// NewClient attaches a new client with its own access links. All of the
// client's stochastic components (rate variation, jitter, loss) derive
// from seed, so a fleet of clients with distinct seeds stays
// deterministic per scenario seed. The link profiles' Name fields must
// match networks the origin cluster is deployed into (the testbed
// profile's WiFi/LTE names).
func (tb *Testbed) NewClient(wifi, lte LinkProfile, seed int64) *Client {
	return &Client{
		tb:   tb,
		wifi: tb.makeInterface(wifi, seed),
		lte:  tb.makeInterface(lte, seed+101),
	}
}

func (tb *Testbed) makeInterface(lp LinkProfile, seed int64) *netem.Interface {
	mk := func(dirSeed int64) netem.LinkParams {
		params := netem.LinkParams{
			Rate:        netem.Mbps(lp.RateMbps),
			Delay:       lp.RTT / 2,
			Jitter:      lp.Jitter,
			LossProb:    lp.LossProb,
			LossWindows: lp.LossWindows,
			SlowStart:   true,
			Seed:        dirSeed,
		}
		if lp.Sigma > 0 {
			params.Trace = trace.Lognormal(trace.Constant(netem.Mbps(lp.RateMbps)),
				lp.Sigma, lp.VaryEvery, dirSeed)
		}
		if lp.Shape != nil {
			base := params.Trace
			if base == nil {
				base = trace.Constant(netem.Mbps(lp.RateMbps))
			}
			params.Trace = lp.Shape(base)
		}
		return params
	}
	return tb.network.NewInterface(lp.Name, mk(seed), mk(seed+7))
}

// Clock exposes the testbed's emulated clock.
func (tb *Testbed) Clock() *netem.Clock { return tb.clock }

// Network exposes the underlying emulated network.
func (tb *Testbed) Network() *netem.Network { return tb.network }

// Cluster exposes the emulated YouTube origin (for failure injection).
func (tb *Testbed) Cluster() *origin.Cluster { return tb.cluster }

// Profile returns the testbed's (defaulted) profile.
func (tb *Testbed) Profile() Profile { return tb.profile }

// Client returns the testbed's default client.
func (tb *Testbed) Client() *Client { return tb.client }

// WiFi returns the default client's WiFi interface (for mobility
// injection).
func (tb *Testbed) WiFi() *netem.Interface { return tb.client.WiFi() }

// LTE returns the default client's LTE interface.
func (tb *Testbed) LTE() *netem.Interface { return tb.client.LTE() }

// WiFi returns the client's WiFi interface.
func (c *Client) WiFi() *netem.Interface { return c.wifi }

// LTE returns the client's LTE interface.
func (c *Client) LTE() *netem.Interface { return c.lte }

// Testbed returns the testbed the client is attached to.
func (c *Client) Testbed() *Testbed { return c.tb }

// At schedules fn for offset after the start of the next session on
// this testbed, for fault injection (Interface.SetAlive, Cluster.Kill,
// Close) at deterministic virtual instants. The timer is armed in the
// session's first step, so the timeline anchors to the session start;
// an At with no session after it never fires. fn runs as a clock
// callback and must not drive the clock:
//
//	tb.At(30*time.Second, func() { tb.WiFi().SetAlive(false) })
//	m, err := tb.Stream(ctx, cfg)
func (tb *Testbed) At(offset time.Duration, fn func()) {
	tb.at = append(tb.at, atEvent{offset, fn})
}

// sessionStarted arms the pending At events; wired into every session's
// OnRun so they anchor to the session start.
func (tb *Testbed) sessionStarted() {
	now := tb.clock.Now()
	for _, a := range tb.at {
		tb.clock.NewTimer(a.fn).Schedule(now.Add(a.offset))
	}
	tb.at = nil
}

// Drain drives the clock through p until the origin cluster's
// connection machines have finished. Call it after every session has
// completed — session teardown aborts its connections at deterministic
// virtual instants, so the server side unwinds on the clock too — and
// before sampling Cluster().Loads(): a true return guarantees the
// per-server books are final and exact. Returns false when the clock
// stopped, or ran out of events, before the books closed.
func (tb *Testbed) Drain(p *netem.Participant) bool {
	return tb.cluster.Drain(p)
}

// Close tears the testbed down: origin servers shut down (aborting
// their connections) and the clock stops, ending a running driver's
// wait. Now() is frozen at the stop instant, so post-close accessors
// (session metrics, buffer levels) read a stable emulated time. Close
// may be called from a clock callback (an At event) to end a session
// mid-run.
func (tb *Testbed) Close() {
	tb.cluster.Close()
	tb.clock.Stop()
}

// SessionConfig configures one streaming session on a testbed.
type SessionConfig struct {
	// Scheduler is required; see the New*Scheduler constructors.
	Scheduler Scheduler
	// Paths selects MSPlayer (BothPaths) or a single-path baseline.
	Paths PathSelection
	// Buffer overrides the paper's 40/10/+10 s thresholds.
	Buffer BufferConfig
	// StopAfterPreBuffer ends the session at pre-buffer completion.
	StopAfterPreBuffer bool
	// StopAfterRefills ends the session after N re-buffering cycles.
	StopAfterRefills int
	// MaxOutOfOrder overrides the out-of-order chunk bound (default 1).
	MaxOutOfOrder int
	// Sink receives the in-order video bytes (nil to discard).
	Sink io.Writer
	// Video/Itag override the testbed profile's clip.
	Video string
	Itag  int
	// VideoServers, keyed by access-network name, overrides the
	// video-server list each path gets at bootstrap. Fleet scenarios
	// with an edge tier use it to route sessions at their cohort's
	// edge cache instead of the origin replicas.
	VideoServers map[string][]string
	// RequestTimeout bounds every request either path issues with a
	// virtual-time deadline (see core.PathConfig.RequestTimeout). Zero
	// disables deadlines, the legacy behavior.
	RequestTimeout time.Duration
	// Resilience configures per-target circuit breakers, health-scored
	// source selection and hedged range requests on every path (see
	// core.Resilience). The zero value disables all of it, the legacy
	// behavior.
	Resilience Resilience
	// Seed decorrelates the session's backoff jitter streams from other
	// sessions'; fleet runs derive it from the scenario seed and session
	// index. Zero is a valid seed.
	Seed int64
}

// NewSession builds a core player for cfg on the default client without
// starting it, for callers that need access to the player while it runs
// (examples).
func (tb *Testbed) NewSession(cfg SessionConfig) (*core.Player, error) {
	return tb.client.NewSession(cfg)
}

// Stream runs a session on the default client to completion and returns
// its metrics.
func (tb *Testbed) Stream(ctx context.Context, cfg SessionConfig) (*Metrics, error) {
	return tb.client.Stream(ctx, cfg)
}

// NewSession builds a core player for cfg on this client's access links
// without starting it. Sessions on distinct clients are independent and
// may run concurrently; all of them advance on the shared clock, so a
// fleet of sessions is deterministic in one virtual-time world.
func (c *Client) NewSession(cfg SessionConfig) (*core.Player, error) {
	tb := c.tb
	video := cfg.Video
	if video == "" {
		video = tb.profile.Video
	}
	itag := cfg.Itag
	if itag == 0 {
		itag = tb.profile.Itag
	}
	wifiProxy, err := tb.cluster.ProxyAddr(c.wifi.Name())
	if err != nil {
		return nil, err
	}
	lteProxy, err := tb.cluster.ProxyAddr(c.lte.Name())
	if err != nil {
		return nil, err
	}
	wifiPath := core.PathConfig{Iface: c.wifi, ProxyAddr: wifiProxy,
		VideoServers: cfg.VideoServers[c.wifi.Name()], RequestTimeout: cfg.RequestTimeout,
		Resilience: cfg.Resilience}
	ltePath := core.PathConfig{Iface: c.lte, ProxyAddr: lteProxy,
		VideoServers: cfg.VideoServers[c.lte.Name()], RequestTimeout: cfg.RequestTimeout,
		Resilience: cfg.Resilience}
	var paths []core.PathConfig
	switch cfg.Paths {
	case BothPaths:
		paths = []core.PathConfig{wifiPath, ltePath}
	case WiFiOnly:
		paths = []core.PathConfig{wifiPath}
	case LTEOnly:
		paths = []core.PathConfig{ltePath}
	default:
		return nil, fmt.Errorf("msplayer: unknown path selection %d", cfg.Paths)
	}
	return core.NewPlayer(core.Config{
		Clock:              tb.clock,
		VideoID:            video,
		Itag:               itag,
		Scheduler:          cfg.Scheduler,
		Buffer:             cfg.Buffer,
		Paths:              paths,
		MaxOutOfOrder:      cfg.MaxOutOfOrder,
		Sink:               cfg.Sink,
		StopAfterPreBuffer: cfg.StopAfterPreBuffer,
		StopAfterRefills:   cfg.StopAfterRefills,
		OnRun:              tb.sessionStarted,
		Seed:               cfg.Seed,
	})
}

// Stream runs a session on this client to completion and returns its
// metrics, driving the testbed clock on the calling goroutine meanwhile
// (see core.Player.Run). The clock must not have a live driver already;
// a driver running many sessions — the fleet engine — uses
// StreamEvented. A cancelled ctx or a closed testbed ends the session
// early with the partial metrics sealed at that instant.
func (c *Client) Stream(ctx context.Context, cfg SessionConfig) (*Metrics, error) {
	p, err := c.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx)
}

// StreamEvented starts a session on this client as event-loop state
// machines on loop and returns immediately; done receives the metrics
// at the virtual instant the session ends. The caller drives the clock
// while the session runs; on a stopped clock, Interrupt the returned
// handle to collect the partial result.
func (c *Client) StreamEvented(loop *netem.Loop, cfg SessionConfig, done func(*Metrics, error)) (*EventedSession, error) {
	p, err := c.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	return p.RunEvented(loop, done), nil
}

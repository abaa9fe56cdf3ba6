package origin

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/handshake"
	"repro/internal/httpx"
	"repro/internal/netem"
	"repro/internal/origin/dnsx"
	"repro/internal/videostore"
)

// WebProxyName and VideoServersName are the DNS names under which a
// Cluster registers its services in each network view.
const (
	WebProxyName     = "www.youtube.test"
	VideoServersName = "videoservers.youtube.test"
)

// ClusterConfig describes a full emulated YouTube deployment.
type ClusterConfig struct {
	// Catalog holds the served videos; DefaultCatalog if nil.
	Catalog *videostore.Catalog
	// Networks are the access networks to deploy into ("wifi", "lte").
	Networks []string
	// ReplicasPerNetwork is the number of video servers per network
	// (default 2, matching the paper's two UMass subnets with a primary
	// and a failover per network).
	ReplicasPerNetwork int
	// Handshake sets the Δ₁/Δ₂ processing delays of every server.
	Handshake handshake.Params
	// ServerDelay is the extra one-way delay to reach the servers beyond
	// the access link (server distance). Applied to web proxies and
	// video servers alike, as the paper assumes the proxy is close to
	// the video server.
	ServerDelay time.Duration
	// TokenTTL overrides the one-hour default token validity.
	TokenTTL time.Duration
	// Throttle optionally enables Trickle-style pacing on video servers.
	Throttle *ThrottleConfig
	// Secret signs access tokens; a fixed default is used if empty.
	Secret []byte
	// Shards is the number of liveness/accounting shards the instance
	// table is spread over (default 4). Sharding is wire-invisible: it
	// only spreads the mutexes that liveReplicas/Kill contend on, and
	// Loads/Drain/Close merge the shard books back into deployment
	// order, so reports are byte-identical for any shard count.
	Shards int
	// EventLoop has no effect.
	//
	// Deprecated: every server runs on the event loop.
	EventLoop bool
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Catalog == nil {
		c.Catalog = videostore.DefaultCatalog()
	}
	if len(c.Networks) == 0 {
		c.Networks = []string{"wifi", "lte"}
	}
	if c.ReplicasPerNetwork == 0 {
		c.ReplicasPerNetwork = 2
	}
	if len(c.Secret) == 0 {
		c.Secret = []byte("msplayer-emulated-origin-secret")
	}
	if c.TokenTTL == 0 {
		c.TokenTTL = TokenTTL
	}
	if c.Shards == 0 {
		c.Shards = 4
	}
	return c
}

// Cluster is a running emulated YouTube deployment. Its instance table
// is split into shards — each shard owns the liveness map and deploy
// list of the instances hashed into it, under its own mutex — so the
// per-bootstrap liveReplicas lookups and kill/teardown sweeps of a
// population-scale fleet do not serialize on one cluster-wide lock.
// Reads that merge across shards (Loads, Drain, Close) re-order the
// per-shard books by global deployment sequence, so sharding never
// shows up in reports.
type Cluster struct {
	cfg      ClusterConfig
	net      *netem.Network
	resolver *dnsx.Resolver

	shards   []*clusterShard
	deployMu sync.Mutex              // orders start() calls (Deploy setup vs later Restarts)
	deployed int                     // instances started so far; guarded by deployMu
	proxies  map[string]string       // network -> proxy addr; immutable after Deploy
	byNet    map[string][]string     // network -> deployed video server addrs; immutable after Deploy
	handlers map[string]http.Handler // addr -> handler, for Restart; immutable after Deploy
	networks map[string]string       // addr -> network, for Restart; immutable after Deploy
}

// clusterShard owns a subset of the cluster's instances: their liveness
// map (addr -> live instance) and the shard-local deploy list.
type clusterShard struct {
	mu      sync.Mutex
	servers map[string]*serverInstance
	all     []*serverInstance
}

type serverInstance struct {
	addr    string
	network string
	seq     int // global deployment order, for merged snapshots
	srv     *httpx.Server
	load    serverLoad
}

// serverLoad is the per-server request accounting behind Cluster.Loads.
// Mutations ride the httpx request lifecycle hooks, which fire in the
// server's connection-machine clock callbacks: under the deterministic
// teardown pipeline every increment and decrement lands at a
// deterministic emulated instant, so totals (and the Aborted
// disposition) are exact per seed once the cluster has drained.
type serverLoad struct {
	mu       sync.Mutex
	inFlight int
	peak     int
	total    int64
	bytes    int64
	aborted  int64
}

func (l *serverLoad) start(*http.Request) {
	l.mu.Lock()
	l.inFlight++
	l.total++
	if l.inFlight > l.peak {
		l.peak = l.inFlight
	}
	l.mu.Unlock()
}

func (l *serverLoad) done(_ *http.Request, bodyBytes int64, aborted bool) {
	l.mu.Lock()
	l.inFlight--
	l.bytes += bodyBytes
	if aborted {
		l.aborted++
	}
	l.mu.Unlock()
}

// ServerLoad is a snapshot of one server's request accounting.
type ServerLoad struct {
	// Addr and Network identify the server.
	Addr    string
	Network string
	// InFlight is the number of requests currently being handled. After
	// Cluster.Drain it is always zero.
	InFlight int
	// Peak is the maximum observed concurrent in-flight count. Note that
	// requests whose emulated service intervals merely touch at a
	// boundary instant may or may not be counted as concurrent, so Peak
	// is a diagnostic rather than a deterministic metric.
	Peak int
	// Total counts every request the server has started handling.
	Total int64
	// Bytes counts the response body bytes produced across requests,
	// including the partial bodies of aborted requests (exact up to the
	// deterministic abort instant).
	Bytes int64
	// Aborted counts requests with the Aborted disposition: the response
	// never reached the client intact because the connection failed
	// mid-response — session teardown, interface loss, or a server kill.
	// Completed minus aborted request work is Total - Aborted.
	Aborted int64
}

// Deploy builds and starts a cluster on n.
func Deploy(n *netem.Network, cfg ClusterConfig) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:      cfg,
		net:      n,
		resolver: dnsx.NewResolver(),
		shards:   make([]*clusterShard, cfg.Shards),
		proxies:  make(map[string]string),
		byNet:    make(map[string][]string),
		handlers: make(map[string]http.Handler),
		networks: make(map[string]string),
	}
	for i := range c.shards {
		c.shards[i] = &clusterShard{servers: make(map[string]*serverInstance)}
	}
	for _, network := range cfg.Networks {
		proxyAddr := fmt.Sprintf("www.youtube.%s.test:443", network)
		var replicas []string
		for i := 1; i <= cfg.ReplicasPerNetwork; i++ {
			replicas = append(replicas, fmt.Sprintf("video%d.youtube.%s.test:443", i, network))
		}
		c.byNet[network] = replicas
		c.proxies[network] = proxyAddr

		network := network // capture
		proxy := NewWebProxy(network, cfg.Catalog, func() []string { return c.liveReplicas(network) },
			cfg.Secret, cfg.TokenTTL, n.Clock())
		if err := c.start(proxyAddr, network, proxy.Handler()); err != nil {
			c.Close()
			return nil, err
		}
		for _, addr := range replicas {
			vs := NewVideoServer(addr, network, cfg.Catalog, cfg.Secret, n.Clock(), cfg.Throttle)
			if err := c.start(addr, network, vs.Handler()); err != nil {
				c.Close()
				return nil, err
			}
		}
		c.resolver.Register(network, WebProxyName, []string{proxyAddr})
		c.resolver.Register(network, VideoServersName, replicas)
	}
	return c, nil
}

// shardFor maps a server address onto its owning shard (FNV-1a).
func (c *Cluster) shardFor(addr string) *clusterShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= prime64
	}
	return c.shards[h%uint64(len(c.shards))]
}

// snapshot gathers every instance ever started across the shards and
// restores global deployment order, so merged views (Loads, Drain,
// Close) are independent of how addresses hashed into shards.
func (c *Cluster) snapshot() []*serverInstance {
	var insts []*serverInstance
	for _, sh := range c.shards {
		sh.mu.Lock()
		insts = append(insts, sh.all...)
		sh.mu.Unlock()
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i].seq < insts[j].seq })
	return insts
}

func (c *Cluster) start(addr, network string, h http.Handler) error {
	inner, err := c.net.Listen(addr, c.cfg.ServerDelay)
	if err != nil {
		return fmt.Errorf("origin: listen %s: %w", addr, err)
	}
	c.deployMu.Lock()
	inst := &serverInstance{addr: addr, network: network, seq: c.deployed}
	c.deployed++
	c.handlers[addr] = h
	c.networks[addr] = network
	c.deployMu.Unlock()
	// httpx.Serve runs the whole server side — handshake processing,
	// request reads, response writes, Trickle pauses — as clock-driven
	// connection machines, keeping the virtual clock's accounting exact.
	// The request lifecycle hooks feed the instance's load accounting
	// (including the Aborted disposition and body byte attribution), so
	// per-server utilisation is observable (Cluster.Loads) and exact
	// under population-scale concurrent fleets.
	inst.srv = httpx.Serve(c.net.Clock(), inner, h, c.cfg.Handshake,
		httpx.WithRequestHooks(inst.load.start, inst.load.done))
	sh := c.shardFor(addr)
	sh.mu.Lock()
	sh.servers[addr] = inst
	sh.all = append(sh.all, inst)
	sh.mu.Unlock()
	return nil
}

// Loads snapshots per-server request accounting, merging the per-shard
// books back into deployment order. Killed servers stay in the snapshot
// with their final totals.
func (c *Cluster) Loads() []ServerLoad {
	insts := c.snapshot()
	out := make([]ServerLoad, 0, len(insts))
	for _, inst := range insts {
		inst.load.mu.Lock()
		out = append(out, ServerLoad{
			Addr:     inst.addr,
			Network:  inst.network,
			InFlight: inst.load.inFlight,
			Peak:     inst.load.peak,
			Total:    inst.load.total,
			Bytes:    inst.load.bytes,
			Aborted:  inst.load.aborted,
		})
		inst.load.mu.Unlock()
	}
	return out
}

// Drain drives the emulation clock through its driver p until every
// server's connection machines have finished. Call it after every
// client is gone or shut down — e.g. after a fleet's sessions have torn
// down their transports — and before sampling Loads: a true return
// guarantees InFlight is zero everywhere and every request's
// disposition has been recorded, so one Loads call observes final,
// exact books. Returns false when the emulation clock stopped, or ran
// out of events, before the books closed.
func (c *Cluster) Drain(p *netem.Participant) bool {
	settled := true
	for _, inst := range c.snapshot() {
		if !inst.srv.Drain(p) {
			settled = false
		}
	}
	return settled
}

// liveReplicas returns the not-killed video servers of a network,
// preferred order preserved. The per-network address list is immutable
// after Deploy; only the per-address liveness check takes the owning
// shard's lock, so concurrent bootstraps spread across shards instead
// of serializing on one cluster mutex.
func (c *Cluster) liveReplicas(network string) []string {
	var live []string
	for _, addr := range c.byNet[network] {
		sh := c.shardFor(addr)
		sh.mu.Lock()
		_, ok := sh.servers[addr]
		sh.mu.Unlock()
		if ok {
			live = append(live, addr)
		}
	}
	return live
}

// Resolver returns the cluster's per-network DNS views.
func (c *Cluster) Resolver() *dnsx.Resolver { return c.resolver }

// Secret returns the token-signing secret, so co-operating tiers (edge
// caches) can validate client tokens and mint backhaul fill tokens.
func (c *Cluster) Secret() []byte { return c.cfg.Secret }

// Catalog returns the deployed video catalog.
func (c *Cluster) Catalog() *videostore.Catalog { return c.cfg.Catalog }

// TokenTTL returns the effective access-token validity.
func (c *Cluster) TokenTTL() time.Duration { return c.cfg.TokenTTL }

// ProxyAddr returns the web proxy address for a network.
func (c *Cluster) ProxyAddr(network string) (string, error) {
	addr, ok := c.proxies[network]
	if !ok {
		return "", fmt.Errorf("origin: no proxy for network %q", network)
	}
	return addr, nil
}

// VideoServerAddrs returns the live video server addresses of a network.
func (c *Cluster) VideoServerAddrs(network string) []string {
	return c.liveReplicas(network)
}

// Kill shuts down the server at addr, aborting its connections with
// netem.ErrServerDown. Subsequent watch responses omit the replica.
func (c *Cluster) Kill(addr string) error {
	sh := c.shardFor(addr)
	sh.mu.Lock()
	inst, ok := sh.servers[addr]
	if ok {
		delete(sh.servers, addr)
	}
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("origin: unknown server %q", addr)
	}
	inst.srv.Close()
	return nil
}

// Restart re-deploys a previously killed server at addr: a fresh
// listener on the same address, a fresh httpx server over the original
// handler, and a fresh accounting instance appended to the deployment
// sequence (the killed instance keeps its final books in Loads, so a
// crash/recovery cycle is visible as two rows). The replica re-enters
// liveReplicas — and therefore subsequent watch responses — at the
// instant Restart runs. Safe to call from a netem.Timer callback: the
// listen and accept-loop spawn never park.
func (c *Cluster) Restart(addr string) error {
	c.deployMu.Lock()
	h, ok := c.handlers[addr]
	network := c.networks[addr]
	c.deployMu.Unlock()
	if !ok {
		return fmt.Errorf("origin: server %q was never deployed", addr)
	}
	sh := c.shardFor(addr)
	sh.mu.Lock()
	_, live := sh.servers[addr]
	sh.mu.Unlock()
	if live {
		return fmt.Errorf("origin: server %q is already running", addr)
	}
	return c.start(addr, network, h)
}

// Alive reports whether the server at addr is currently live (deployed
// and not killed). Safe to call from a netem.Timer callback: it never
// parks.
func (c *Cluster) Alive(addr string) bool {
	sh := c.shardFor(addr)
	sh.mu.Lock()
	_, live := sh.servers[addr]
	sh.mu.Unlock()
	return live
}

// Blackhole switches the wedged-process fault of the live server at
// addr: on, it keeps accepting connections and reading requests but
// never responds (see httpx.Server.SetBlackhole). Unlike Kill the
// replica stays in liveReplicas — clients discover the fault only by
// request deadline, which is the point.
func (c *Cluster) Blackhole(addr string, on bool) error {
	sh := c.shardFor(addr)
	sh.mu.Lock()
	inst, ok := sh.servers[addr]
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("origin: unknown server %q", addr)
	}
	inst.srv.SetBlackhole(on)
	return nil
}

// Close shuts down every server in the cluster, in deployment order:
// teardown is part of the deterministic model too, so the close sweep
// must not run in map-iteration order.
func (c *Cluster) Close() {
	var insts []*serverInstance
	for _, sh := range c.shards {
		sh.mu.Lock()
		for _, inst := range sh.all {
			if _, live := sh.servers[inst.addr]; live {
				insts = append(insts, inst)
			}
		}
		sh.servers = make(map[string]*serverInstance)
		sh.mu.Unlock()
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i].seq < insts[j].seq })
	for _, inst := range insts {
		inst.srv.Close()
	}
}

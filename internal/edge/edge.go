package edge

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/handshake"
	"repro/internal/httpx"
	"repro/internal/netem"
	"repro/internal/netem/trace"
	"repro/internal/origin"
	"repro/internal/videostore"
)

// Network attaches an edge cache to one access network: the cache
// listens at edge<name>.youtube.<network>.test:443 in that network and
// fills misses from the named upstream origin replica.
type Network struct {
	// Name is the access network ("wifi", "lte").
	Name string
	// Upstream is the origin video-server address fills fetch from.
	Upstream string
}

// Backhaul describes the edge-to-origin link. It is deliberately clean
// — constant rate, no jitter, no loss — which is both realistic for a
// provisioned backhaul and what keeps concurrent fills deterministic
// (see doc.go).
type Backhaul struct {
	// RateMbps is the link rate (default 200 Mb/s).
	RateMbps float64
	// Delay is the one-way propagation delay (default 4 ms).
	Delay time.Duration
	// Shape optionally transforms the constant base rate into a
	// time-varying one — the fault engine compiles backhaul-degradation
	// windows into it at deploy time, so a brown-out is part of the
	// link's deterministic timetable rather than a runtime mutation.
	Shape func(trace.Rate) trace.Rate
}

func (b Backhaul) withDefaults() Backhaul {
	if b.RateMbps == 0 {
		b.RateMbps = 200
	}
	if b.Delay == 0 {
		b.Delay = 4 * time.Millisecond
	}
	return b
}

// Config describes one edge cache deployment.
type Config struct {
	// Name labels the edge ("edge1") and prefixes its listener names.
	Name string
	// Networks are the access networks the edge serves, each with its
	// fill upstream.
	Networks []Network
	// ByteBudget bounds the store; every resident page charges one full
	// PageSize against it (default 8 MiB).
	ByteBudget int64
	// PageSize is the cache page granularity (default 64 KiB).
	PageSize int64
	// Policy is PolicyLRU (default) or PolicyLFU.
	Policy string
	// Stampede disables single-flight fill coalescing, reproducing
	// cache-stampede storms: every concurrent miss fetches upstream.
	Stampede bool
	// Catalog is the served content catalog (for sizes and formats).
	Catalog *videostore.Catalog
	// Secret verifies client tokens and signs backhaul fill tokens;
	// it must match the origin cluster's.
	Secret []byte
	// TokenTTL is the fill-token validity (default origin.TokenTTL).
	TokenTTL time.Duration
	// Handshake sets the edge server's Δ₁/Δ₂ processing delays.
	Handshake handshake.Params
	// Backhaul shapes the edge-to-origin link.
	Backhaul Backhaul
}

// Stats is one edge's exact accounting, sampled after Drain.
type Stats struct {
	// Name and Policy identify the edge in reports.
	Name   string
	Policy string
	// Hits counts page requests served from a previously filled page;
	// Misses counts the rest (fillers, coalesced waiters, stampeders).
	Hits, Misses int64
	// Fills counts completed upstream fetches; with single-flight
	// coalescing and no evictions it equals the distinct pages touched.
	Fills int64
	// Evictions counts pages dropped to fit the byte budget.
	Evictions int64
	// Pages and UsedBytes describe the final resident set.
	Pages     int64
	UsedBytes int64
	// ServedBytes counts body bytes written toward clients;
	// BackhaulBytes counts bytes fetched from the origin.
	ServedBytes   int64
	BackhaulBytes int64
}

// HitRatio is hits over page requests.
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a running edge cache: one store, one backhaul interface,
// and one httpx server per fronted access network. The store pointer
// is atomic because a cold Restart swaps in a wiped store while
// stragglers of the previous incarnation (handlers finishing a
// backhaul fill that outlived the outage abort) may still read it.
type Cache struct {
	name     string
	n        *netem.Network
	cfg      Config // post-defaults, for Restart
	clock    *netem.Clock
	catalog  *videostore.Catalog
	tokens   *origin.TokenMAC // verifies client tokens, signs fill tokens
	xEdge    []string         // the X-Edge header value, shared by every response
	tokenTTL time.Duration
	policy   string
	pageSize int64
	store    atomic.Pointer[store]
	backhaul *netem.Interface
	addrs    map[string]string // network -> listener addr; immutable after Deploy

	mu   sync.Mutex
	srvs []*httpx.Server // every incarnation's servers, deploy order
	old  []*store        // stores retired by Restart; their books still count
}

// Deploy builds and starts an edge cache on n.
func Deploy(n *netem.Network, cfg Config) (*Cache, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("edge: config needs a name")
	}
	if len(cfg.Networks) == 0 {
		return nil, fmt.Errorf("edge: %s fronts no networks", cfg.Name)
	}
	if cfg.Catalog == nil {
		cfg.Catalog = videostore.DefaultCatalog()
	}
	if cfg.ByteBudget == 0 {
		cfg.ByteBudget = 8 << 20
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = 64 << 10
	}
	switch cfg.Policy {
	case "":
		cfg.Policy = PolicyLRU
	case PolicyLRU, PolicyLFU:
	default:
		return nil, fmt.Errorf("edge: unknown policy %q", cfg.Policy)
	}
	if cfg.TokenTTL == 0 {
		cfg.TokenTTL = origin.TokenTTL
	}
	bh := cfg.Backhaul.withDefaults()
	cfg.Backhaul = bh
	clock := n.Clock()
	e := &Cache{
		name:     cfg.Name,
		n:        n,
		cfg:      cfg,
		clock:    clock,
		catalog:  cfg.Catalog,
		tokens:   origin.NewTokenMAC(cfg.Secret),
		xEdge:    []string{cfg.Name},
		tokenTTL: cfg.TokenTTL,
		policy:   cfg.Policy,
		pageSize: cfg.PageSize,
		addrs:    make(map[string]string),
	}
	e.store.Store(newStore(clock, cfg.ByteBudget, cfg.PageSize, cfg.Policy, cfg.Stampede))
	link := netem.LinkParams{Rate: netem.Mbps(bh.RateMbps), Delay: bh.Delay, SlowStart: true}
	if bh.Shape != nil {
		base := link.Rate
		link.Trace = bh.Shape(trace.RateFunc(func(time.Time) float64 { return base }))
	}
	e.backhaul = n.NewInterface(cfg.Name+"-backhaul", link, link)
	for _, nw := range cfg.Networks {
		if nw.Upstream == "" {
			e.Close()
			return nil, fmt.Errorf("edge: %s has no upstream in network %q", cfg.Name, nw.Name)
		}
	}
	if err := e.listen(); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// listen starts one httpx server per fronted network, registering the
// edge's addresses. Called at Deploy and again by Restart (the outage
// deregistered them).
func (e *Cache) listen() error {
	for _, nw := range e.cfg.Networks {
		addr := fmt.Sprintf("%s.youtube.%s.test:443", e.name, nw.Name)
		l, err := e.n.Listen(addr, 0)
		if err != nil {
			return fmt.Errorf("edge: listen %s: %w", addr, err)
		}
		e.addrs[nw.Name] = addr
		h := &netHandler{e: e, network: nw.Name}
		srv := httpx.Serve(e.clock, l, h, e.cfg.Handshake)
		e.mu.Lock()
		e.srvs = append(e.srvs, srv)
		e.mu.Unlock()
	}
	return nil
}

// Outage crashes the edge at the current instant: every listener
// closes, established connections abort with netem.ErrServerDown and
// new dials fail, while the store and its books stay frozen. Safe to
// call from a netem.Timer callback — nothing here parks.
func (e *Cache) Outage() {
	e.mu.Lock()
	srvs := append([]*httpx.Server(nil), e.srvs...)
	e.mu.Unlock()
	for _, srv := range srvs {
		srv.Close()
	}
}

// Restart cold-restarts an outaged edge: fresh listeners on the same
// addresses over a wiped store. Resident pages are gone, so the first
// request wave after recovery re-fills the working set — a re-fill
// stampede, or a coalesced re-warm under single-flight. Books of
// earlier incarnations keep counting in Stats; only the resident set
// resets. Safe to call from a netem.Timer callback.
func (e *Cache) Restart() error {
	old := e.store.Swap(newStore(e.clock, e.cfg.ByteBudget, e.cfg.PageSize, e.policy, e.cfg.Stampede))
	e.mu.Lock()
	e.old = append(e.old, old)
	e.mu.Unlock()
	return e.listen()
}

// Name returns the edge's label.
func (e *Cache) Name() string { return e.name }

// Addr returns the edge's listener address in a network ("" if the
// edge does not front it).
func (e *Cache) Addr(network string) string { return e.addrs[network] }

// Stats snapshots the edge's books. Exact after Drain. Counters
// accumulate across cold restarts (the traffic happened, whichever
// incarnation served it); the resident set is the current store's —
// pages lost to a crash are not evictions.
func (e *Cache) Stats() Stats {
	hits, misses, fills, evictions, resident, served, backhaul, used := e.store.Load().stats()
	e.mu.Lock()
	for _, s := range e.old {
		h, m, f, ev, _, sv, bh, _ := s.stats()
		hits += h
		misses += m
		fills += f
		evictions += ev
		served += sv
		backhaul += bh
	}
	e.mu.Unlock()
	return Stats{
		Name: e.name, Policy: e.policy,
		Hits: hits, Misses: misses, Fills: fills, Evictions: evictions,
		Pages: resident, UsedBytes: used,
		ServedBytes: served, BackhaulBytes: backhaul,
	}
}

// Drain drives the clock through its driver p until the edge's
// connection machines have finished, in deploy order. After a true
// return the books are final.
func (e *Cache) Drain(p *netem.Participant) bool {
	e.mu.Lock()
	srvs := append([]*httpx.Server(nil), e.srvs...)
	e.mu.Unlock()
	settled := true
	for _, srv := range srvs {
		if !srv.Drain(p) {
			settled = false
		}
	}
	return settled
}

// Close shuts the edge's servers down in deploy order, aborting their
// connections.
func (e *Cache) Close() {
	e.mu.Lock()
	srvs := append([]*httpx.Server(nil), e.srvs...)
	e.mu.Unlock()
	for _, srv := range srvs {
		srv.Close()
	}
}

// netHandler serves one access network's playback requests. Fills are
// not routed through the handler's own network: the upstream replica
// is a pure function of the page key (see fillSource).
type netHandler struct {
	e       *Cache
	network string
}

// ServeHTTP routes the edge's one path, /videoplayback, and answers
// every other with 404, as the origin's video servers do.
func (h *netHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/videoplayback" {
		http.NotFound(w, r)
		return
	}
	h.handlePlayback(w, r)
}

// handlePlayback answers GET /videoplayback exactly like an origin
// video server — same query contract, same token checks, same header
// shape — but from the edge store, filling misses over the backhaul.
// Only the plain closed single-range GETs the players send are
// supported; anything else is a 501.
func (h *netHandler) handlePlayback(w http.ResponseWriter, r *http.Request) {
	e := h.e
	q := origin.ParsePlaybackQuery(r.URL.RawQuery)
	v, err := e.catalog.Get(q.V)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if q.Net != h.network {
		http.Error(w, fmt.Sprintf("edge: token network %q not valid on %q", q.Net, h.network), http.StatusForbidden)
		return
	}
	if err := e.tokens.Verify(q.V, h.network, q.Token, q.Expire, e.clock.Now()); err != nil {
		http.Error(w, err.Error(), http.StatusForbidden)
		return
	}
	itag, err := strconv.Atoi(q.Itag)
	if err != nil {
		http.Error(w, "edge: bad itag", http.StatusBadRequest)
		return
	}
	f, err := v.Format(itag)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	size := v.Size(f)
	if r.Method != http.MethodGet {
		http.Error(w, "edge: only GET is served", http.StatusNotImplemented)
		return
	}
	from, to, ok := origin.ParsePlainRange(r.Header.Get("Range"))
	if !ok {
		http.Error(w, "edge: only plain single-range GETs are served", http.StatusNotImplemented)
		return
	}
	if to >= size {
		http.Error(w, "edge: range beyond content", http.StatusRequestedRangeNotSatisfiable)
		return
	}
	hw := w.Header()
	origin.SetRangeHead(hw, from, to, size)
	hw["X-Edge"] = e.xEdge
	w.WriteHeader(http.StatusPartialContent)
	p := &playback{e: e, w: w, sw: w.(origin.StableWriter), video: q.V, itag: itag, size: size, off: from, to: to}
	p.next = p.step
	httpx.After(w, p.next)
}

// playback is one /videoplayback body in flight. It streams page by
// page, each page taken in a continuation (httpx.After) that runs once
// the body before it is on the wire — the instant a blocking server's
// write loop would have asked for it: a hit is written at once, a miss
// parks the continuation's resume on the page's flight (opening and
// filling it when there is none) and writes when the flight wakes it.
// Pages go out through the stable zero-copy path in the origin's 32 KB
// strides; page buffers are immutable and never recycled, so the
// borrowed views satisfy WriteStable's contract (doc.go, ownership).
type playback struct {
	e       *Cache
	w       http.ResponseWriter
	sw      origin.StableWriter
	video   string
	itag    int
	size    int64
	off, to int64   // next body byte to write, last body byte
	served  int64   // body bytes booked to the store's served count
	f       *flight // the flight the next page comes from, while parked
	next    func(int64, error, func())
}

// step is the body's continuation. It books the bytes the writes so far
// put on the wire — written is what a blocking write loop's calls would
// have returned, short when the connection failed — and, unless the
// connection failed or the range is done, writes the next page.
func (p *playback) step(written int64, err error, resume func()) {
	if d := written - p.served; d > 0 {
		p.e.store.Load().addServed(d)
		p.served = written
	}
	if err != nil || p.off > p.to {
		resume()
		return
	}
	pg := p.off / p.e.pageSize
	if f := p.f; f != nil {
		p.f = nil
		view, ferr := f.PageView()
		if ferr != nil {
			resume() // the fill failed: the response ends short
			return
		}
		p.write(pg, view)
	} else {
		view, f := p.e.PageView(p.video, p.itag, p.size, pg, resume)
		if f != nil {
			p.f = f
			httpx.After(p.w, p.next)
			return // the flight resumes us
		}
		p.write(pg, view)
	}
	httpx.After(p.w, p.next)
	resume()
}

// write writes page pg's overlap with the rest of the range.
func (p *playback) write(pg int64, page []byte) {
	pstart := pg * p.e.pageSize
	n := min(pstart+int64(len(page))-1, p.to) - p.off + 1
	view := page[p.off-pstart : p.off-pstart+n]
	for len(view) > 0 {
		k := min(len(view), origin.RangeChunk)
		p.sw.WriteStable(view[:k])
		view = view[k:]
	}
	p.off += n
}

// PageView resolves one page request at the caller's instant. On a hit
// — or for a page that landed at this very instant — it returns a
// borrowed view of the immutable edge-owned page buffer: serve it or
// copy it, never retain it (registered as a detlint borrowck producer).
// Otherwise it parks wake on the page's flight, opening the flight and
// starting its fill over the backhaul when there is none, and returns
// the flight; once woken, the caller takes the bytes from its PageView.
func (e *Cache) PageView(video string, itag int, size, pg int64, wake func()) ([]byte, *flight) {
	key := pageKey{video: video, itag: itag, page: pg}
	s := e.store.Load()
	view, f, open := s.acquire(key, wake)
	if open {
		pstart := pg * e.pageSize
		e.fill(s, key, f, pstart, min(e.pageSize, size-pstart))
	}
	return view, f
}

// fillSource picks the origin replica one page fills from: an FNV-1a
// hash of the page key over the fronted networks. The single-flight
// opener used to fill from its own listener's upstream, which made the
// per-origin request books depend on which same-instant miss won the
// store mutex — real multicore scheduler freedom, and the one report
// surface that could differ between runs (or engines) at populations
// where misses from different networks tie. Keying the choice to the
// page makes fill attribution a pure function of content, never of
// arrival order; the replicas are wire-identical, so the pick spreads
// backhaul load without biasing it.
func (e *Cache) fillSource(key pageKey) Network {
	nws := e.cfg.Networks
	if len(nws) == 1 {
		return nws[0]
	}
	h := uint64(14695981039346656037)
	for _, b := range []byte(key.video) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	h = (h ^ uint64(key.itag)) * 1099511628211
	h = (h ^ uint64(key.page)) * 1099511628211
	return nws[h%uint64(len(nws))]
}

// fill fetches one page-aligned range from the page's fill-source
// origin replica over the backhaul and completes the page's flight with
// it: a fresh connection per fill, on a fresh EventTransport with its
// own loop, closed when the body is in. The bytes are copied out of the
// connection's views into an owned, never-recycled page buffer.
func (e *Cache) fill(s *store, key pageKey, f *flight, pstart, plen int64) {
	nw := e.fillSource(key)
	expire := e.clock.Now().Add(e.tokenTTL)
	info := origin.VideoInfo{
		VideoID: key.video,
		Network: nw.Name,
		Token:   e.tokens.Sign(key.video, expire, nw.Name),
		Expire:  expire.Unix(),
	}
	url := info.PlaybackURL(nw.Upstream, key.itag)
	tr := httpx.NewEventTransport(e.backhaul, e.clock, netem.NewLoop())
	tr.Loop().Do(func() {
		tr.GetRangeViews(url, pstart, pstart+plen-1, func(views [][]byte, release func(), err error) {
			var data []byte
			if err == nil {
				data = make([]byte, 0, plen)
				for _, v := range views {
					data = append(data, v...)
				}
				release()
			}
			tr.Shutdown(nil)
			s.complete(key, f, data, err)
		})
	})
}

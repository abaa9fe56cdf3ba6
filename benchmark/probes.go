package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	msplayer "repro"
	"repro/internal/core"
	"repro/internal/core/estimator"
	"repro/internal/edge"
	"repro/internal/fleet"
	"repro/internal/handshake"
	"repro/internal/httpx"
	"repro/internal/netem"
	"repro/internal/netem/trace"
	"repro/internal/origin"
	"repro/internal/stats"
	"repro/internal/videostore"
)

// The probe suite times each layer's public functions in isolation:
// fixed iteration counts, a handful of rounds each, the median round
// reported as ns/op and allocs/op. It measures every layer from
// outside, through the evented surface ROADMAP item 1 keeps: no
// blocking Read/Write, no transient clock shims, no goroutine engine.

// probeRounds is how many times each probe repeats its timed region.
const probeRounds = 5

// probe is one entry of the suite; run stores its metrics in m.
type probe struct {
	name string
	run  func(m map[string]float64) error
}

var probes = []probe{
	{"netem.timer_fire", probeTimerFire},
	{"netem.timer_resched", probeTimerResched},
	{"netem.sleep_wake", probeSleepWake},
	{"netem.pipe", probePipe},
	{"netem.dial", probeDial},
	{"netem.loop_do", probeLoopDo},
	{"trace.lognormal", probeLognormal},
	{"httpx.requests", probeRequests},
	{"origin.tokens", probeTokens},
	{"origin.requests", probeOrigin},
	{"videostore.content", probeVideostore},
	{"edge.pages", probeEdge},
	{"core.scheduler", probeScheduler},
	{"core.buffer", probeBuffer},
	{"core.estimator", probeEstimator},
	{"core.solo_session", probeSoloSession},
	{"stats.digest", probeDigest},
	{"testbed.attach", probeTestbed},
	{"fleet.report", probeFleetReport},
}

// probesMain runs the suite and writes its metrics as a JSON object to
// -out, appending one span per probe to -trace.
func probesMain(args []string) error {
	fs := flag.NewFlagSet("probes", flag.ContinueOnError)
	out := fs.String("out", "", "result file")
	tracePath := fs.String("trace", "", "span file to append to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr := newTracer(fmt.Sprintf("probes/pid%d", os.Getpid()))
	root := tr.begin("probes", nil)
	m := map[string]float64{}
	for _, p := range probes {
		sp := tr.begin("probe:"+p.name, root)
		err := p.run(m)
		sp.end()
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	root.end()
	if *tracePath != "" {
		if err := tr.write(*tracePath); err != nil {
			return err
		}
	}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

// region times f and counts the heap allocations it made.
func region(f func()) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()), float64(after.Mallocs - before.Mallocs)
}

// perOp runs once probeRounds times and returns the median round's time
// and allocations, each divided by ops. once sets up its own state and
// returns the cost of its timed region only.
func perOp(ops float64, once func() (ns, allocs float64, err error)) (nsPerOp, allocsPerOp float64, err error) {
	var nss, as []float64
	for i := 0; i < probeRounds; i++ {
		ns, a, err := once()
		if err != nil {
			return 0, 0, err
		}
		nss = append(nss, ns/ops)
		as = append(as, a/ops)
	}
	sort.Float64s(nss)
	sort.Float64s(as)
	return stats.Median(nss), stats.Median(as), nil
}

// world is a bare emulation: a virtual clock, a network, and this
// goroutine registered as the one participant. Time is pinned while the
// probe runs and moves only inside advance, where timer and readiness
// callbacks execute.
type world struct {
	clock *netem.Clock
	net   *netem.Network
	drv   *netem.Participant
}

func newWorld() *world {
	clock := netem.NewVirtualClock()
	return &world{clock: clock, net: netem.NewNetwork(clock), drv: clock.Register()}
}

// advance parks the driver for d of virtual time; everything due in
// that span runs before it returns.
func (w *world) advance(d time.Duration) { w.drv.SleepUntil(w.clock.Now().Add(d)) }

func (w *world) close() {
	w.drv.Unregister()
	w.clock.Stop()
}

// sequential issues n requests as steps of loop, each from the previous
// one's completion, and returns how many succeeded. issue must call
// done exactly once with the request's outcome. Virtual time advances a
// second at a time until the last request completes (an hour-long jump
// would expire the origin's tokens under the requests that follow).
func (w *world) sequential(loop *netem.Loop, n int, issue func(i int, done func(ok bool))) (succeeded int) {
	i := 0
	var next func()
	next = func() {
		if i < n {
			i++
			issue(i-1, func(ok bool) {
				if ok {
					succeeded++
				}
				next()
			})
			return
		}
		i++ // past n: the last completion has run
	}
	loop.Do(next)
	for limit := 0; i <= n && limit < 24*3600; limit++ {
		w.advance(time.Second)
	}
	return succeeded
}

// accessLink is the testbed's WiFi link, the one most bytes of every
// workload cross.
func accessLink(seed int64) netem.LinkParams {
	return netem.LinkParams{Rate: netem.Mbps(9.5), Delay: 12500 * time.Microsecond, SlowStart: true, Seed: seed}
}

var probeHandshake = handshake.Params{Delta1: 4 * time.Millisecond, Delta2: 3 * time.Millisecond}

func probeTimerFire(m map[string]float64) error {
	// crowd_scale's shape: 50k deadlines resident at once, spread over
	// a 30 s window, fired in deadline order.
	const n = 50000
	ns, allocs, err := perOp(n, func() (float64, float64, error) {
		w := newWorld()
		defer w.close()
		fired := 0
		now := w.clock.Now()
		for i := 0; i < n; i++ {
			w.clock.NewTimer(func() { fired++ }).Schedule(now.Add(time.Duration(i+1) * 600 * time.Microsecond))
		}
		ns, allocs := region(func() { w.advance(31 * time.Second) })
		if fired != n {
			return 0, 0, fmt.Errorf("%d of %d timers fired", fired, n)
		}
		return ns, allocs, nil
	})
	m["netem.timer_fire_ns"], m["netem.timer_fire_allocs"] = ns, allocs
	return err
}

func probeTimerResched(m map[string]float64) error {
	// One cycle is what a request deadline guard does: arm, re-arm,
	// cancel.
	const n = 200000
	ns, _, err := perOp(n, func() (float64, float64, error) {
		w := newWorld()
		defer w.close()
		t := w.clock.NewTimer(func() {})
		now := w.clock.Now()
		ns, allocs := region(func() {
			for i := 0; i < n; i++ {
				t.Schedule(now.Add(1500 * time.Millisecond))
				t.Schedule(now.Add(1600 * time.Millisecond))
				t.Stop()
			}
		})
		return ns, allocs, nil
	})
	m["netem.timer_resched_ns"] = ns
	return err
}

func probeSleepWake(m map[string]float64) error {
	const n = 100000
	ns, _, err := perOp(n, func() (float64, float64, error) {
		w := newWorld()
		defer w.close()
		ns, allocs := region(func() {
			for i := 0; i < n; i++ {
				w.advance(time.Millisecond)
			}
		})
		return ns, allocs, nil
	})
	m["netem.sleep_wake_ns"] = ns
	return err
}

// pipeTransfer moves total bytes across one direction of a Pipe through
// the completion API and returns the cost of doing so.
func pipeTransfer(params netem.LinkParams, total int, stable bool) (ns, allocs float64, err error) {
	w := newWorld()
	defer w.close()
	client, server := netem.Pipe(w.clock, params, params, "client", "server")
	payload := make([]byte, 256<<10)
	sent, received := 0, 0
	var werr error
	pump := func() {
		for sent < total && werr == nil {
			chunk := payload[:min(len(payload), total-sent)]
			var n int
			if stable {
				n, werr = server.TryWriteStable(chunk)
			} else {
				n, werr = server.TryWrite(chunk)
			}
			sent += n
			if n < len(chunk) {
				return
			}
		}
	}
	server.OnWritable(pump)
	client.OnReadable(func() {
		for {
			view, err := client.ReadBuf()
			if err != nil || view == nil {
				return
			}
			received += len(view)
			client.Release(len(view))
		}
	})
	ns, allocs = region(func() {
		pump()
		w.advance(time.Hour)
	})
	if werr != nil || received != total {
		return 0, 0, fmt.Errorf("pipe moved %d of %d bytes (write error %v)", received, total, werr)
	}
	return ns, allocs, nil
}

func probePipe(m map[string]float64) error {
	const total = 16 << 20
	const kib, mib = total >> 10, total >> 20
	lossy := accessLink(3)
	lossy.Jitter, lossy.LossProb = 2*time.Millisecond, 0.01
	for _, p := range []struct {
		metric string
		params netem.LinkParams
		stable bool
	}{
		{"netem.pipe_copy_ns_per_kib", accessLink(1), false},
		{"netem.pipe_stable_ns_per_kib", accessLink(2), true},
		{"netem.pipe_lossy_ns_per_kib", lossy, false},
	} {
		ns, allocs, err := perOp(1, func() (float64, float64, error) { return pipeTransfer(p.params, total, p.stable) })
		if err != nil {
			return err
		}
		m[p.metric] = ns / kib
		if !p.stable && p.params.LossProb == 0 {
			m["netem.pipe_allocs_per_mib"] = allocs / mib
		}
	}
	return nil
}

func probeDial(m map[string]float64) error {
	const n = 20000
	ns, _, err := perOp(n, func() (float64, float64, error) {
		w := newWorld()
		defer w.close()
		l, err := w.net.Listen("server.test:443", 2*time.Millisecond)
		if err != nil {
			return 0, 0, err
		}
		defer l.Close()
		iface := w.net.NewInterface("wifi", accessLink(1), accessLink(2))
		connected := 0
		var derr error
		ns, allocs := region(func() {
			for i := 0; i < n && derr == nil; i++ {
				derr = iface.DialEvent("server.test:443", func(c *netem.Conn, err error) {
					if err != nil {
						derr = err
						return
					}
					connected++
					c.Close()
				})
			}
			w.advance(time.Second)
		})
		if derr != nil || connected != n {
			return 0, 0, fmt.Errorf("%d of %d dials connected (error %v)", connected, n, derr)
		}
		return ns, allocs, nil
	})
	m["netem.dial_ns"] = ns
	return err
}

func probeLoopDo(m map[string]float64) error {
	const n = 200000
	ns, _, err := perOp(n, func() (float64, float64, error) {
		loop := netem.NewLoop()
		steps := 0
		step := func() { steps++ }
		ns, allocs := region(func() {
			for i := 0; i < n; i++ {
				loop.Do(step)
			}
		})
		if steps != n {
			return 0, 0, fmt.Errorf("%d of %d steps ran", steps, n)
		}
		return ns, allocs, nil
	})
	m["netem.loop_do_ns"] = ns
	return err
}

var probeSink float64

func probeLognormal(m map[string]float64) error {
	const interval = 400 * time.Millisecond
	base := time.Unix(1_700_000_000, 0)
	const fresh = 5000
	ns, _, err := perOp(fresh, func() (float64, float64, error) {
		r := trace.Lognormal(trace.Constant(netem.Mbps(7)), 0.4, interval, 11)
		ns, allocs := region(func() {
			for i := 0; i < fresh; i++ {
				probeSink += r.RateAt(base.Add(time.Duration(i) * interval))
			}
		})
		return ns, allocs, nil
	})
	if err != nil {
		return err
	}
	m["trace.lognormal_fresh_ns"] = ns
	const hits = 2000000
	ns, _, err = perOp(hits, func() (float64, float64, error) {
		r := trace.Lognormal(trace.Constant(netem.Mbps(7)), 0.4, interval, 11)
		probeSink += r.RateAt(base)
		ns, allocs := region(func() {
			for i := 0; i < hits; i++ {
				probeSink += r.RateAt(base.Add(time.Duration(i&1023) * time.Microsecond))
			}
		})
		return ns, allocs, nil
	})
	m["trace.lognormal_hit_ns"] = ns
	return err
}

// httpWorld is a world with one evented range server and one client
// interface, the shape every fleet request has.
type httpWorld struct {
	*world
	srv   *httpx.Server
	iface *netem.Interface
	loop  *netem.Loop
	url   string
}

func newHTTPWorld() (*httpWorld, error) {
	w := newWorld()
	l, err := w.net.Listen("server.test:443", 2*time.Millisecond)
	if err != nil {
		w.close()
		return nil, err
	}
	content := make([]byte, 2<<20)
	type stableWriter interface {
		WriteStable([]byte) (int, error)
	}
	handler := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		var from, to int
		if _, err := fmt.Sscanf(r.Header.Get("Range"), "bytes=%d-%d", &from, &to); err != nil || from < 0 || to >= len(content) || to < from {
			http.Error(rw, "bad range", http.StatusRequestedRangeNotSatisfiable)
			return
		}
		rw.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", from, to, len(content)))
		rw.Header().Set("Content-Length", strconv.Itoa(to-from+1))
		rw.WriteHeader(http.StatusPartialContent)
		rw.(stableWriter).WriteStable(content[from : to+1])
	})
	return &httpWorld{
		world: w,
		srv:   httpx.Serve(w.clock, l, handler, probeHandshake, httpx.WithEventLoop()),
		iface: w.net.NewInterface("wifi", accessLink(1), accessLink(2)),
		loop:  netem.NewLoop(),
		url:   "http://server.test:443/video",
	}, nil
}

func (h *httpWorld) close() {
	h.srv.Close()
	h.world.close()
}

// rangeLoop issues n sequential range requests of size bytes and
// returns how many succeeded. transport returns the transport for
// request i; retire shuts that transport down once its request has
// completed.
func (h *httpWorld) rangeLoop(n int, size int64, transport func(i int) *httpx.EventTransport, retire bool) int {
	return h.sequential(h.loop, n, func(i int, done func(bool)) {
		et := transport(i)
		et.GetRangeViews(h.url, 0, size-1, func(_ [][]byte, release func(), err error) {
			if err == nil {
				release()
			}
			if retire {
				et.Shutdown(nil)
			}
			done(err == nil)
		})
	})
}

func probeRequests(m map[string]float64) error {
	// keepAlive times n requests of size bytes on one pooled connection
	// after a first, untimed request has dialled and shaken hands.
	keepAlive := func(n int, size int64, timeout time.Duration) (float64, float64, error) {
		return perOp(float64(n), func() (float64, float64, error) {
			h, err := newHTTPWorld()
			if err != nil {
				return 0, 0, err
			}
			defer h.close()
			et := httpx.NewEventTransport(h.iface, h.clock, h.loop)
			et.SetRequestTimeout(timeout)
			same := func(int) *httpx.EventTransport { return et }
			if h.rangeLoop(1, size, same, false) != 1 {
				return 0, 0, fmt.Errorf("warm-up request failed")
			}
			var ok int
			ns, allocs := region(func() { ok = h.rangeLoop(n, size, same, false) })
			et.Shutdown(nil)
			if ok != n {
				return 0, 0, fmt.Errorf("%d of %d requests succeeded", ok, n)
			}
			return ns, allocs, nil
		})
	}
	var err error
	if m["httpx.req_1k_ns"], m["httpx.req_1k_allocs"], err = keepAlive(4000, 1<<10, 0); err != nil {
		return err
	}
	if m["httpx.req_1m_ns_per_mib"], m["httpx.req_1m_allocs"], err = keepAlive(48, 1<<20, 0); err != nil {
		return err
	}
	if m["httpx.req_deadline_ns"], _, err = keepAlive(4000, 1<<10, 1500*time.Millisecond); err != nil {
		return err
	}

	const fresh = 2000
	m["httpx.req_fresh_ns"], _, err = perOp(fresh, func() (float64, float64, error) {
		h, err := newHTTPWorld()
		if err != nil {
			return 0, 0, err
		}
		defer h.close()
		var ok int
		ns, allocs := region(func() {
			ok = h.rangeLoop(fresh, 1<<10, func(int) *httpx.EventTransport {
				return httpx.NewEventTransport(h.iface, h.clock, h.loop)
			}, true)
		})
		if ok != fresh {
			return 0, 0, fmt.Errorf("%d of %d fresh requests succeeded", ok, fresh)
		}
		return ns, allocs, nil
	})
	if err != nil {
		return err
	}

	const aborted = 1000
	m["httpx.req_abort_ns"], _, err = perOp(aborted, func() (float64, float64, error) {
		h, err := newHTTPWorld()
		if err != nil {
			return 0, 0, err
		}
		defer h.close()
		h.srv.SetBlackhole(true)
		et := httpx.NewEventTransport(h.iface, h.clock, h.loop)
		et.SetRequestTimeout(1500 * time.Millisecond)
		var ok int
		ns, allocs := region(func() {
			ok = h.rangeLoop(aborted, 1<<10, func(int) *httpx.EventTransport { return et }, false)
		})
		et.Shutdown(nil)
		if ok != 0 {
			return 0, 0, fmt.Errorf("%d requests got through a blackholed server", ok)
		}
		return ns, allocs, nil
	})
	return err
}

func probeTokens(m map[string]float64) error {
	secret := []byte("msplayer-emulated-origin-secret")
	now := time.Unix(1_700_000_000, 0)
	expire := now.Add(time.Hour)
	expireUnix := strconv.FormatInt(expire.Unix(), 10)
	const n = 20000
	var token string
	ns, _, err := perOp(n, func() (float64, float64, error) {
		ns, allocs := region(func() {
			for i := 0; i < n; i++ {
				token = origin.SignToken(secret, "qjT4T2gU9sM", expire, "wifi")
			}
		})
		return ns, allocs, nil
	})
	if err != nil {
		return err
	}
	m["origin.token_sign_ns"] = ns
	ns, _, err = perOp(n, func() (float64, float64, error) {
		var verr error
		ns, allocs := region(func() {
			for i := 0; i < n && verr == nil; i++ {
				verr = origin.VerifyToken(secret, "qjT4T2gU9sM", "wifi", token, expireUnix, now)
			}
		})
		return ns, allocs, verr
	})
	m["origin.token_verify_ns"] = ns
	return err
}

// originWorld is a world with a deployed origin cluster (evented
// servers), a client on its WiFi network, and the watch response that
// client bootstrapped with.
type originWorld struct {
	*world
	cluster *origin.Cluster
	iface   *netem.Interface
	loop    *netem.Loop
	et      *httpx.EventTransport
	watch   string
	info    origin.VideoInfo
}

func newOriginWorld() (*originWorld, error) {
	w := newWorld()
	cluster, err := origin.Deploy(w.net, origin.ClusterConfig{
		Handshake:   probeHandshake,
		ServerDelay: 2 * time.Millisecond,
		EventLoop:   true,
	})
	if err != nil {
		w.close()
		return nil, err
	}
	o := &originWorld{world: w, cluster: cluster, loop: netem.NewLoop(),
		iface: w.net.NewInterface("wifi", accessLink(1), accessLink(2))}
	o.et = httpx.NewEventTransport(o.iface, w.clock, o.loop)
	proxy, err := cluster.ProxyAddr("wifi")
	if err != nil {
		o.close()
		return nil, err
	}
	o.watch = fmt.Sprintf("http://%s/watch?v=qjT4T2gU9sM", proxy)
	var body []byte
	o.loop.Do(func() {
		o.et.Get(o.watch, func(status int, b []byte, err error) {
			if err == nil && status == http.StatusOK {
				body = b
			}
		})
	})
	w.advance(time.Minute)
	if err := json.Unmarshal(body, &o.info); err != nil {
		o.close()
		return nil, fmt.Errorf("watch response: %w", err)
	}
	return o, nil
}

func (o *originWorld) close() {
	o.et.Shutdown(nil)
	o.cluster.Close()
	o.world.close()
}

func (o *originWorld) rangeRequests(url string, n int, span int64, offset func(i int) int64) int {
	return o.sequential(o.loop, n, func(i int, done func(bool)) {
		from := offset(i)
		o.et.GetRangeViews(url, from, from+span-1, func(_ [][]byte, release func(), err error) {
			if err == nil {
				release()
			}
			done(err == nil)
		})
	})
}

func probeOrigin(m map[string]float64) error {
	const watches = 2000
	ns, _, err := perOp(watches, func() (float64, float64, error) {
		o, err := newOriginWorld()
		if err != nil {
			return 0, 0, err
		}
		defer o.close()
		var ok int
		ns, allocs := region(func() {
			ok = o.sequential(o.loop, watches, func(_ int, done func(bool)) {
				o.et.Get(o.watch, func(status int, _ []byte, err error) { done(err == nil && status == http.StatusOK) })
			})
		})
		if ok != watches {
			return 0, 0, fmt.Errorf("%d of %d watch requests succeeded", ok, watches)
		}
		return ns, allocs, nil
	})
	if err != nil {
		return err
	}
	m["origin.watch_ns"] = ns

	const ranges, span = 200, 256 << 10
	ns, _, err = perOp(ranges, func() (float64, float64, error) {
		o, err := newOriginWorld()
		if err != nil {
			return 0, 0, err
		}
		defer o.close()
		url := o.info.PlaybackURL(o.info.VideoServers[0], 22)
		offset := func(i int) int64 { return int64(i%32) * span }
		if o.rangeRequests(url, 1, span, offset) != 1 {
			return 0, 0, fmt.Errorf("warm-up range failed")
		}
		var ok int
		ns, allocs := region(func() { ok = o.rangeRequests(url, ranges, span, offset) })
		if ok != ranges {
			return 0, 0, fmt.Errorf("%d of %d ranges succeeded", ok, ranges)
		}
		return ns, allocs, nil
	})
	m["origin.range_256k_ns"] = ns
	return err
}

var probeVideoSeq int

func probeVideostore(m map[string]float64) error {
	const window = 16 << 20 // the page cache's window per blob
	buf := make([]byte, window)
	ns, _, err := perOp(1, func() (float64, float64, error) {
		// A fresh ID gives a blob no earlier round has materialized.
		probeVideoSeq++
		v := &videostore.Video{ID: fmt.Sprintf("probe%06d", probeVideoSeq), Duration: time.Minute,
			Formats: []videostore.Format{videostore.HD720}}
		content := v.Content(videostore.HD720)
		var rerr error
		ns, allocs := region(func() { _, rerr = content.ReadAt(buf, 0) })
		return ns, allocs, rerr
	})
	if err != nil {
		return err
	}
	m["videostore.readat_cold_mib_per_s"] = float64(window>>20) / (ns / 1e9)

	const n = 1000000
	v := &videostore.Video{ID: "probewarm01", Duration: time.Minute, Formats: []videostore.Format{videostore.HD720}}
	content := v.Content(videostore.HD720)
	if _, err := content.ReadAt(buf, 0); err != nil {
		return err
	}
	ns, _, err = perOp(n, func() (float64, float64, error) {
		misses := 0
		ns, allocs := region(func() {
			for i := 0; i < n; i++ {
				if content.CachedSlice(int64(i&511)*(32<<10), 32<<10) == nil {
					misses++
				}
			}
		})
		if misses > 0 {
			return 0, 0, fmt.Errorf("%d cached slices missed", misses)
		}
		return ns, allocs, nil
	})
	m["videostore.cached_slice_ns"] = ns
	return err
}

func probeEdge(m map[string]float64) error {
	const n, page = 300, 64 << 10
	// run deploys an edge with the given byte budget in front of a fresh
	// origin and times n page-sized range requests at offset(i) after
	// warm untimed ones.
	run := func(budget int64, warm int, offset func(i int) int64) (float64, error) {
		ns, _, err := perOp(n, func() (float64, float64, error) {
			o, err := newOriginWorld()
			if err != nil {
				return 0, 0, err
			}
			defer o.close()
			e, err := edge.Deploy(o.net, edge.Config{
				Name: "edge1",
				Networks: []edge.Network{
					{Name: "wifi", Upstream: o.cluster.VideoServerAddrs("wifi")[0]},
					{Name: "lte", Upstream: o.cluster.VideoServerAddrs("lte")[0]},
				},
				ByteBudget: budget,
				Catalog:    o.cluster.Catalog(),
				Secret:     o.cluster.Secret(),
				TokenTTL:   o.cluster.TokenTTL(),
				Handshake:  probeHandshake,
			})
			if err != nil {
				return 0, 0, err
			}
			defer e.Close()
			url := o.info.PlaybackURL(e.Addr("wifi"), 22)
			if o.rangeRequests(url, warm, page, offset) != warm {
				return 0, 0, fmt.Errorf("warm-up through the edge failed")
			}
			var ok int
			ns, allocs := region(func() {
				ok = o.rangeRequests(url, n, page, func(i int) int64 { return offset(warm + i) })
			})
			if ok != n {
				return 0, 0, fmt.Errorf("%d of %d edge requests succeeded", ok, n)
			}
			return ns, allocs, nil
		})
		return ns, err
	}
	var err error
	if m["edge.hit_ns"], err = run(32<<20, 1, func(int) int64 { return 0 }); err != nil {
		return err
	}
	distinct := func(i int) int64 { return int64(i) * page }
	if m["edge.fill_ns"], err = run(64<<20, 1, distinct); err != nil {
		return err
	}
	// A 1 MiB budget holds 16 pages: once warm, every fill evicts.
	m["edge.evict_fill_ns"], err = run(1<<20, 32, distinct)
	return err
}

func probeScheduler(m map[string]float64) error {
	const n = 1000000
	ns, _, err := perOp(n, func() (float64, float64, error) {
		s := core.NewHarmonicScheduler(core.DefaultBaseChunk, core.DefaultDelta)
		var sum int64
		ns, allocs := region(func() {
			for i := 0; i < n; i++ {
				path := i & 1
				s.Observe(path, 256<<10, time.Duration(180+i%40)*time.Millisecond)
				sum += s.Size(path)
			}
		})
		probeSink += float64(sum)
		return ns, allocs, nil
	})
	m["core.sched_observe_size_ns"] = ns
	return err
}

func probeBuffer(m map[string]float64) error {
	// A full play of a long clip at exactly the playback rate: every
	// step delivers 100 ms of video and ticks the gate, so the buffer
	// cycles through ON/OFF refills the whole way.
	const n = 500000
	const bytesPerSec = 2_500_000 / 8
	ns, _, err := perOp(n, func() (float64, float64, error) {
		start := time.Unix(1_700_000_000, 0)
		b := core.NewPlayoutBuffer(core.BufferConfig{}, bytesPerSec, 24*time.Hour, start, nil)
		ns, allocs := region(func() {
			for i := 1; i <= n; i++ {
				now := start.Add(time.Duration(i) * 100 * time.Millisecond)
				b.Deliver(int64(i)*bytesPerSec/10, now)
				b.Tick(now)
			}
		})
		if _, done := b.PreBufferTime(); !done {
			return 0, 0, fmt.Errorf("buffer never finished pre-buffering")
		}
		return ns, allocs, nil
	})
	m["core.buffer_deliver_tick_ns"] = ns
	return err
}

func probeEstimator(m map[string]float64) error {
	const n = 2000000
	ns, _, err := perOp(n, func() (float64, float64, error) {
		e := estimator.NewHarmonic()
		ns, allocs := region(func() {
			for i := 0; i < n; i++ {
				e.Observe(1e6 + float64(i&255)*1e3)
			}
		})
		est, _ := e.Estimate()
		probeSink += est
		return ns, allocs, nil
	})
	m["core.estimator_observe_ns"] = ns
	return err
}

func probeSoloSession(m map[string]float64) error {
	// One MSPlayer session alone in a testbed: the paper's 40 s
	// pre-buffer over both paths with the harmonic scheduler.
	const n = 12
	ns, allocs, err := perOp(n, func() (float64, float64, error) {
		profile := msplayer.YouTubeProfile(5)
		profile.EventLoop = true
		tb, err := msplayer.NewTestbed(profile)
		if err != nil {
			return 0, 0, err
		}
		defer tb.Close()
		drv := tb.Clock().Register()
		defer drv.Unregister()
		loop := netem.NewLoop()
		finished := 0
		var serr error
		ns, allocs := region(func() {
			for i := 0; i < n && serr == nil; i++ {
				client := tb.NewClient(profile.WiFi, profile.LTE, int64(100+i))
				loop.Do(func() {
					_, serr = client.StreamEvented(loop, msplayer.SessionConfig{
						Scheduler:          msplayer.NewHarmonicScheduler(msplayer.DefaultBaseChunk, msplayer.DefaultDelta),
						Paths:              msplayer.BothPaths,
						StopAfterPreBuffer: true,
						Seed:               int64(100 + i),
					}, func(met *msplayer.Metrics, err error) {
						if err == nil && met.PreBufferDone {
							finished++
						}
					})
				})
				drv.SleepUntil(tb.Clock().Now().Add(3 * time.Minute))
			}
		})
		if serr != nil || finished != n {
			return 0, 0, fmt.Errorf("%d of %d solo sessions pre-buffered (error %v)", finished, n, serr)
		}
		return ns, allocs, nil
	})
	m["core.solo_session_ms"], m["core.solo_session_allocs"] = ns/1e6, allocs
	return err
}

func probeDigest(m map[string]float64) error {
	// Values come from a splitmix64 stream: the cost of Add depends on
	// nothing but the count, the cost of Quantile on the order.
	fill := func(d *stats.Digest, n int, seed uint64) {
		for i := 0; i < n; i++ {
			d.Add(float64(splitmix(seed, uint64(i))>>40) / 1e3)
		}
	}
	const adds = 200000
	ns, _, err := perOp(adds, func() (float64, float64, error) {
		d := stats.NewDigest(0)
		ns, allocs := region(func() { fill(d, adds, 1) })
		return ns, allocs, nil
	})
	if err != nil {
		return err
	}
	m["stats.digest_add_ns"] = ns
	const quantiles = 200
	ns, _, err = perOp(quantiles, func() (float64, float64, error) {
		d := stats.NewDigest(0)
		fill(d, 10000, 2)
		ns, allocs := region(func() {
			for i := 0; i < quantiles; i++ {
				probeSink += d.Quantile(0.99)
			}
		})
		return ns, allocs, nil
	})
	if err != nil {
		return err
	}
	m["stats.digest_quantile_ns"] = ns
	const merges = 200
	ns, _, err = perOp(merges, func() (float64, float64, error) {
		part := stats.NewDigest(0)
		fill(part, 1250, 3) // one edge_churn cohort's worth ×10
		d := stats.NewDigest(0)
		ns, allocs := region(func() {
			for i := 0; i < merges; i++ {
				d.Merge(part)
			}
		})
		return ns, allocs, nil
	})
	m["stats.digest_merge_ns"] = ns
	return err
}

func probeTestbed(m map[string]float64) error {
	profile := msplayer.TestbedProfile(9)
	profile.EventLoop = true
	const deploys = 20
	ns, _, err := perOp(deploys, func() (float64, float64, error) {
		var derr error
		ns, allocs := region(func() {
			for i := 0; i < deploys && derr == nil; i++ {
				var tb *msplayer.Testbed
				if tb, derr = msplayer.NewTestbed(profile); derr == nil {
					tb.Close()
				}
			}
		})
		return ns, allocs, derr
	})
	if err != nil {
		return err
	}
	m["testbed.new_close_ms"] = ns / 1e6
	const clients = 10000
	ns, _, err = perOp(clients, func() (float64, float64, error) {
		tb, err := msplayer.NewTestbed(profile)
		if err != nil {
			return 0, 0, err
		}
		defer tb.Close()
		ns, allocs := region(func() {
			for i := 0; i < clients; i++ {
				tb.NewClient(profile.WiFi, profile.LTE, int64(i))
			}
		})
		return ns, allocs, nil
	})
	m["testbed.new_client_us"] = ns / 1e3
	return err
}

func probeFleetReport(m map[string]float64) error {
	sc := crowdScale(1, 500)
	selectEventLoop(&sc)
	rep, err := fleet.Run(context.Background(), sc)
	if err != nil {
		return err
	}
	const n = 20
	ns, _, err := perOp(n, func() (float64, float64, error) {
		size := 0
		ns, allocs := region(func() {
			for i := 0; i < n; i++ {
				size += len(rep.String())
			}
		})
		probeSink += float64(size)
		return ns, allocs, nil
	})
	if err != nil {
		return err
	}
	m["fleet.report_render_us"] = ns / 1e3
	ns, _, err = perOp(n, func() (float64, float64, error) {
		var cerr error
		ns, allocs := region(func() {
			for i := 0; i < n && cerr == nil; i++ {
				cerr = fleet.CheckInvariants(rep)
			}
		})
		return ns, allocs, cerr
	})
	m["fleet.invariants_us"] = ns / 1e3
	return err
}

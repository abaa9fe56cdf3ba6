package httpx

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/handshake"
	"repro/internal/netem"
)

// refClient is the server trace's reference client: net/http's own
// request writer and response parser over one keep-alive connection,
// read and written through a blockingConn driven by the clock's driver p,
// after the emulated secure handshake. A nonzero timeout arms a clock
// timer per request that aborts the connection with ErrRequestTimeout.
type refClient struct {
	p       *netem.Participant
	iface   *netem.Interface
	addr    string
	timeout time.Duration

	conn *netem.Conn
	rw   *blockingConn
	br   *bufio.Reader
	dl   *netem.Timer
}

// do sends a bodyless request and reads the response head; the caller
// reads the body and hands the response to finish.
func (c *refClient) do(method, url string) (*http.Response, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return nil, err
	}
	if c.timeout > 0 {
		c.dl = c.p.Clock().NewTimer(func() {
			if c.conn != nil {
				c.conn.Abort(ErrRequestTimeout)
			}
		})
		c.dl.Schedule(c.p.Clock().Now().Add(c.timeout))
	}
	if c.conn == nil {
		conn, err := dialBlocking(c.p, c.iface, c.addr)
		if err != nil {
			return nil, c.fail(err)
		}
		c.conn, c.rw = conn, newBlockingConn(c.p, conn)
		c.br = bufio.NewReaderSize(c.rw, 16<<10)
		if err := clientHandshake(c.rw); err != nil {
			return nil, c.fail(fmt.Errorf("httpx: secure handshake with %s: %w", c.addr, err))
		}
	}
	if err := req.Write(c.rw); err != nil {
		return nil, c.fail(fmt.Errorf("httpx: writing request: %w", err))
	}
	resp, err := http.ReadResponse(c.br, req)
	if err != nil {
		return nil, c.fail(fmt.Errorf("httpx: reading response: %w", err))
	}
	return resp, nil
}

// finish ends an exchange: a cleanly read keep-alive response leaves
// the connection pooled; anything else retires it.
func (c *refClient) finish(resp *http.Response, err error) {
	if err != nil || resp.Close {
		c.fail(err)
		return
	}
	c.stopDeadline()
}

func (c *refClient) fail(err error) error {
	c.stopDeadline()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	return err
}

func (c *refClient) stopDeadline() {
	if c.dl != nil {
		c.dl.Stop()
		c.dl = nil
	}
}

// close closes the pooled connection.
func (c *refClient) close() { c.fail(nil) }

// blockingConn reads and writes a netem.Conn for the clock's driver p,
// which drives the clock between attempts: each Read or Write tries the
// completion API and, when it cannot make progress, runs the clock's
// events until one of the conn's readiness callbacks fires. Read copies
// each borrowed view out and releases it at once; flow control is
// charged when the view is borrowed, so the copy moves no instant.
type blockingConn struct {
	c      *netem.Conn
	p      *netem.Participant
	ready  bool   // a readiness callback fired since the last attempt
	unread []byte // arrived bytes copied out of their view, not yet read
	buf    []byte // unread's backing array, kept across views
}

func newBlockingConn(p *netem.Participant, c *netem.Conn) *blockingConn {
	b := &blockingConn{c: c, p: p}
	wake := func() { b.ready = true }
	c.OnReadable(wake)
	c.OnWritable(wake)
	return b
}

// attempt clears the ready flag before an attempt, so a callback firing
// during it is not lost.
func (b *blockingConn) attempt() { b.ready = false }

// wait drives the clock until a callback has fired since the last
// attempt.
func (b *blockingConn) wait() error {
	if !b.p.Await(func() bool { return b.ready }) {
		return net.ErrClosed
	}
	return nil
}

func (b *blockingConn) Read(p []byte) (int, error) {
	for len(b.unread) == 0 {
		b.attempt()
		view, err := b.c.ReadBuf()
		if err != nil {
			return 0, err
		}
		if view != nil {
			b.buf = append(b.buf[:0], view...)
			b.unread = b.buf
			b.c.Release(len(view))
		} else if err := b.wait(); err != nil {
			return 0, err
		}
	}
	n := copy(p, b.unread)
	b.unread = b.unread[n:]
	return n, nil
}

func (b *blockingConn) Write(p []byte) (int, error) {
	written := 0
	for {
		b.attempt()
		n, err := b.c.TryWrite(p[written:])
		written += n
		if err != nil || written == len(p) {
			return written, err
		}
		if err := b.wait(); err != nil {
			return written, err
		}
	}
}

// dialBlocking dials addr from iface and drives the clock through p
// until the dial completes.
func dialBlocking(p *netem.Participant, iface *netem.Interface, addr string) (*netem.Conn, error) {
	var conn *netem.Conn
	var derr error
	done := false
	if err := iface.DialEvent(addr, func(c *netem.Conn, err error) {
		conn, derr, done = c, err, true
	}); err != nil {
		return nil, err
	}
	if !p.Await(func() bool { return done }) {
		return nil, net.ErrClosed
	}
	return conn, derr
}

// clientHandshake plays the client side of the emulated secure
// handshake over rw, one message per Write, reading each reply's
// header and discarding its body.
func clientHandshake(rw io.ReadWriter) error {
	var hdr [handshake.HeaderLen]byte
	for _, leg := range handshake.ClientScript() {
		if _, err := rw.Write(leg.Send); err != nil {
			return fmt.Errorf("handshake: write msg %d: %w", leg.Send[0], err)
		}
		if _, err := io.ReadFull(rw, hdr[:]); err != nil {
			return fmt.Errorf("handshake: read header: %w", err)
		}
		size, err := handshake.ParseHeader(hdr[:], leg.Expect)
		if err != nil {
			return err
		}
		if _, err := io.CopyN(io.Discard, rw, int64(size)); err != nil {
			return fmt.Errorf("handshake: read body: %w", err)
		}
	}
	return nil
}

// serverTrace runs a fixed client workload against a server and returns
// a trace of everything observable: client-side response content and
// completion instants, server-side request hook records, and the
// abort/blackhole/drain milestones. It must equal, as a multiset — same
// bytes, same virtual instants — the trace the goroutine-per-connection
// engine produced, which is the byte-identity contract the committed
// fleet reports rely on.
//
// The link is deliberately hostile: slow-start, jitter and loss (so
// the per-direction rng draw order must match push for push), and a
// small send buffer (so response pumps experience backpressure and
// resume through OnWritable at the same instants a blocking writer
// re-woke from its cond).
func serverTrace(t *testing.T) []string {
	t.Helper()
	clock := netem.NewVirtualClock()
	defer clock.Stop()
	n := netem.NewNetwork(clock)
	inner, err := n.Listen("srv.test:443", 0)
	if err != nil {
		t.Fatal(err)
	}
	epoch := clock.Now()

	var trace []string
	record := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf("%v "+format,
			append([]any{clock.Now().Sub(epoch)}, args...)...))
	}

	pre := make([]byte, 200)
	tail := make([]byte, 100)
	stableBody := make([]byte, 300<<10)
	for i := range stableBody {
		stableBody[i] = byte(i * 13)
	}
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}

	type stableW interface {
		WriteStable([]byte) (int, error)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/stable", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(pre)+len(stableBody)+len(tail)))
		if _, err := w.Write(pre); err != nil {
			return
		}
		if _, err := w.(stableW).WriteStable(stableBody); err != nil {
			return
		}
		w.Write(tail)
	})
	mux.HandleFunc("/chunked", func(w http.ResponseWriter, r *http.Request) {
		buf := make([]byte, 8<<10) // reused and rewritten: the wire must see each generation
		for i := 0; i < 16; i++ {
			for j := range buf {
				buf[j] = byte(i + j)
			}
			if _, err := w.Write(buf); err != nil {
				return
			}
		}
	})
	mux.HandleFunc("/big", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(big)))
		sw := w.(stableW)
		for off := 0; off < len(big); off += 32 << 10 {
			if _, err := sw.WriteStable(big[off : off+32<<10]); err != nil {
				return
			}
		}
	})

	hooks := WithRequestHooks(
		func(r *http.Request) { record("reqStart %s %s", r.Method, r.URL.Path) },
		func(r *http.Request, bodyBytes int64, aborted bool) {
			record("reqDone %s %s bytes=%d aborted=%v", r.Method, r.URL.Path, bodyBytes, aborted)
		})
	srv := Serve(clock, inner, mux, handshake.Params{Delta1: 4 * time.Millisecond, Delta2: 3 * time.Millisecond}, hooks)
	defer srv.Close()

	lp := netem.LinkParams{
		Rate: netem.Mbps(8), Delay: 25 * time.Millisecond,
		SlowStart: true, Jitter: 2 * time.Millisecond,
		LossProb: 0.01, RTOPenalty: 120 * time.Millisecond,
		SendBuf: 32 << 10, Seed: 99,
	}
	iface := n.NewInterface("cli", lp, lp)

	// The aborter kills the interface mid-/big-transfer at a fixed
	// instant; the client quantizes the /big request start so the abort
	// lands at the same virtual offset into the transfer on every run.
	clock.NewTimer(func() {
		iface.SetAlive(false)
		record("iface down")
	}).Schedule(epoch.Add(10*time.Second + 500*time.Millisecond))

	p := clock.Register()
	defer p.Unregister()
	c := &refClient{p: p, iface: iface, addr: "srv.test:443"}
	get := func(path string) {
		url := "http://srv.test:443" + path
		resp, err := c.do(http.MethodGet, url)
		if err != nil {
			record("GET %s err=Get %q: %v", path, url, err)
			return
		}
		body, rerr := io.ReadAll(resp.Body)
		c.finish(resp, rerr)
		var sum uint64
		for _, b := range body {
			sum = sum*131 + uint64(b)
		}
		record("GET %s status=%d len=%d sum=%d readErr=%v", path, resp.StatusCode, len(body), sum, rerr)
	}
	get("/stable")
	get("/stable") // keep-alive reuse
	get("/chunked")
	if resp, err := c.do(http.MethodHead, "http://srv.test:443/stable"); err == nil {
		c.finish(resp, nil)
		record("HEAD /stable len=%d err=%v", resp.ContentLength, err)
	}
	p.SleepUntil(epoch.Add(10 * time.Second))
	get("/big") // aborted mid-body by the interface loss at 10.5s
	iface.SetAlive(true)

	// Blackholed server: the request deadline is the only way out.
	p.SleepUntil(epoch.Add(12 * time.Second))
	srv.SetBlackhole(true)
	c.timeout = 2 * time.Second
	get("/stable")
	srv.SetBlackhole(false)
	c.timeout = 0
	get("/stable") // fresh conn, healthy again

	c.close()
	if srv.Drain(p) {
		record("drained")
	} else {
		record("drain failed")
	}

	// The pinned trace is a sorted multiset, recorded when the client
	// and the aborter ran on goroutines whose same-instant records could
	// interleave either way; every record carries its virtual instant,
	// so the sorted comparison still pins the timeline.
	sort.Strings(trace)
	return trace
}

// TestEventServerMatchesBlockingTimeline is the byte-identity contract:
// the server must reproduce the observable timeline the blocking
// goroutine-per-connection engine recorded in testdata/
// server_timeline.txt before it was deleted — response bytes,
// completion instants, request hook instants, aborted-request byte
// attribution, blackhole behaviour and drain — under slow-start,
// jitter, loss and send-buffer backpressure.
func TestEventServerMatchesBlockingTimeline(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "server_timeline.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	got := serverTrace(t)
	if len(got) != len(want) {
		t.Fatalf("trace length %d, pinned %d\ngot: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("trace[%d]:\n  pinned: %s\n  got:    %s", i, want[i], got[i])
		}
	}
}

// TestServerRejectsGarbage checks that a client skipping the secure
// handshake is dropped: the server reads its bytes, never calls the
// handler, and closes the connection without answering.
func TestServerRejectsGarbage(t *testing.T) {
	clock := netem.NewVirtualClock()
	defer clock.Stop()
	n := netem.NewNetwork(clock)
	l, err := n.Listen("srv.test:443", 0)
	if err != nil {
		t.Fatal(err)
	}
	called := false
	srv := Serve(clock, l, http.HandlerFunc(func(http.ResponseWriter, *http.Request) { called = true }), handshake.Params{})
	defer srv.Close()
	drv := clock.Register()
	defer drv.Unregister()
	lp := netem.LinkParams{Rate: netem.Mbps(10), Delay: time.Millisecond}
	conn, err := dialBlocking(drv, n.NewInterface("cli", lp, lp), "srv.test:443")
	if err != nil {
		t.Fatal(err)
	}
	rw := newBlockingConn(drv, conn)
	if _, err := rw.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	if k, err := rw.Read(make([]byte, 1)); k != 0 || err != io.EOF {
		t.Fatalf("read after garbage = %d bytes, %v; want the server's close (EOF)", k, err)
	}
	if called {
		t.Fatal("the handler ran for a client that never completed the handshake")
	}
	if !srv.Drain(drv) {
		t.Fatal("the connection machine did not finish")
	}
	conn.Close()
}

// TestEventServerGoroutineFootprint verifies the point of the
// connection machine: connections held open against the server park no
// per-connection goroutines.
func TestEventServerGoroutineFootprint(t *testing.T) {
	clock := netem.NewVirtualClock()
	defer clock.Stop()
	n := netem.NewNetwork(clock)
	inner, err := n.Listen("srv.test:443", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(clock, inner, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}), handshake.Params{})
	defer srv.Close()

	lp := netem.LinkParams{Rate: netem.Mbps(50), Delay: time.Millisecond}
	const conns = 64
	p := clock.Register()
	defer p.Unregister()
	before := runtime.NumGoroutine()
	for i := 0; i < conns; i++ {
		// Each transport keeps its pooled conn open; the server side must
		// not hold a goroutine for it. The transports are abandoned, not
		// shut down, until the test ends.
		d := newDriver(p, n.NewInterface(fmt.Sprintf("cli%d", i), lp, lp))
		if _, _, err := d.get("http://srv.test:443/"); err != nil || d.stalled {
			t.Fatalf("request %d: %v (stalled %v)", i, err, d.stalled)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d open connections started %d goroutines", conns, after-before)
	}
	srv.mu.Lock()
	active := srv.active
	srv.mu.Unlock()
	if active != conns {
		t.Fatalf("active conns = %d, want %d", active, conns)
	}
}

// TestAfterPacesAndReportsFailure pins the continuation contract. A
// handler writes a body one 32 KB stride per continuation and resumes
// each 100 ms late: every continuation must run once the strides before
// it are on the wire, see the body bytes written so far, and hold back
// the stride written after it until it resumes. When the client's
// request deadline aborts the connection mid-body, the next
// continuation must see the error and what the failing blocking write
// would have reported, and the request must be booked aborted.
func TestAfterPacesAndReportsFailure(t *testing.T) {
	const stride, strides = 32 << 10, 8
	body := make([]byte, stride*strides)
	for i := range body {
		body[i] = byte(i * 7)
	}
	type call struct {
		at  time.Duration
		n   int64
		err error
	}
	run := func(deadline time.Duration) (calls []call, got int, ferr error, booked string) {
		clock := netem.NewVirtualClock()
		defer clock.Stop()
		n := netem.NewNetwork(clock)
		l, err := n.Listen("srv.test:443", 0)
		if err != nil {
			t.Fatal(err)
		}
		drv := clock.Register()
		defer drv.Unregister()
		epoch := clock.Now()
		srv := Serve(clock, l, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.WriteHeader(http.StatusPartialContent)
			var resume func()
			pause := clock.NewTimer(func() { resume() })
			i := 0
			var next func(int64, error, func())
			next = func(written int64, err error, r func()) {
				calls = append(calls, call{clock.Now().Sub(epoch), written, err})
				if err != nil || i == strides {
					r()
					return
				}
				w.(interface{ WriteStable([]byte) (int, error) }).WriteStable(body[i*stride : (i+1)*stride])
				i++
				After(w, next)
				resume = r
				pause.Schedule(clock.Now().Add(100 * time.Millisecond))
			}
			After(w, next)
		}), handshake.Params{}, WithRequestHooks(nil, func(_ *http.Request, bytes int64, aborted bool) {
			booked = fmt.Sprintf("bytes=%d aborted=%v", bytes, aborted)
		}))
		defer srv.Close()
		lp := netem.LinkParams{Rate: netem.Mbps(20), Delay: 5 * time.Millisecond}
		loop := netem.NewLoop()
		et := NewEventTransport(n.NewInterface("cli", lp, lp), clock, loop)
		et.SetRequestTimeout(deadline)
		ferr = errors.New("fetch never completed")
		loop.Do(func() {
			et.GetRangeViews("http://srv.test:443/", 0, int64(len(body)-1), func(views [][]byte, release func(), err error) {
				ferr = err
				for _, v := range views {
					got += len(v)
				}
				if err == nil {
					release()
				}
				et.Shutdown(nil)
			})
		})
		drv.SleepUntil(epoch.Add(time.Minute))
		if !srv.Drain(drv) {
			t.Fatal("drain did not settle")
		}
		return calls, got, ferr, booked
	}

	calls, got, err, booked := run(0)
	if err != nil || got != len(body) {
		t.Fatalf("paced fetch: %d bytes, err %v", got, err)
	}
	if len(calls) != strides+1 || booked != fmt.Sprintf("bytes=%d aborted=false", len(body)) {
		t.Fatalf("paced fetch: %d continuations, booked %s", len(calls), booked)
	}
	for k, c := range calls {
		if c.err != nil || c.n != int64(k*stride) {
			t.Errorf("continuation %d saw written=%d err=%v, want %d", k, c.n, c.err, k*stride)
		}
		if k > 0 && c.at < calls[k-1].at+100*time.Millisecond {
			t.Errorf("continuation %d ran at %v, under 100 ms after the one before (%v)", k, c.at, calls[k-1].at)
		}
	}

	calls, _, err, booked = run(350 * time.Millisecond)
	if !errors.Is(err, ErrRequestTimeout) {
		t.Fatalf("deadline fetch err = %v, want the request deadline", err)
	}
	last := calls[len(calls)-1]
	prev := calls[len(calls)-2]
	if last.err == nil || prev.err != nil {
		t.Fatalf("the failure must reach exactly the last continuation: %+v", calls)
	}
	if last.n < prev.n || last.n > prev.n+stride {
		t.Errorf("failed continuation saw written=%d, want within the stride after %d", last.n, prev.n)
	}
	if booked != fmt.Sprintf("bytes=%d aborted=true", prev.n+stride) {
		t.Errorf("booked %s, want the failing stride's end aborted", booked)
	}
}

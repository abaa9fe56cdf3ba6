// Package httpx provides the HTTP plumbing MSPlayer uses on each path:
// an event-loop client (EventTransport) and a blocking http.Client
// bound to one emulated interface, both completing the secure-connection
// handshake before carrying requests, HTTP range-request helpers, and
// an HTTP/1.1 server for the emulated origin and edge tiers.
//
// Everything is built for the deterministic virtual clock. The Server
// runs one clock-registered accept goroutine and serves every
// connection as a state machine stepped by clock callbacks
// (eventserver.go): handlers run inline and never block, and a handler
// that must wait continues through After. EventTransport runs each
// request the same way on the caller's netem.Loop; the blocking
// Transport performs the whole round trip on the calling goroutine.
// Nothing in the HTTP path parks outside the clock's accounting, which
// is what lets virtual time jump deterministically (net/http's
// Transport and Server would park their internal goroutines on plain
// channels, invisible to the clock). Connections are persistent, so
// each range request after the first costs one request round trip,
// exactly as in the paper.
//
// Teardown is deterministic end to end: Transport.Shutdown aborts every
// connection through the netem conn abort protocol (a clock event at
// one pinned virtual instant), the Server's request lifecycle hooks
// (WithRequestHooks) attribute each request's bytes and Aborted
// disposition in the connection machines' clock callbacks, and
// Server.Drain joins the machines on the clock. Per-request context
// cancellation remains available for callers outside the emulation's
// timeline (an unregistered watcher aborts the conn mid-request), but a
// deterministic teardown makes those watchers no-ops by scheduling its
// own aborts first — the earliest abort wins.
package httpx

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/textproto"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/handshake"
	"repro/internal/netem"
)

// NewClient returns an HTTP client whose TCP connections are dialed
// through iface and complete the emulated TLS-style handshake before
// carrying requests. Keep-alives are on: video streaming reuses one
// connection per (path, server) pair.
func NewClient(iface *netem.Interface) *http.Client {
	return &http.Client{Transport: NewTransport(iface)}
}

// maxIdlePerHost bounds pooled idle connections per server address.
const maxIdlePerHost = 4

// brPool recycles the 16 KB buffered readers that sit on every
// blocking client connection; at fleet scale these buffers dominated
// per-connection setup allocations.
var brPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 16<<10) },
}

func getReader(c net.Conn) *bufio.Reader {
	br := brPool.Get().(*bufio.Reader)
	br.Reset(c)
	return br
}

func putReader(br *bufio.Reader) {
	br.Reset(nil)
	brPool.Put(br)
}

// Transport is an http.RoundTripper that speaks HTTP/1.1 directly over
// emulated connections, entirely on the calling goroutine. See the
// package comment for why this replaces http.Transport here.
//
// A Transport is owned by one fetch-loop goroutine; Bind attaches that
// goroutine's clock Participant so dials, handshakes and in-request
// reads all park through the handle instead of as per-park transient
// clock registrations.
type Transport struct {
	iface *netem.Interface
	part  *netem.Participant

	// reqTimeout bounds each request attempt (dial, handshake, request
	// write, response and body reads) with a netem.Timer racing the
	// attempt; zero means no deadline. See SetRequestTimeout.
	reqTimeout time.Duration

	mu     sync.Mutex
	idle   map[string][]*persistConn
	live   map[*persistConn]struct{} // every open conn (idle and in use)
	closed error                     // non-nil once Shutdown ran; fails new dials
}

// NewTransport builds the transport underlying NewClient; exposed so
// callers can share one connection pool across clients.
func NewTransport(iface *netem.Interface) *Transport {
	return &Transport{
		iface: iface,
		idle:  make(map[string][]*persistConn),
		live:  make(map[*persistConn]struct{}),
	}
}

// Bind attaches the owning goroutine's clock handle. Call before the
// first request from the goroutine that will issue every request on
// this transport.
func (t *Transport) Bind(p *netem.Participant) { t.part = p }

// SetRequestTimeout arms a per-request deadline: every subsequent
// request attempt that has not delivered its full body within d of
// starting is aborted with ErrRequestTimeout at exactly that virtual
// instant, converting a blackholed server (accepts connections, never
// responds) into a retryable error instead of an eternal park. Zero
// disables the deadline. The deadline requires a bound Participant
// (Bind) and covers the whole attempt — dial, handshake, request
// write, response header and body reads; RoundTrip's retry-once on a
// reused conn runs under a fresh deadline. Call it before the first
// request, from the owning goroutine.
func (t *Transport) SetRequestTimeout(d time.Duration) { t.reqTimeout = d }

// ErrRequestTimeout aborts requests whose SetRequestTimeout deadline
// elapsed. Compare with errors.Is: it arrives wrapped in the dial,
// handshake, response-read or body-read error of whichever stage the
// deadline interrupted.
var ErrRequestTimeout = fmt.Errorf("httpx: request deadline exceeded")

// ErrHedged aborts requests whose EventTransport.SetHedge budget
// elapsed: the caller gave up on this attempt to hedge the range
// elsewhere. Compare with errors.Is, like ErrRequestTimeout. A
// hedged-out attempt on a reused connection is not transparently
// retried — hedging exists precisely so the caller can redirect the
// request.
var ErrHedged = fmt.Errorf("httpx: request hedged")

// deadlineGuard races one request attempt against the transport's
// request deadline. The attempt's connection is handed over via setConn
// as soon as it exists (a timer elapsing before the dial returns aborts
// the conn the moment it materialises); the timer and the body owner
// arbitrate through the same reqState CAS as the context watcher, so an
// aborted conn is never repooled and at most one abort is ever issued.
type deadlineGuard struct {
	state reqState
	tm    *netem.Timer

	mu      sync.Mutex
	conn    net.Conn
	aborted error // set when the timer fired, for a conn published after the fact
}

// armDeadline returns a scheduled guard for one request attempt, or
// nil when no deadline is configured.
func (t *Transport) armDeadline() *deadlineGuard {
	if t.part == nil || t.reqTimeout <= 0 {
		return nil
	}
	g := &deadlineGuard{}
	g.tm = t.part.NewTimer(g.fire)
	g.tm.Schedule(t.part.Clock().Now().Add(t.reqTimeout))
	return g
}

// setConn publishes the attempt's connection to the guard, aborting it
// immediately when the timer already fired conn-less.
func (g *deadlineGuard) setConn(c net.Conn) {
	g.mu.Lock()
	g.conn = c
	err := g.aborted
	g.mu.Unlock()
	if err != nil {
		abortConn(c, err)
	}
}

// fire runs on the clock's jump goroutine at the deadline instant. It
// only CASes and schedules a conn abort — never parks.
func (g *deadlineGuard) fire() {
	if !g.state.v.CompareAndSwap(reqActive, reqAborted) {
		return
	}
	g.mu.Lock()
	c := g.conn
	g.aborted = ErrRequestTimeout
	g.mu.Unlock()
	if c != nil {
		abortConn(c, ErrRequestTimeout)
	}
}

// stop cancels the pending timer; nil-safe.
func (g *deadlineGuard) stop() {
	if g != nil {
		g.tm.Stop()
	}
}

// persistConn is one pooled connection with its read buffer (which may
// hold bytes of the next response and so must persist with the conn).
type persistConn struct {
	conn net.Conn
	br   *bufio.Reader
}

type connAborter interface{ Abort(err error) }

func abortConn(c net.Conn, err error) {
	if a, ok := c.(connAborter); ok {
		a.Abort(err)
		return
	}
	c.Close()
}

// RoundTrip implements http.RoundTripper. The returned response body
// streams straight from the emulated connection; fully draining and
// closing it returns the connection to the keep-alive pool.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	addr := req.URL.Host
	if _, _, err := net.SplitHostPort(addr); err != nil {
		addr = net.JoinHostPort(addr, "80")
	}
	for attempt := 0; ; attempt++ {
		// Each attempt runs under its own deadline: a retry after a
		// timed-out reused conn gets the full budget for its fresh dial.
		g := t.armDeadline()
		pc, reused, err := t.getConn(ctx, addr, g)
		if err != nil {
			g.stop()
			return nil, err
		}
		resp, err := t.roundTrip(ctx, req, pc, addr, g)
		if err != nil {
			// A pooled conn may have been aborted since it was cached
			// (mobility event, server kill) — and if one was, its pooled
			// siblings almost certainly were too. Flush the pool for
			// this address and retry once on a genuinely fresh dial, as
			// net/http does for reused conns — and like net/http, only
			// when the request body can be replayed.
			replayable := req.Body == nil || req.Body == http.NoBody
			if !replayable && req.GetBody != nil {
				// Rewind the consumed body before re-sending.
				if body, gerr := req.GetBody(); gerr == nil {
					req.Body = body
					replayable = true
				}
			}
			if reused && replayable && attempt == 0 && ctx.Err() == nil {
				t.dropIdle(addr)
				continue
			}
			return nil, err
		}
		return resp, nil
	}
}

func (t *Transport) roundTrip(ctx context.Context, req *http.Request, pc *persistConn, addr string, g *deadlineGuard) (*http.Response, error) {
	// Watch for cancellation until the body is closed: aborting the conn
	// wakes any clock-visible read the caller is parked in. The state
	// CAS decides the race between the watcher aborting and the body
	// completing, so a conn the watcher touched is never repooled. A
	// context that can never be cancelled (Done() == nil — the
	// context.Background() of every fleet session) gets no watcher at
	// all: spawning a goroutine and channel per request only to tear
	// them down unused was measurable at 20k-session populations. When a
	// request deadline is armed its guard shares the same state, so the
	// watcher, the deadline timer and the body owner arbitrate through
	// one CAS — the earliest abort wins.
	var (
		done  chan struct{}
		state *reqState
	)
	if g != nil {
		state = &g.state
	}
	if ctx.Done() != nil {
		done = make(chan struct{})
		if state == nil {
			state = &reqState{}
		}
		watchState := state
		go func() { //detlint:allow baredgo -- context watcher only forwards cancellation into a conn abort; clock-invisible by design
			select {
			case <-ctx.Done():
				if watchState.v.CompareAndSwap(reqActive, reqAborted) {
					abortConn(pc.conn, ctx.Err())
				}
			case <-done:
			}
		}()
	}
	fail := func(err error) (*http.Response, error) {
		if done != nil {
			close(done)
		}
		g.stop()
		t.discard(pc)
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		return nil, err
	}

	if err := writeRequest(pc.conn, req); err != nil {
		return fail(fmt.Errorf("httpx: writing request: %w", err))
	}
	resp, err := readResponse(pc.br, req)
	if err != nil {
		return fail(fmt.Errorf("httpx: reading response: %w", err))
	}
	resp.Body = &bodyGuard{rc: resp.Body, t: t, pc: pc, addr: addr,
		done: done, state: state, dl: g, reusable: !resp.Close}
	return resp, nil
}

// reqBufPool recycles request staging buffers for writeRequest.
var reqBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// writeRequest puts req on the wire. Bodyless GET/HEAD requests whose
// only headers are the small set the players send — every range and
// metadata request in the emulation — are rendered into one pooled
// buffer with a single conn write, producing byte-for-byte the output
// of req.Write (which allocates a bufio.Writer and sorts a header map
// per call, also flushing as a single write — so pacing sees identical
// segments either way). Anything else falls back to req.Write.
func writeRequest(conn net.Conn, req *http.Request) error {
	if req.Body != nil && req.Body != http.NoBody ||
		(req.Method != http.MethodGet && req.Method != http.MethodHead) ||
		req.ContentLength != 0 || req.Close || len(req.Trailer) > 0 ||
		len(req.TransferEncoding) > 0 {
		return req.Write(conn)
	}
	// req.Write emits Host and a default User-Agent first, then the
	// remaining headers sorted by key. With at most one extra header
	// (Range, in practice) the sorted rendering is the natural append
	// order; more than one falls back to keep ordering exact.
	host := req.Host
	if host == "" {
		host = req.URL.Host
	}
	if len(req.Header) > 1 || host == "" {
		return req.Write(conn)
	}
	bp := reqBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, req.Method...)
	b = append(b, ' ')
	b = append(b, req.URL.RequestURI()...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, "\r\nUser-Agent: Go-http-client/1.1\r\n"...)
	for k, vv := range req.Header { //detlint:allow maprange -- the fallback above caps this loop at one header key, so order cannot vary
		if k == "Host" || k == "User-Agent" || k == "Content-Length" {
			// Keys req.Write treats specially; keep semantics by falling
			// back rather than second-guessing them.
			*bp = b
			reqBufPool.Put(bp)
			return req.Write(conn)
		}
		for _, v := range vv {
			b = append(b, k...)
			b = append(b, ": "...)
			b = append(b, v...)
			b = append(b, "\r\n"...)
		}
	}
	b = append(b, "\r\n"...)
	_, err := conn.Write(b)
	*bp = b
	reqBufPool.Put(bp)
	return err
}

// readResponse parses an HTTP/1.1 response from br into an
// *http.Response, replacing http.ReadResponse on the per-chunk hot
// path: it consumes exactly the same bytes (status line, MIME headers,
// and a Content-Length-, chunked- or close-delimited body) but skips
// the textproto machinery and the locked net/http body wrapper, which
// together were a measurable share of fleet-scale client CPU. Only
// what the emulated origin actually speaks is implemented; anything
// unexpected surfaces as an error rather than a silent misparse.
func readResponse(br *bufio.Reader, req *http.Request) (*http.Response, error) {
	line, err := readHeaderLine(br)
	if err != nil {
		return nil, err
	}
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return nil, fmt.Errorf("malformed status line %q", line)
	}
	proto := "HTTP/1.1"
	minor := 1
	if line[sp-1] == '0' {
		proto, minor = "HTTP/1.0", 0
	}
	statusText := bytes.TrimLeft(line[sp+1:], " ")
	if len(statusText) < 3 {
		return nil, fmt.Errorf("malformed status line %q", line)
	}
	code, err := strconv.Atoi(string(statusText[:3]))
	if err != nil {
		return nil, fmt.Errorf("malformed status code in %q", line)
	}
	resp := &http.Response{
		Status:     string(statusText),
		StatusCode: code,
		Proto:      proto,
		ProtoMajor: 1,
		ProtoMinor: minor,
		Header:     make(http.Header, 8),
		Request:    req,
	}
	var (
		contentLength int64 = -1
		chunked       bool
	)
	for {
		line, err := readHeaderLine(br)
		if err != nil {
			return nil, err
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return nil, fmt.Errorf("malformed header line %q", line)
		}
		key := canonicalHeaderKey(line[:colon])
		val := string(bytes.Trim(line[colon+1:], " \t"))
		resp.Header[key] = append(resp.Header[key], val)
		switch key {
		case "Content-Length":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("malformed Content-Length %q", val)
			}
			contentLength = n
		case "Transfer-Encoding":
			if val != "chunked" {
				return nil, fmt.Errorf("unsupported Transfer-Encoding %q", val)
			}
			chunked = true
		case "Connection":
			if val == "close" {
				resp.Close = true
			}
		}
	}
	switch {
	case req.Method == http.MethodHead || code == http.StatusNoContent ||
		code == http.StatusNotModified || code < 200:
		if contentLength < 0 {
			contentLength = 0 // net/http reports 0 when no body is expected
		}
		resp.ContentLength = contentLength
		resp.Body = http.NoBody
	case chunked:
		resp.ContentLength = -1
		resp.Body = &chunkedBody{cr: httputil.NewChunkedReader(br), br: br}
	case contentLength >= 0:
		resp.ContentLength = contentLength
		resp.Body = &lengthBody{br: br, n: contentLength}
	default:
		// Close-delimited: the body ends when the server closes the
		// connection, which also retires it from the pool.
		resp.Close = true
		resp.Body = io.NopCloser(br)
	}
	return resp, nil
}

// readHeaderLine returns the next CRLF-terminated line without its
// terminator. The common case aliases the bufio buffer (valid only
// until the next read, no allocation); a line longer than the buffer —
// the web proxy's padding header mimics the paper's bulky video-info
// responses — is accumulated across fragments.
func readHeaderLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = br.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if err != nil {
		return nil, err
	}
	if n := len(line); n >= 2 && line[n-2] == '\r' {
		return line[:n-2], nil
	}
	return nil, fmt.Errorf("header line %q not CRLF-terminated", line)
}

// commonHeaderKeys interns the canonical forms the emulated origin
// sends, so parsing them allocates nothing.
var commonHeaderKeys = []string{
	"Accept-Ranges", "Connection", "Content-Length", "Content-Range",
	"Content-Type", "Date", "Last-Modified", "Transfer-Encoding",
	"X-Content-Type-Options",
}

func canonicalHeaderKey(k []byte) string {
	for _, c := range commonHeaderKeys {
		if len(k) == len(c) && string(k) == c {
			return c
		}
	}
	return textproto.CanonicalMIMEHeaderKey(string(k))
}

// lengthBody reads a Content-Length-framed body straight from the
// connection's buffered reader, returning io.EOF exactly at the
// declared end (and io.ErrUnexpectedEOF on a short connection).
type lengthBody struct {
	br *bufio.Reader
	n  int64
}

func (b *lengthBody) Read(p []byte) (int, error) {
	if b.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := b.br.Read(p)
	b.n -= int64(n)
	if err == io.EOF && b.n > 0 {
		err = io.ErrUnexpectedEOF
	}
	if err == nil && b.n == 0 {
		// Let the caller see io.EOF together with the final bytes on
		// its next read; bodyGuard's pooling probe depends on a clean
		// (0, io.EOF) after the declared length.
		return n, nil
	}
	return n, err
}

func (b *lengthBody) Close() error { return nil }

// chunkedBody decodes a chunked body, consuming the terminating CRLF of
// the (empty) trailer section so the next keep-alive response starts
// clean on the shared reader.
type chunkedBody struct {
	cr      io.Reader
	br      *bufio.Reader
	trailed bool
}

func (b *chunkedBody) Read(p []byte) (int, error) {
	n, err := b.cr.Read(p)
	if err == io.EOF && !b.trailed {
		b.trailed = true
		var crlf [2]byte
		if _, terr := io.ReadFull(b.br, crlf[:]); terr != nil || crlf != [2]byte{'\r', '\n'} {
			return n, fmt.Errorf("httpx: malformed chunked trailer")
		}
	}
	return n, err
}

func (b *chunkedBody) Close() error { return nil }

// reqState arbitrates one request's end-of-life between the
// cancellation watcher and the body owner.
type reqState struct{ v atomic.Int32 }

const (
	reqActive    = 0 // request in flight
	reqAborted   = 1 // watcher won: conn aborted, must not be reused
	reqCompleted = 2 // body owner won: conn may be pooled
)

func (t *Transport) getConn(ctx context.Context, addr string, g *deadlineGuard) (pc *persistConn, reused bool, err error) {
	t.mu.Lock()
	if err := t.closed; err != nil {
		t.mu.Unlock()
		return nil, false, err
	}
	if pcs := t.idle[addr]; len(pcs) > 0 {
		pc := pcs[len(pcs)-1]
		t.idle[addr] = pcs[:len(pcs)-1]
		t.mu.Unlock()
		if g != nil {
			g.setConn(pc.conn)
		}
		return pc, true, nil
	}
	t.mu.Unlock()
	conn, err := t.iface.Dial(ctx, addr, t.part)
	if err != nil {
		return nil, false, err
	}
	// Publish the conn before the handshake: a blackholed server accepts
	// and then never responds, so the handshake read is the first park
	// the deadline must be able to cut short.
	if g != nil {
		g.setConn(conn)
	}
	if err := handshake.Client(conn); err != nil {
		conn.Close()
		return nil, false, fmt.Errorf("httpx: secure handshake with %s: %w", addr, err)
	}
	pc = &persistConn{conn: conn, br: getReader(conn)}
	t.mu.Lock()
	if err := t.closed; err != nil {
		// Shut down while the dial was parked on the clock: the
		// teardown sweep could not see this conn, so retire it here.
		t.mu.Unlock()
		t.discard(pc)
		return nil, false, err
	}
	t.live[pc] = struct{}{}
	t.mu.Unlock()
	return pc, false, nil
}

// discard retires a connection for good: the emulated conn is closed
// and its buffered reader returns to the pool. Callers must be the
// conn's sole owner (nothing may read pc.br afterwards).
func (t *Transport) discard(pc *persistConn) {
	t.mu.Lock()
	delete(t.live, pc)
	t.mu.Unlock()
	pc.conn.Close()
	if pc.br != nil {
		putReader(pc.br)
		pc.br = nil
	}
}

// Shutdown retires the transport at the current emulated instant: new
// dials fail with err, idle connections are closed, and in-use
// connections are aborted with err. Because netem aborts are clock
// events (see netem.Conn.AbortAt), calling Shutdown from a runnable
// registered goroutine pins the whole sweep to one deterministic
// virtual instant — every in-flight request on this transport, and
// every server handler serving it, observes the failure at exactly that
// instant. Later per-request cancellation watchers become no-ops (the
// earliest abort schedule wins). Shutdown is idempotent.
func (t *Transport) Shutdown(err error) {
	if err == nil {
		err = errTransportClosed
	}
	t.mu.Lock()
	if t.closed != nil {
		t.mu.Unlock()
		return
	}
	t.closed = err
	idle := t.idle
	t.idle = make(map[string][]*persistConn)
	idleSet := make(map[*persistConn]bool, len(idle))
	for _, pcs := range idle {
		for _, pc := range pcs {
			idleSet[pc] = true
		}
	}
	var inUse []*persistConn
	for pc := range t.live { //detlint:allow maprange -- all aborts land at the caller's single pinned virtual instant; sweep order is unobservable
		if !idleSet[pc] {
			inUse = append(inUse, pc)
		}
	}
	t.mu.Unlock()
	for _, pcs := range idle {
		for _, pc := range pcs {
			t.discard(pc) // graceful close: the server sees EOF, not an abort
		}
	}
	// In-use conns are aborted, not closed: their owning fetch loops are
	// parked in clock-visible reads and wake with err by the abort rule;
	// each owner retires its own conn (and pooled reader) afterwards.
	// All aborts land at the caller's single pinned virtual instant, so
	// the map iteration order is unobservable.
	for _, pc := range inUse {
		abortConn(pc.conn, err)
	}
}

// errTransportClosed is the default Shutdown error.
var errTransportClosed = fmt.Errorf("httpx: transport shut down")

// dropIdle discards every pooled connection to addr.
func (t *Transport) dropIdle(addr string) {
	t.mu.Lock()
	pcs := t.idle[addr]
	delete(t.idle, addr)
	t.mu.Unlock()
	for _, pc := range pcs {
		t.discard(pc)
	}
}

func (t *Transport) putIdle(addr string, pc *persistConn) {
	t.mu.Lock()
	if t.closed == nil && len(t.idle[addr]) < maxIdlePerHost {
		t.idle[addr] = append(t.idle[addr], pc)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	t.discard(pc)
}

// CloseIdleConnections implements the optional interface used by
// http.Client.CloseIdleConnections.
func (t *Transport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = make(map[string][]*persistConn)
	t.mu.Unlock()
	for _, pcs := range idle {
		for _, pc := range pcs {
			t.discard(pc)
		}
	}
}

// bodyGuard tracks whether a response body was fully drained, deciding
// between pooling and closing the underlying connection, and releases
// the per-request cancellation watcher (done/state are nil when the
// request context could never be cancelled and no watcher was armed).
type bodyGuard struct {
	rc       io.ReadCloser
	t        *Transport
	pc       *persistConn
	addr     string
	done     chan struct{}
	state    *reqState
	dl       *deadlineGuard // pending request deadline, if armed
	reusable bool
	sawEOF   bool
	closed   bool
}

func (b *bodyGuard) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if err == io.EOF {
		b.sawEOF = true
	}
	return n, err
}

func (b *bodyGuard) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	completed := true
	if b.done != nil {
		close(b.done)
	}
	if b.state != nil {
		completed = b.state.v.CompareAndSwap(reqActive, reqCompleted)
	}
	b.dl.stop()
	if !b.sawEOF && completed && b.reusable {
		// The conn is a pooling candidate: tolerate an undrained body
		// that has in fact ended (e.g. a JSON decoder stopping at the
		// final token). Only probe then — on a doomed conn the read
		// could block until the peer's next paced segment.
		var tmp [1]byte
		if n, err := b.rc.Read(tmp[:]); n == 0 && err == io.EOF {
			b.sawEOF = true
		}
	}
	err := b.rc.Close()
	if completed && b.sawEOF && b.reusable && err == nil {
		b.t.putIdle(b.addr, b.pc)
	} else {
		b.t.discard(b.pc)
	}
	return err
}

// StatusError reports an unexpected HTTP status code, letting callers
// distinguish authorization failures (expired tokens) from server
// errors when deciding between token refresh and failover.
type StatusError struct {
	Code int
	Msg  string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("httpx: status %d: %s", e.Code, e.Msg)
}

// RangeHeader renders the HTTP Range header value for the byte interval
// [from, to] inclusive, as used by YouTube range requests.
func RangeHeader(from, to int64) string {
	return fmt.Sprintf("bytes=%d-%d", from, to)
}

// GetRange fetches the inclusive byte range [from, to] of url and
// returns the body. It fails unless the server honours the range with a
// 206 and the exact requested length.
func GetRange(ctx context.Context, client *http.Client, url string, from, to int64) ([]byte, error) {
	return GetRangeBuf(ctx, client, url, from, to, nil)
}

// do sends req. A plain client over an httpx Transport — no redirect
// policy, cookie jar or timeout, which is every client in the emulation
// (and the origin never redirects these endpoints) — goes straight to
// the transport, skipping http.Client's per-request bookkeeping on the
// range-request hot path. Anything else keeps net/http semantics.
func do(client *http.Client, req *http.Request) (*http.Response, error) {
	if t, ok := client.Transport.(*Transport); ok &&
		client.CheckRedirect == nil && client.Jar == nil && client.Timeout == 0 {
		return t.RoundTrip(req)
	}
	return client.Do(req)
}

// GetRangeBuf is GetRange reading into buf when buf has the capacity
// for the range, avoiding a fresh body allocation per request — the
// video fetch loops recycle chunk buffers through a pool. A too-small
// (or nil) buf falls back to allocating.
func GetRangeBuf(ctx context.Context, client *http.Client, url string, from, to int64, buf []byte) ([]byte, error) {
	if to < from {
		return nil, fmt.Errorf("httpx: invalid range %d-%d", from, to)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Range", RangeHeader(from, to))
	resp, err := do(client, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, &StatusError{Code: resp.StatusCode,
			Msg: fmt.Sprintf("range %d-%d of %s: %.80s", from, to, url, body)}
	}
	want := to - from + 1
	// The 206 response declares its length, so read into an exact-size
	// buffer instead of letting io.ReadAll grow-and-copy its way there.
	if resp.ContentLength == want {
		var body []byte
		if int64(cap(buf)) >= want {
			body = buf[:want]
		} else {
			body = make([]byte, want)
		}
		if _, err := io.ReadFull(resp.Body, body); err != nil {
			return nil, fmt.Errorf("httpx: reading range body: %w", err)
		}
		// Drain the (empty) tail so the conn is seen fully consumed and
		// returns to the keep-alive pool.
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return nil, fmt.Errorf("httpx: reading range body: %w", err)
		}
		return body, nil
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("httpx: reading range body: %w", err)
	}
	if int64(len(body)) != want {
		return nil, fmt.Errorf("httpx: range %d-%d returned %d bytes, want %d", from, to, len(body), want)
	}
	return body, nil
}

// Head issues a HEAD request and returns the advertised content length.
func Head(ctx context.Context, client *http.Client, url string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := do(client, req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("httpx: HEAD %s: status %d", url, resp.StatusCode)
	}
	return resp.ContentLength, nil
}

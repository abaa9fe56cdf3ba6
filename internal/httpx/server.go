package httpx

import (
	"bufio"
	"io"
	"net/http"
	"net/textproto"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/handshake"
	"repro/internal/netem"
)

// Server is a minimal HTTP/1.1 server for the emulated origin and edge
// tiers. The listener hands every connection to the server at its
// connect instant, and each runs as an event-loop state machine
// (eventserver.go) stepped by clock callbacks, so the handshake
// processing delays, request reads, response writes and handler
// continuations are all clock-visible and the virtual clock accounts
// for the whole server side deterministically. A server holds no
// goroutine of its own.
type Server struct {
	clock *netem.Clock
	l     *netem.Listener
	h     http.Handler
	hs    handshake.Params

	// Request lifecycle hooks, fixed before the first connection.
	reqStart func(*http.Request)
	reqDone  func(req *http.Request, bodyBytes int64, aborted bool)

	// blackhole makes the server accept connections and read requests
	// but never respond (a wedged-process fault). Checked both before
	// the handshake (new connections go silent) and before each request
	// dispatch (established keep-alive connections go silent too — the
	// clients most exposed to a wedged server are exactly the ones with
	// a pooled connection to it).
	blackhole atomic.Bool

	// Connection accounting behind the Drain barrier. Machines finish in
	// clock callbacks, so their exits land at emulated instants; a
	// draining driver therefore joins them on the clock, with no
	// wall-clock polling.
	mu     sync.Mutex
	active int // connection machines not yet finished
}

// ServerOption configures a Server at Serve time (connections are
// served as soon as Serve returns, so options cannot be applied later).
type ServerOption func(*Server)

// WithRequestHooks observes every dispatched request: start fires when
// the parsed request is handed to the handler, done fires after the
// response is finished (or abandoned), reporting the body bytes the
// handler produced and whether the request was aborted — i.e. the
// response never reached the client intact because a connection write
// failed (teardown abort, interface loss, server kill) or the handler
// panicked. Both fire in the connection's clock callbacks, so under a
// deterministic teardown every accounting mutation lands at a
// deterministic emulated instant. Either hook may be nil.
func WithRequestHooks(start func(*http.Request), done func(req *http.Request, bodyBytes int64, aborted bool)) ServerOption {
	return func(s *Server) {
		s.reqStart = start
		s.reqDone = done
	}
}

// WithEventLoop is a no-op kept for callers that still select the
// engine.
//
// Deprecated: every server runs on the event loop.
func WithEventLoop() ServerOption { return func(*Server) {} }

// Serve starts serving h on l, completing the emulated TLS-style
// handshake (with processing delays hs) on every accepted connection
// before reading requests. Close the returned server to stop.
//
// Handlers run inline in the connection's clock callbacks and must
// never block: no clock waits, no blocking I/O. A handler that has to
// wait — for pacing, for a cache fill — stages what it has written and
// continues through After.
func Serve(clock *netem.Clock, l *netem.Listener, h http.Handler, hs handshake.Params, opts ...ServerOption) *Server {
	s := &Server{clock: clock, l: l, h: h, hs: hs}
	for _, opt := range opts {
		opt(s)
	}
	l.OnAcceptable(func(c *netem.Conn) {
		s.mu.Lock()
		s.active++
		s.mu.Unlock()
		s.serveConn(c)
	})
	return s
}

// Close stops accepting and aborts established connections
// (ErrServerDown), which terminates their machines.
func (s *Server) Close() error { return s.l.Close() }

// SetBlackhole switches the server's blackhole fault on or off. A
// blackholed server keeps accepting connections and reading requests
// but never writes a byte back — the failure mode of a wedged process
// behind a live listener. Swallowed connections terminate only when
// the peer aborts them (a client request deadline, a transport
// shutdown), so clients without a deadline hang forever, by design.
// Safe to call from a netem.Timer callback: it only flips a flag.
func (s *Server) SetBlackhole(on bool) { s.blackhole.Store(on) }

// Drain drives the clock through p until every connection machine has
// finished. The caller must guarantee no new connections will arrive —
// every client is gone or shut down — otherwise the drain chases a
// moving target. It returns false when the clock stopped, or ran out of
// events, before the machines finished. After a true return, all
// request accounting (WithRequestHooks done callbacks included) has
// been published.
func (s *Server) Drain(p *netem.Participant) bool {
	return p.Await(func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.active == 0
	})
}

// responseWriter frames a response into the connection machine's stage
// (eventserver.go), which pumps the recorded connection-level calls
// onto the link, so the handler's write pattern reaches the link shaper
// unbuffered beyond a small coalescing window. Bodies without a
// declared Content-Length use chunked transfer encoding to keep the
// connection reusable.
type responseWriter struct {
	conn        *stageWriter
	bw          *bufio.Writer
	header      http.Header
	isHead      bool
	wroteHeader bool
	status      int
	chunked     bool
	hasCL       bool
	declaredCL  int64 // parsed Content-Length when hasCL
	written     int64 // body bytes actually framed
	// acked is what the handler's writes would have reported written,
	// in total, had the connection call being staged failed: the prefix
	// of the write in progress already in the buffer counts, as it does
	// in bufio's return value. Between writes it equals written.
	acked int64
}

// reset clears per-request state for the next keep-alive request,
// keeping the header map and write buffer allocations.
func (w *responseWriter) reset(isHead bool) {
	clear(w.header)
	w.bw.Reset(w.conn)
	w.isHead = isHead
	w.wroteHeader = false
	w.status = 0
	w.chunked = false
	w.hasCL = false
	w.declaredCL = 0
	w.written = 0
	w.acked = 0
}

// Header implements http.ResponseWriter.
func (w *responseWriter) Header() http.Header { return w.header }

// WriteHeader implements http.ResponseWriter.
func (w *responseWriter) WriteHeader(status int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	w.status = status
	if cl := w.header.Get("Content-Length"); cl != "" {
		n, err := strconv.ParseInt(cl, 10, 64)
		w.hasCL = err == nil && n >= 0
		w.declaredCL = n
		if !w.hasCL {
			// A malformed handler-set length must not reach the wire
			// next to the chunked framing we fall back to.
			w.header.Del("Content-Length")
		}
	}
	if !w.hasCL && !w.isHead && bodyAllowed(status) {
		w.header.Set("Transfer-Encoding", "chunked")
		w.chunked = true
	}
	text := http.StatusText(status)
	if text == "" {
		text = "status"
	}
	// One Write of the whole status line, as fmt.Fprintf's would be,
	// appended in bufio's own free space.
	line := append(w.bw.AvailableBuffer(), "HTTP/1.1 "...)
	line = appendStatusCode(line, status)
	line = append(append(append(line, ' '), text...), "\r\n"...)
	w.bw.Write(line)
	writeHeader(w.bw, w.header)
	io.WriteString(w.bw, "\r\n")
}

// appendStatusCode appends status as fmt's %03d formats it: at least
// three digits, zero-padded after any sign.
func appendStatusCode(b []byte, status int) []byte {
	start := len(b)
	b = strconv.AppendInt(b, int64(status), 10)
	digits := start
	if status < 0 {
		digits++
	}
	for len(b)-start < 3 {
		b = append(b, 0)
		copy(b[digits+1:], b[digits:])
		b[digits] = '0'
	}
	return b
}

// headerNewlineToSpace is net/http's rewrite of CR and LF in header
// values.
var headerNewlineToSpace = strings.NewReplacer("\n", " ", "\r", " ")

// writeHeader writes h in wire format exactly as http.Header.Write
// does: keys sorted, names that are not tokens dropped, CR and LF in
// values turned into spaces and the result trimmed, four WriteString
// calls per value so bw flushes at the same points. It sorts the keys
// in a stack array (eight keys, more than any handler here sets) and
// sends only a value that holds CR or LF through the Replacer, which
// walks the proxy's 20 KB padding value byte by byte.
func writeHeader(bw *bufio.Writer, h http.Header) {
	var scratch [8]string
	keys := scratch[:0]
	for k := range h {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if !validFieldName(k, false) {
			continue
		}
		for _, v := range h[k] {
			if strings.IndexByte(v, '\r') >= 0 || strings.IndexByte(v, '\n') >= 0 {
				v = headerNewlineToSpace.Replace(v)
			}
			bw.WriteString(k)
			bw.WriteString(": ")
			bw.WriteString(textproto.TrimString(v))
			bw.WriteString("\r\n")
		}
	}
}

func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

// Write implements http.ResponseWriter. Body bytes for HEAD requests
// and bodiless statuses (204/304) are swallowed, as net/http does —
// putting them on the wire would desync the keep-alive framing.
func (w *responseWriter) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if len(b) == 0 || w.isHead || !bodyAllowed(w.status) {
		return len(b), nil
	}
	w.written += int64(len(b))
	if w.chunked {
		// The chunk-size line goes out in one Write, as fmt.Fprintf's did.
		line := strconv.AppendUint(w.bw.AvailableBuffer(), uint64(len(b)), 16)
		w.bw.Write(append(line, "\r\n"...))
		w.body(b, false)
		io.WriteString(w.bw, "\r\n")
	} else {
		w.body(b, false)
	}
	return len(b), nil
}

// WriteStable is Write for body bytes that are immutable and outlive
// the response (borrowed views of the origin's content page cache or
// the edge's page store). On a Content-Length-framed response the bulk
// of the bytes bypasses both the coalescing buffer and the pipe's
// segment copy; otherwise it degrades to Write.
func (w *responseWriter) WriteStable(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if len(b) == 0 || w.isHead || !bodyAllowed(w.status) {
		return len(b), nil
	}
	if w.chunked {
		return w.Write(b)
	}
	w.written += int64(len(b))
	w.body(b, true)
	return len(b), nil
}

// body stages b, already counted into written, with the exact
// connection-level call sequence bufio.Writer.Write produces — fill a
// partial buffer, flush it, hand a remainder larger than the buffer
// straight to the connection, re-buffer a short tail — because the
// pipe truncates its final pacing segment to each call's length:
// different call boundaries would mean different segment sizes and a
// different emulated timeline. A stable remainder goes out as an alias
// of b instead of a copy. Before each staged call, acked is set to what
// bufio would have returned had that call failed.
func (w *responseWriter) body(b []byte, stable bool) {
	for len(b) > w.bw.Available() {
		w.acked = w.written - int64(len(b))
		if w.bw.Buffered() == 0 {
			w.conn.record(b, stable, true)
			b = nil
			break
		}
		k := w.bw.Available()
		w.bw.Write(b[:k])
		b = b[k:]
		w.acked += int64(k)
		w.bw.Flush()
	}
	if len(b) > 0 {
		w.bw.Write(b)
	}
	w.acked = w.written
}

// copyBufPool recycles the scratch buffers ReadFrom streams bodies
// through (io.Copy would otherwise allocate a fresh 32 KB buffer per
// response).
var copyBufPool = sync.Pool{
	New: func() any { b := make([]byte, 32<<10); return &b },
}

// ReadFrom implements io.ReaderFrom so io.Copy/io.CopyN (and therefore
// http.ServeContent) stream bodies through a pooled buffer.
func (w *responseWriter) ReadFrom(r io.Reader) (int64, error) {
	bp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bp)
	buf := *bp
	var total int64
	for {
		n, rerr := r.Read(buf)
		if n > 0 {
			wn, werr := w.Write(buf[:n])
			total += int64(wn)
			if werr != nil {
				return total, werr
			}
		}
		if rerr == io.EOF {
			return total, nil
		}
		if rerr != nil {
			return total, rerr
		}
	}
}

// finish completes the response and reports whether the connection can
// carry another request.
func (w *responseWriter) finish() bool {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if w.chunked {
		io.WriteString(w.bw, "0\r\n\r\n")
	}
	w.bw.Flush()
	if w.header.Get("Connection") == "close" {
		return false
	}
	if w.hasCL && !w.isHead && bodyAllowed(w.status) && w.written != w.declaredCL {
		// Short (or long) write against the declared Content-Length: the
		// client would wait forever for the remainder, so kill the conn
		// as net/http's server does.
		return false
	}
	// Without length framing the client can only detect the body's end
	// by connection close.
	return w.hasCL || w.chunked || w.isHead || !bodyAllowed(w.status)
}

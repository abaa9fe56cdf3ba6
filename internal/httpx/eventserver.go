package httpx

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/debug"
	"sync"

	"repro/internal/handshake"
	"repro/internal/netem"
)

// Connection machine.
//
// Each accepted connection runs as a netem.Timer-driven state machine
// on the clock's driver, so a fleet-scale origin or edge tier
// holds O(servers) goroutines instead of O(connections). The machine
// reproduces the connection-level behaviour of a goroutine blocked in
// net.Conn calls — the handshake script's message boundaries and Δ₁/Δ₂
// delay instants, the request parse instant, bufio's flush boundaries,
// and the request hooks' firing instants — byte for byte, as pinned by
// testdata/server_timeline.txt, recorded from the
// goroutine-per-connection engine this one replaced.
//
// Handlers run inline on the machine (at the request's parse instant)
// against a staging writer that records the exact connection-level
// write calls bufio would have issued; a TryWrite pump then replays
// the records, preserving call boundaries (different boundaries would
// mean different pacing segments and a different emulated timeline).
// Handlers therefore never park. One that must wait — Trickle pacing,
// an edge cache fill — registers a continuation with After: the pump
// runs it at the instant a blocking write of everything staged so far
// would have returned, and holds back whatever is staged after it until
// it resumes.

// accPool recycles the per-connection input accumulation buffers
// (requests and handshake messages are small; chunk bodies never flow
// toward the server).
var accPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4<<10); return &b },
}

// maxPooledBuf bounds the buffers putBuf returns to their pools.
const maxPooledBuf = 64 << 10

// stagePool recycles the per-connection response-staging arenas (a
// response head plus its non-stable body bytes; page payloads alias
// stable views and cost the arena nothing). Conns are short-lived at
// fleet scale, so allocating the ~20 KB head arena per accept dominated
// the server's allocation profile.
var stagePool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4<<10); return &b },
}

// srvBwPool recycles the per-connection bufio.Writer the responseWriter
// frames responses through.
var srvBwPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(io.Discard, 4<<10) },
}

// evState enumerates the per-connection machine states.
type evState int

const (
	evHandshake evState = iota // accumulating one expected handshake message
	evDelay                    // Δ processing delay armed before a handshake send
	evSend                     // pumping a handshake flight
	evRequest                  // accumulating the next request
	evPump                     // replaying a staged response
	evSwallow                  // blackholed: drain and never respond
	evDone                     // terminal
)

var crlfcrlf = []byte("\r\n\r\n")

// eventConn is one connection's state machine. All mutation happens in
// loop steps (netem.Loop serializes them and defers reentrant wakes),
// which run on the clock's driver or synchronously on a
// mutating caller — never parked.
type eventConn struct {
	s    *Server
	c    *netem.Conn
	loop *netem.Loop

	state evState

	// Input accumulation: arrived bytes are copied out of their borrowed
	// views immediately (server-bound traffic is headers and handshake
	// messages, so the copy is what a blocking bufio reader did too).
	acc  []byte
	accp *[]byte // the accPool entry acc came from
	scan int     // request-terminator search resumes here

	// Handshake progress.
	script    [3]handshake.ServerStep
	flight    int
	hsNeed    int  // acc bytes needed for the current expect (0 = header next)
	hsHdrOK   bool // header parsed; hsNeed includes the body
	delay     *netem.Timer
	delayDone bool

	// Send/pump cursors.
	sendBuf []byte
	sendOff int
	pumpIdx int
	pumpOff int

	// Current request: head parses every request head into the one
	// request it owns; req is that request between its head's parse and
	// its dispatch (it waits there for a declared body).
	head     reqHead
	req      *http.Request
	reqTotal int // acc bytes spanning the request (headers + body)
	pendReq  *http.Request
	pendKA   bool
	ended    bool // the response's end is framed (responseWriter.finish)

	// Continuations: waiting while one has run and not yet resumed;
	// resume is the handle every continuation gets, built on first use.
	waiting bool
	resume  func()

	// The first failed replay: the error, and the responseWriter's
	// written/acked counts a blocking writer would have reported.
	failErr     error
	failWritten int64
	failAcked   int64

	stage  *stageWriter
	arenap *[]byte // the stagePool entry stage.arena came from
	rw     *responseWriter

	remoteAddr string
}

// serveConn starts the state machine for one accepted connection. It
// runs in the listener's accept callback and never parks; the machine
// lives entirely in clock callbacks afterwards.
func (s *Server) serveConn(c *netem.Conn) {
	ec := &eventConn{
		s:          s,
		c:          c,
		loop:       netem.NewLoop(),
		script:     handshake.ServerScript(s.hs),
		remoteAddr: c.RemoteAddr().String(),
	}
	ec.accp = accPool.Get().(*[]byte)
	ec.acc = (*ec.accp)[:0]
	ec.arenap = stagePool.Get().(*[]byte)
	ec.stage = &stageWriter{arena: (*ec.arenap)[:0]}
	bw := srvBwPool.Get().(*bufio.Writer)
	bw.Reset(ec.stage)
	ec.rw = &responseWriter{conn: ec.stage, header: make(http.Header, 8), bw: bw}
	ec.stage.rw = ec.rw
	// Steps are bound once per connection: a method value or closure
	// built per wake would allocate on every readiness callback.
	advance := ec.advance
	delayed := func() {
		ec.delayDone = true
		ec.advance()
	}
	ec.delay = s.clock.NewTimer(func() { ec.loop.Do(delayed) })
	if s.blackhole.Load() {
		ec.state = evSwallow
	} else {
		ec.state = evHandshake
		ec.hsNeed = handshake.HeaderLen
	}
	ec.loop.Do(func() {
		wake := func() { ec.loop.Do(advance) }
		c.OnWritable(wake)
		c.OnReadable(wake)
		ec.advance()
	})
}

// wakeless terminal transition: disarm everything, close the conn and
// release the connection's slot in the server's active accounting.
func (ec *eventConn) finish() {
	if ec.state == evDone {
		return
	}
	ec.state = evDone
	ec.c.OnReadable(nil)
	ec.c.OnWritable(nil)
	ec.delay.Stop()
	ec.c.Close()
	putBuf(&accPool, ec.accp, ec.acc)
	ec.acc, ec.accp = nil, nil
	// The machine is done: no step can touch the staging or bufio
	// state after evDone, so their buffers go back to their pools.
	putBuf(&stagePool, ec.arenap, ec.stage.arena)
	ec.stage.arena, ec.arenap = nil, nil
	ec.stage.recs = nil
	ec.rw.bw.Reset(io.Discard)
	srvBwPool.Put(ec.rw.bw)
	ec.rw.bw = nil
	s := ec.s
	s.mu.Lock()
	s.active--
	s.mu.Unlock()
}

// putBuf returns buf, which may have grown past the buffer *p held when
// it came from pool, to pool through p itself: a fresh pointer per Put
// would be one allocation. Buffers grown past maxPooledBuf are left to
// the collector.
func putBuf(pool *sync.Pool, p *[]byte, buf []byte) {
	if cap(buf) <= maxPooledBuf {
		*p = buf[:0]
		pool.Put(p)
	}
}

// fill copies arrived bytes into acc until it holds at least need.
// Returns ok when satisfied; a nil !ok return means the machine waits
// for the armed readable callback. err is terminal (EOF, abort).
func (ec *eventConn) fill(need int) (bool, error) {
	for len(ec.acc) < need {
		view, err := ec.c.ReadBuf()
		if err != nil {
			return false, err
		}
		if view == nil {
			return false, nil
		}
		ec.acc = append(ec.acc, view...)
		ec.c.Release(len(view))
	}
	return true, nil
}

// consume discards the oldest n accumulated bytes.
func (ec *eventConn) consume(n int) {
	k := copy(ec.acc, ec.acc[n:])
	ec.acc = ec.acc[:k]
}

// advance cranks the machine as far as current observable state
// allows, re-arming (returning) when it must wait for an arrival, for
// send-buffer space, for a delay timer or for a continuation to
// resume. Every wake funnels here.
func (ec *eventConn) advance() {
	for {
		switch ec.state {
		case evDone:
			return

		case evSwallow:
			// A blackholed connection reads and discards forever,
			// terminating only when the peer fails it.
			for {
				view, err := ec.c.ReadBuf()
				if err != nil {
					ec.finish()
					return
				}
				if view == nil {
					return
				}
				ec.c.Release(len(view))
			}

		case evHandshake:
			ok, err := ec.fill(ec.hsNeed)
			if err != nil {
				ec.finish()
				return
			}
			if !ok {
				return
			}
			step := &ec.script[ec.flight]
			if !ec.hsHdrOK {
				size, err := handshake.ParseHeader(ec.acc[:handshake.HeaderLen], step.Expect)
				if err != nil {
					ec.finish()
					return
				}
				ec.hsHdrOK = true
				ec.hsNeed = handshake.HeaderLen + size
				continue
			}
			ec.consume(ec.hsNeed)
			ec.hsNeed, ec.hsHdrOK = 0, false
			// Processing delay (Δ₁ or Δ₂) before the response flight: the
			// timer fires once it has elapsed (synchronously when the
			// delay is zero).
			ec.state = evDelay
			ec.delayDone = false
			ec.delay.Schedule(ec.s.clock.Now().Add(step.Delay))

		case evDelay:
			if !ec.delayDone {
				return
			}
			ec.sendBuf = ec.script[ec.flight].Send
			ec.sendOff = 0
			ec.state = evSend

		case evSend:
			for ec.sendOff < len(ec.sendBuf) {
				n, err := ec.c.TryWrite(ec.sendBuf[ec.sendOff:])
				ec.sendOff += n
				if err != nil {
					ec.finish()
					return
				}
				if ec.sendOff < len(ec.sendBuf) {
					return // send buffer full; resume on writable
				}
			}
			ec.sendBuf = nil
			ec.flight++
			if ec.flight < len(ec.script) {
				ec.state = evHandshake
				ec.hsNeed = handshake.HeaderLen
				continue
			}
			ec.state = evRequest

		case evRequest:
			if !ec.readRequest() {
				return
			}

		case evPump:
			if ec.waiting || !ec.pump() {
				return
			}
			req := ec.pendReq
			if req != nil && ec.failErr == nil && !ec.ended {
				// The handler and its continuations are done: frame the
				// body's end, as a blocking server does the instant its
				// handler returns, and pump that too.
				ec.ended = true
				ec.pendKA = ec.rw.finish() && !req.Close
				continue
			}
			ec.pendReq = nil
			if ec.failErr != nil {
				if req != nil && ec.s.reqDone != nil {
					ec.s.reqDone(req, ec.failWritten, true)
				}
				ec.finish()
				return
			}
			if req != nil && ec.s.reqDone != nil {
				ec.s.reqDone(req, ec.rw.written, false)
			}
			if !ec.pendKA {
				ec.finish()
				return
			}
			ec.stage.reset()
			ec.state = evRequest
		}
	}
}

// readRequest accumulates, parses and dispatches one request. It
// returns false when the machine must wait for more input (or has
// reached a terminal state).
func (ec *eventConn) readRequest() bool {
	if ec.req == nil {
		// Accumulate until the header terminator is visible.
		he := ec.headEnd()
		for he < 0 {
			ok, err := ec.fill(len(ec.acc) + 1)
			if err != nil {
				ec.finish()
				return false
			}
			if !ok {
				return false
			}
			he = ec.headEnd()
		}
		req, err := ec.head.parse(ec.acc[:he])
		if err != nil {
			ec.finish()
			return false
		}
		if len(req.TransferEncoding) > 0 {
			// Chunked request bodies never occur in this tree; the
			// machine does not reassemble them.
			ec.finish()
			return false
		}
		ec.req = req
		ec.reqTotal = he
		if req.ContentLength > 0 {
			ec.reqTotal += int(req.ContentLength)
		}
	}
	// A declared body is buffered before dispatch (the handler cannot
	// park to wait for it); bodyless requests — all traffic in this
	// tree — dispatch at the instant the header terminator arrives.
	ok, err := ec.fill(ec.reqTotal)
	if err != nil {
		ec.finish()
		return false
	}
	if !ok {
		return false
	}
	req := ec.req
	ec.req = nil
	if ec.s.blackhole.Load() {
		ec.acc = ec.acc[:0]
		ec.scan = 0
		ec.state = evSwallow
		return true
	}
	req.RemoteAddr = ec.remoteAddr
	if req.ContentLength > 0 {
		req.Body = io.NopCloser(bytes.NewReader(ec.acc[ec.reqTotal-int(req.ContentLength) : ec.reqTotal]))
	}
	ec.dispatch(req)
	ec.consume(ec.reqTotal)
	ec.scan = 0
	return true
}

// headEnd returns the length of the request head at the front of acc,
// through the blank line that ends it, or -1 while acc holds none. The
// search resumes at ec.scan, three bytes before the end of acc at the
// previous miss, so a terminator split across arrivals is still found.
func (ec *eventConn) headEnd() int {
	if i := bytes.Index(ec.acc[ec.scan:], crlfcrlf); i >= 0 {
		return ec.scan + i + len(crlfcrlf)
	}
	if len(ec.acc) >= len(crlfcrlf)-1 {
		ec.scan = len(ec.acc) - (len(crlfcrlf) - 1)
	}
	return -1
}

// dispatch stages one response: the handler runs inline (at the
// request parse instant) against the staging writer, and the machine
// transitions to the pump.
func (ec *eventConn) dispatch(req *http.Request) {
	s := ec.s
	w := ec.rw
	w.reset(req.Method == http.MethodHead)
	ec.stage.reset()
	if s.reqStart != nil {
		s.reqStart(req)
	}
	ec.pendReq, ec.pendKA, ec.ended = req, false, false
	ec.failErr = nil
	ec.run(func() {
		s.h.ServeHTTP(w, req)
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
	})
	ec.state = evPump
	ec.pumpIdx, ec.pumpOff = 0, 0
}

// run calls a handler step — ServeHTTP or a continuation — containing
// a panic to this connection, as net/http's server does: the request
// is reported aborted and the conn dies, though the calls the handler
// staged before panicking still reach the wire.
func (ec *eventConn) run(step func()) {
	defer func() {
		if e := recover(); e != nil {
			fmt.Fprintf(os.Stderr, "httpx: panic serving %v: %v\n%s", ec.c.RemoteAddr(), e, debug.Stack())
			if ec.pendReq != nil && ec.s.reqDone != nil {
				ec.s.reqDone(ec.pendReq, ec.rw.written, true)
			}
			ec.pendReq = nil
			ec.pendKA = false
			ec.waiting = false
		}
	}()
	step()
}

// pump replays the staged calls through TryWrite, preserving each
// call's boundary (segment sizes depend on the remaining length of the
// call in progress), and runs continuations as it reaches them. It
// returns false when it must wait: for send-buffer space (the armed
// writable callback resumes it) or for a continuation to resume. After
// a call fails, the calls behind it are dropped, but continuations
// still run and see the failure.
func (ec *eventConn) pump() bool {
	for ec.pumpIdx < len(ec.stage.recs) {
		rec := &ec.stage.recs[ec.pumpIdx]
		if rec.cont != nil {
			fn, n, err := rec.cont, rec.acked, ec.failErr
			if err != nil {
				n = ec.failAcked
			}
			if ec.resume == nil {
				resumed := func() {
					ec.waiting = false
					ec.advance()
				}
				ec.resume = func() { ec.loop.Do(resumed) }
			}
			ec.pumpIdx++
			ec.waiting = true
			ec.run(func() { fn(n, err, ec.resume) })
			if ec.waiting {
				return false
			}
			continue
		}
		for ec.failErr == nil && ec.pumpOff < len(rec.data) {
			var n int
			var err error
			if rec.stable {
				n, err = ec.c.TryWriteStable(rec.data[ec.pumpOff:])
			} else {
				n, err = ec.c.TryWrite(rec.data[ec.pumpOff:])
			}
			ec.pumpOff += n
			if err != nil {
				// The replay failed where a blocking writer's conn write
				// would have: the snapshots are what it would have counted.
				ec.failErr = err
				ec.failWritten = rec.written
				ec.failAcked = rec.acked
				if rec.direct {
					ec.failAcked += int64(ec.pumpOff)
				}
			} else if ec.pumpOff < len(rec.data) {
				return false
			}
		}
		ec.pumpIdx++
		ec.pumpOff = 0
	}
	return true
}

// After continues the response w is writing once every byte written to
// it so far is on the wire — the instant a blocking Write of those
// bytes would have returned. fn then runs in the connection's loop with
// the body bytes the handler's writes have reported written and, when
// the connection failed putting them on the wire, the error that cut
// the response short: the count is then what the failing blocking
// write would have returned, and nothing written afterwards is sent.
// Writes the handler makes after calling After — synchronously, or
// inside fn — go out only once fn has called resume, which it must do
// exactly once, from any goroutine; until then the connection waits.
// That is how a handler paces a body or waits for a cache fill without
// parking. The response ends once the handler has returned and no
// continuation is pending. w must be the ResponseWriter the Server
// handed the handler.
func After(w http.ResponseWriter, fn func(written int64, err error, resume func())) {
	rw := w.(*responseWriter)
	rw.conn.recs = append(rw.conn.recs, stageRec{cont: fn, acked: rw.written})
}

// stageRec is one recorded connection-level write call, or a
// continuation (cont) registered by After. written and acked are the
// responseWriter's counts when the call was issued: when the replay of
// this record fails, written is the body-byte count a blocking
// server's aborted reqDone would have reported (body bytes are counted
// before the connection write they trigger, and a stop-on-error handler
// issues no calls after the failing one), and acked — plus the accepted
// prefix of a direct write — what the failing write would have
// returned.
type stageRec struct {
	data    []byte
	stable  bool // data aliases an immutable view (TryWriteStable)
	direct  bool // a body write handed over whole rather than a buffer flush
	written int64
	acked   int64
	cont    func(written int64, err error, resume func())
}

// stageWriter is the connection the responseWriter writes into: it
// records every connection-level call — boundaries preserved — for the
// pump to replay.
type stageWriter struct {
	rw    *responseWriter
	arena []byte
	recs  []stageRec
}

// reset empties the stage, dropping the records' references — stable
// views and continuations — so an idle keep-alive connection pins no
// page buffer its last response aliased.
func (st *stageWriter) reset() {
	st.arena = st.arena[:0]
	clear(st.recs)
	st.recs = st.recs[:0]
}

// Write records a flush of the responseWriter's buffer, copying it into
// the arena: bufio reuses its buffer immediately.
func (st *stageWriter) Write(p []byte) (int, error) {
	st.record(p, false, false)
	return len(p), nil
}

// record stages one connection-level call. A stable p — an immutable
// view of the origin's page cache or the edge's page store, handed down
// whole from WriteStable — is aliased instead of copied, keeping the
// zero-copy path zero-copy: the stage is a delivery-chain tier like the
// netem pipe, and the record holds the view only until the pump hands
// it to TryWriteStable on the same connection.
func (st *stageWriter) record(p []byte, stable, direct bool) {
	if !stable {
		off := len(st.arena)
		st.arena = append(st.arena, p...)
		p = st.arena[off:len(st.arena):len(st.arena)]
	}
	st.recs = append(st.recs, stageRec{data: p, stable: stable, direct: direct,
		written: st.rw.written, acked: st.rw.acked})
}

package httpx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	neturl "net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/handshake"
	"repro/internal/netem"
)

// Event-loop client engine.
//
// EventTransport runs each request as a netem completion-API state
// machine on the session's event loop, so a fleet-scale population
// runs on the clock's one driver instead of O(sessions) goroutines. Each machine plays
// the connection-level script of an HTTP/1.1 client over a secure
// connection — the handshake script's message boundaries, one rendered
// request write (byte-equal to net/http's Request.Write), response
// reads at their arrival instants — and its observable timeline is
// pinned in testdata/client_timeline.txt, recorded from the blocking
// client this engine replaced. Range bodies are delivered as borrowed
// segment views (Conn.ReadBuf) instead of copies; the consumer hands
// them back through the release callback, and a per-connection FIFO
// ledger reconciles held body views with the immediately-releasable
// protocol bytes around them (Conn.Release is strictly FIFO per
// direction).
//
// Every method and callback runs as a step on the transport's Loop:
// callers must invoke Get/GetRangeViews/Shutdown from loop steps (or
// before any machine exists), and completion callbacks fire on the
// loop. Nothing here parks, and no internal locking is needed.

// EventTransport is the emulation's HTTP client: one per (session,
// interface), sharing the session's Loop with the machines of every
// other path so their steps serialize without locks. Idle connections
// are pooled per server address (keep-alive), up to maxIdlePerHost.
type EventTransport struct {
	iface *netem.Interface
	clock *netem.Clock
	loop  *netem.Loop

	reqTimeout time.Duration
	hedge      time.Duration

	idle   map[string][]*evClientConn
	live   map[*evClientConn]struct{}
	closed error

	// The last URL a request targeted and what it parsed to: a path
	// fetches every chunk from the same URL.
	lastURL                     string
	lastAddr, lastHost, lastURI string

	// freeViews holds the view slices of released 206 bodies, emptied,
	// for the next body's views: every machine runs on this transport's
	// one loop, so a plain free list serves.
	freeViews [][][]byte
}

// NewEventTransport builds an event-loop transport over iface whose
// machines run as steps of loop.
func NewEventTransport(iface *netem.Interface, clock *netem.Clock, loop *netem.Loop) *EventTransport {
	return &EventTransport{
		iface: iface,
		clock: clock,
		loop:  loop,
		idle:  make(map[string][]*evClientConn),
		live:  make(map[*evClientConn]struct{}),
	}
}

// Loop returns the event loop the transport's machines run on.
func (t *EventTransport) Loop() *netem.Loop { return t.loop }

// SetRequestTimeout arms a per-request deadline: every subsequent
// request attempt that has not delivered its full body within d of
// starting is aborted with ErrRequestTimeout at exactly that virtual
// instant, converting a blackholed server (accepts connections, never
// responds) into a retryable error instead of an eternal wait. The
// deadline covers the whole attempt — dial, handshake, request write,
// response head and body; the retry-once on a reused connection runs
// under a fresh deadline. Zero disables it.
func (t *EventTransport) SetRequestTimeout(d time.Duration) { t.reqTimeout = d }

// SetHedge arms a hedge budget alongside the request deadline: every
// subsequent attempt still in flight d after starting is aborted with
// ErrHedged at exactly that virtual instant, so the caller can reissue
// the range against another source with most of the deadline budget
// intact. The hedge must be shorter than the request deadline to be
// useful; zero disables it.
func (t *EventTransport) SetHedge(d time.Duration) { t.hedge = d }

// Shutdown retires the transport at the caller's instant: new
// requests fail with err (nil means a generic shut-down error), idle
// connections close gracefully, and in-use connections are aborted
// with err, so their machines — and the server machines serving them —
// observe the failure at exactly this instant. Idempotent.
func (t *EventTransport) Shutdown(err error) {
	if err == nil {
		err = errTransportClosed
	}
	if t.closed != nil {
		return
	}
	t.closed = err
	idle := t.idle
	t.idle = make(map[string][]*evClientConn)
	idleSet := make(map[*evClientConn]bool, len(idle))
	for _, pcs := range idle {
		for _, pc := range pcs {
			idleSet[pc] = true
		}
	}
	var inUse []*evClientConn
	for pc := range t.live { //detlint:allow maprange -- all aborts land at the caller's single pinned virtual instant; sweep order is unobservable
		if !idleSet[pc] {
			inUse = append(inUse, pc)
		}
	}
	for _, pcs := range idle {
		for _, pc := range pcs {
			t.retire(pc) // graceful close: the server sees EOF, not an abort
		}
	}
	for _, pc := range inUse {
		pc.c.Abort(err)
	}
}

// Get issues a bodyless GET and collects the response. A 200 response
// delivers its full body at the instant the last framing byte is
// consumed; any other status delivers (status, nil, nil) at its first
// body byte and retires the connection (the body is never read).
// Transport errors arrive unwrapped.
func (t *EventTransport) Get(url string, cb func(status int, body []byte, err error)) {
	rq := &evReq{done: getDone, getCB: cb}
	if !t.target(rq, url) {
		cb(0, nil, fmt.Errorf("httpx: invalid url %q", url))
		return
	}
	t.startRequest(rq)
}

// GetRangeViews fetches the inclusive byte range [from, to] of url and
// delivers the 206 body as borrowed views of the connection's arrived
// segments. The views, and the slice that holds them, are valid until
// release is called (from a loop step); releasing returns the bytes to
// the pipe's segment pool, completing the zero-copy read path, and the
// slice to the transport for a later body. Any status but 206 fails
// with a *StatusError carrying up to 512 bytes of the error body; a 206
// of the wrong length fails too.
func (t *EventTransport) GetRangeViews(url string, from, to int64, cb func(views [][]byte, release func(), err error)) {
	if to < from {
		cb(nil, nil, fmt.Errorf("httpx: invalid range %d-%d", from, to))
		return
	}
	rq := &evReq{
		done:      rangeDone,
		rangeCB:   cb,
		url:       url,
		hasRange:  true,
		rangeFrom: from,
		rangeTo:   to,
	}
	if !t.target(rq, url) {
		cb(nil, nil, fmt.Errorf("httpx: invalid url %q", url))
		return
	}
	t.startRequest(rq)
}

// getDone delivers a Get's result to its callback.
func getDone(rq *evReq, res evResult, err error) {
	if err != nil {
		rq.getCB(0, nil, err)
		return
	}
	rq.getCB(res.status, res.body, nil)
}

// rangeDone delivers a GetRangeViews result to its callback.
func rangeDone(rq *evReq, res evResult, err error) {
	cb, from, to := rq.rangeCB, rq.rangeFrom, rq.rangeTo
	if err != nil {
		cb(nil, nil, err)
		return
	}
	if res.status != 206 {
		// Non-206: the collected (≤512-byte) prefix becomes the
		// StatusError message.
		cb(nil, nil, &StatusError{Code: res.status,
			Msg: fmt.Sprintf("range %d-%d of %s: %.80s", from, to, rq.url, res.body)})
		return
	}
	want := to - from + 1
	if res.bodyN != want {
		cb(nil, nil, fmt.Errorf("httpx: range %d-%d returned %d bytes, want %d", from, to, res.bodyN, want))
		return
	}
	if res.views == nil {
		// Collect fallback (chunked or mis-declared 206, never produced
		// by the emulated origin): hand the copy over as a single view.
		body := res.body
		cb([][]byte{body}, func() {}, nil)
		return
	}
	cb(res.views, res.release, nil)
}

// evResult is one completed exchange, pre-interpretation.
type evResult struct {
	status  int
	body    []byte   // collect mode
	views   [][]byte // borrow mode (206 range bodies)
	release func()
	bodyN   int64 // logical body bytes
}

// evClientConn is one client connection shared by successive request
// machines (keep-alive pooling).
type evClientConn struct {
	t      *EventTransport
	c      *netem.Conn
	addr   string
	secure bool
	rq     *evReq // in-flight request machine; nil when idle

	// relq is the FIFO release ledger: every consumed stream byte is
	// accounted here in arrival order, either immediately releasable
	// (protocol bytes, copied-out bodies) or held until the borrow's
	// consumer releases it. Conn.Release is strictly FIFO, so held body
	// views block the release of later protocol bytes until then.
	relq []crelSeg
}

type viewHold struct{ released bool }

type crelSeg struct {
	n    int
	hold *viewHold // nil: releasable once it reaches the queue head
}

func (pc *evClientConn) pushRel(n int, hold *viewHold) {
	if n == 0 {
		return
	}
	if k := len(pc.relq) - 1; k >= 0 && pc.relq[k].hold == hold {
		pc.relq[k].n += n
	} else {
		pc.relq = append(pc.relq, crelSeg{n: n, hold: hold})
	}
}

// drainRel releases the maximal releasable prefix of the ledger.
func (pc *evClientConn) drainRel() {
	n, i := 0, 0
	for ; i < len(pc.relq); i++ {
		seg := pc.relq[i]
		if seg.hold != nil && !seg.hold.released {
			break
		}
		n += seg.n
	}
	if i > 0 {
		pc.relq = append(pc.relq[:0], pc.relq[i:]...)
	}
	if n > 0 {
		pc.c.Release(n)
	}
}

// step is the conn's readable/writable callback target; pooled idle
// conns ignore events (an abort while pooled is discovered on reuse).
func (pc *evClientConn) step() {
	if pc.rq != nil {
		pc.rq.advance()
	}
}

// retire closes a connection for good and forgets it.
func (t *EventTransport) retire(pc *evClientConn) {
	delete(t.live, pc)
	pc.c.OnReadable(nil)
	pc.c.OnWritable(nil)
	pc.c.Close()
}

func (t *EventTransport) putIdle(pc *evClientConn) {
	pc.rq = nil
	if t.closed == nil && len(t.idle[pc.addr]) < maxIdlePerHost {
		t.idle[pc.addr] = append(t.idle[pc.addr], pc)
		return
	}
	t.retire(pc)
}

// dropIdle discards every pooled connection to addr (the retry-once
// flush: a pooled conn's siblings are likely dead too).
func (t *EventTransport) dropIdle(addr string) {
	pcs := t.idle[addr]
	delete(t.idle, addr)
	for _, pc := range pcs {
		t.retire(pc)
	}
}

// evcState enumerates the request machine's states.
type evcState int

const (
	evcDial   evcState = iota // waiting for the dial completion
	evcHsSend                 // pumping a handshake flight
	evcHsRecv                 // accumulating one expected handshake message
	evcSend                   // pumping the rendered request
	evcHead                   // accumulating the response head
	evcBody                   // consuming the framed body
	evcDone                   // terminal
)

// ckState enumerates the chunked-framing decoder's states.
type ckState int

const (
	ckSize    ckState = iota // accumulating the hex size line
	ckData                   // consuming chunk data
	ckDataCR                 // consuming the CRLF after chunk data
	ckTrailer                // consuming the trailer section after the 0 chunk
)

// maxChunkLine is net/http's bound on a chunk-size line and, as the
// default bufio.Reader size its transport reads through, on a chunked
// body's trailer section.
const maxChunkLine = 4096

// evReq is one GET exchange as a state machine, attempt by attempt:
// a failure to write the request or read the response head on a reused
// connection is retried once on a fresh dial, and every attempt runs
// under its own request deadline.
type evReq struct {
	t *EventTransport
	// done interprets the result for the caller's callback, getCB or
	// rangeCB: a plain function, so a request costs no closure.
	done    func(rq *evReq, res evResult, err error)
	getCB   func(status int, body []byte, err error)
	rangeCB func(views [][]byte, release func(), err error)
	url     string

	addr, host, uri    string
	hasRange           bool
	rangeFrom, rangeTo int64

	attempt int
	reused  bool
	pc      *evClientConn
	state   evcState

	dl      *netem.Timer // request deadline
	hdl     *netem.Timer // hedge budget
	dlFired bool
	dlErr   error // which budget fired: ErrRequestTimeout or ErrHedged

	script  [3]handshake.ClientStep
	flight  int
	hsNeed  int
	hsHdrOK bool

	sendBuf    []byte
	sendOff    int
	sendPooled *[]byte

	acc  []byte
	accp *[]byte // the headPool entry acc came from
	scan int

	status        int
	contentLength int64
	chunked       bool
	respClose     bool
	conndead      bool // body completed but the conn must not be pooled

	collectBody bool
	bodyLimit   int64 // collect: retire the conn at logical byte limit+1 (-1: none)
	discard     bool  // non-200 Get: retire at the first body byte
	body        []byte
	bodyN       int64
	remain      int64 // Content-Length countdown
	views       [][]byte
	hold        *viewHold

	ck       ckState
	ckRemain int64
	ckLine   []byte
	ckExcess int64 // framing-byte budget spent, as net/http counts it
}

// target parses the request URL into dial address, Host header and
// request URI, as http.NewRequest + Request.Write render them.
func (rq *evReq) target(url string) bool {
	u, err := neturl.Parse(url)
	if err != nil || u.Host == "" {
		return false
	}
	rq.host = u.Host
	rq.uri = u.RequestURI()
	rq.addr = u.Host
	if u.Port() == "" {
		rq.addr = rq.addr + ":80"
	}
	return true
}

// target sets rq's target from url, parsing it only when it differs
// from the previous request's.
func (t *EventTransport) target(rq *evReq, url string) bool {
	if url != t.lastURL || url == "" {
		if !rq.target(url) {
			return false
		}
		t.lastURL, t.lastAddr, t.lastHost, t.lastURI = url, rq.addr, rq.host, rq.uri
		return true
	}
	rq.addr, rq.host, rq.uri = t.lastAddr, t.lastHost, t.lastURI
	return true
}

func (t *EventTransport) startRequest(rq *evReq) {
	rq.t = t
	rq.accp = headPool.Get().(*[]byte)
	rq.acc = (*rq.accp)[:0]
	rq.script = handshake.ClientScript()
	rq.armDeadline()
	rq.getConn()
}

// armDeadline starts the per-attempt deadline and hedge budget: each
// attempt — including the retry — gets the full budgets, and firing
// aborts whatever conn the attempt holds. The deadline timer is
// created before the hedge timer, so at a shared instant the deadline
// fires first.
func (rq *evReq) armDeadline() {
	t := rq.t
	if t.reqTimeout <= 0 && t.hedge <= 0 {
		return
	}
	rq.dlFired = false
	rq.dlErr = nil
	now := t.clock.Now()
	if t.reqTimeout > 0 {
		if rq.dl == nil {
			rq.dl = t.clock.NewTimer(func() { t.loop.Do(rq.onDeadline) })
		}
		rq.dl.Schedule(now.Add(t.reqTimeout))
	}
	if t.hedge > 0 {
		if rq.hdl == nil {
			rq.hdl = t.clock.NewTimer(func() { t.loop.Do(rq.onHedge) })
		}
		rq.hdl.Schedule(now.Add(t.hedge))
	}
}

// stopTimers cancels both pending budgets.
func (rq *evReq) stopTimers() {
	if rq.dl != nil {
		rq.dl.Stop()
	}
	if rq.hdl != nil {
		rq.hdl.Stop()
	}
}

func (rq *evReq) onDeadline() {
	if rq.state == evcDone || rq.dlFired {
		return
	}
	rq.dlFired = true
	rq.dlErr = ErrRequestTimeout
	if rq.pc != nil {
		// The machine's next read or write observes ErrRequestTimeout
		// once queued data drains (the delivered-before-abort rule).
		rq.pc.c.Abort(ErrRequestTimeout)
	}
}

func (rq *evReq) onHedge() {
	if rq.state == evcDone || rq.dlFired {
		return
	}
	rq.dlFired = true
	rq.dlErr = ErrHedged
	if rq.pc != nil {
		rq.pc.c.Abort(ErrHedged)
	}
}

func (rq *evReq) getConn() {
	t := rq.t
	if err := t.closed; err != nil {
		rq.fail(err, false)
		return
	}
	if pcs := t.idle[rq.addr]; len(pcs) > 0 {
		pc := pcs[len(pcs)-1]
		t.idle[rq.addr] = pcs[:len(pcs)-1]
		rq.reused = true
		rq.bind(pc)
		if rq.dlFired {
			pc.c.Abort(rq.dlErr)
		}
		rq.beginSend()
		rq.advance()
		return
	}
	rq.state = evcDial
	err := t.iface.DialEvent(rq.addr, func(c *netem.Conn, derr error) {
		t.loop.Do(func() { rq.onDial(c, derr) })
	})
	if err != nil {
		// Immediate dial failures (interface down, connection refused,
		// partition) surface synchronously.
		rq.fail(err, false)
	}
}

func (rq *evReq) onDial(c *netem.Conn, err error) {
	if err != nil {
		rq.fail(err, false)
		return
	}
	pc := &evClientConn{t: rq.t, c: c, addr: rq.addr}
	step := pc.step // bound once: a method value per wake would allocate
	wake := func() { pc.t.loop.Do(step) }
	c.OnReadable(wake)
	c.OnWritable(wake)
	rq.bind(pc)
	if rq.dlFired {
		// A budget elapsed while the dial was in flight: abort the
		// conn the moment it materialises. The handshake still runs and
		// fails on the aborted conn, wrapping the timeout in the
		// handshake error.
		c.Abort(rq.dlErr)
	}
	rq.flight = 0
	rq.beginHsSend()
	rq.advance()
}

func (rq *evReq) bind(pc *evClientConn) {
	rq.pc = pc
	pc.rq = rq
}

func (rq *evReq) beginHsSend() {
	rq.state = evcHsSend
	rq.sendBuf = rq.script[rq.flight].Send
	rq.sendOff = 0
}

func (rq *evReq) beginSend() {
	rq.state = evcSend
	bp := reqBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	// Byte-for-byte what net/http's Request.Write puts on the wire for
	// this request (TestWriteRequestMatchesNetHTTP pins it).
	b = append(b, "GET "...)
	b = append(b, rq.uri...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, rq.host...)
	b = append(b, "\r\nUser-Agent: Go-http-client/1.1\r\n"...)
	if rq.hasRange {
		b = append(b, "Range: bytes="...)
		b = strconv.AppendInt(b, rq.rangeFrom, 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, rq.rangeTo, 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	*bp = b
	rq.sendPooled = bp
	rq.sendBuf = b
	rq.sendOff = 0
}

func (rq *evReq) endSend() {
	rq.sendBuf = nil
	if rq.sendPooled != nil {
		reqBufPool.Put(rq.sendPooled)
		rq.sendPooled = nil
	}
}

// advance cranks the machine as far as current observable state
// allows; every wake (readable, writable, dial, deadline) funnels
// here. It returns when the machine waits for an event or reached a
// terminal state.
func (rq *evReq) advance() {
	for rq.state != evcDone {
		switch rq.state {
		case evcDial:
			return

		case evcHsSend, evcSend:
			for rq.sendOff < len(rq.sendBuf) {
				n, err := rq.pc.c.TryWrite(rq.sendBuf[rq.sendOff:])
				rq.sendOff += n
				if err != nil {
					rq.endSend()
					if rq.state == evcSend {
						rq.fail(fmt.Errorf("httpx: writing request: %w", err), true)
					} else {
						rq.fail(fmt.Errorf("httpx: secure handshake with %s: %w", rq.addr,
							fmt.Errorf("handshake: write msg %d: %w", rq.script[rq.flight].Send[0], err)), false)
					}
					return
				}
				if rq.sendOff < len(rq.sendBuf) {
					return // send buffer full; resume on writable
				}
			}
			if rq.state == evcHsSend {
				rq.sendBuf = nil
				rq.state = evcHsRecv
				rq.hsNeed = handshake.HeaderLen
				rq.hsHdrOK = false
			} else {
				rq.endSend()
				rq.state = evcHead
				rq.acc = rq.acc[:0]
				rq.scan = 0
			}

		case evcHsRecv, evcHead, evcBody:
			if !rq.readStep() {
				return
			}
		}
	}
}

// readStep consumes one arrived view (or the terminal read error)
// through the current receiving state, returning false when the
// machine must wait for the armed readable callback.
func (rq *evReq) readStep() bool {
	pc := rq.pc
	view, err := pc.c.ReadBuf()
	if err != nil {
		rq.readFail(err)
		return false
	}
	if view == nil {
		return false
	}
	off := 0
	for off < len(view) && rq.state != evcDone {
		var n int
		var hold *viewHold
		switch rq.state {
		case evcHsRecv:
			n = rq.feedHandshake(view[off:])
		case evcHead:
			n = rq.feedHead(view[off:])
		case evcBody:
			n, hold = rq.feedBody(view, off)
		default:
			// A state change mid-view back to a sending state (handshake
			// flights alternate): the remaining bytes belong to the next
			// expected message and stay queued — but the pipe delivers
			// strictly request-response, so this cannot happen. Guard by
			// treating the leftover as protocol bytes.
			n = len(view) - off
		}
		pc.pushRel(n, hold)
		off += n
		if rq.state == evcHsSend || rq.state == evcSend {
			// The machine turned around to send (next handshake flight or
			// the request); no response bytes can follow in this view.
			break
		}
	}
	if off < len(view) {
		// Leftover after a terminal state or a send turn-around: the
		// request-response protocol guarantees no response bytes follow,
		// so the tail is releasable residue (only ever seen on a conn
		// that is being retired after an error).
		pc.pushRel(len(view)-off, nil)
	}
	pc.drainRel()
	// The caller's advance loop dispatches on the (possibly new) state.
	return true
}

// readFail maps a read error to the failing stage's wrapped error: the
// handshake's header/body wraps (a partial header promotes EOF to
// ErrUnexpectedEOF), the response-head wrap, and a body cut short of
// its framing promoted to ErrUnexpectedEOF.
func (rq *evReq) readFail(err error) {
	switch rq.state {
	case evcHsRecv:
		if !rq.hsHdrOK {
			if err == io.EOF && len(rq.acc) > 0 {
				err = io.ErrUnexpectedEOF
			}
			err = fmt.Errorf("handshake: read header: %w", err)
		} else {
			err = fmt.Errorf("handshake: read body: %w", err)
		}
		rq.fail(fmt.Errorf("httpx: secure handshake with %s: %w", rq.addr, err), false)
	case evcHead:
		rq.fail(fmt.Errorf("httpx: reading response: %w", err), true)
	case evcBody:
		if err == io.EOF && !rq.chunked && rq.remain < 0 {
			// Close-delimited body: the server's EOF is the body's end.
			rq.complete()
			return
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if rq.hasRange {
			err = fmt.Errorf("httpx: reading range body: %w", err)
		}
		rq.fail(err, false)
	default:
		rq.fail(err, false)
	}
}

// feedHandshake accumulates one expected handshake message, advancing
// the client script a leg once the message is complete.
func (rq *evReq) feedHandshake(b []byte) int {
	take := min(len(b), rq.hsNeed-len(rq.acc))
	rq.acc = append(rq.acc, b[:take]...)
	if len(rq.acc) < rq.hsNeed {
		return take
	}
	if !rq.hsHdrOK {
		size, err := handshake.ParseHeader(rq.acc[:handshake.HeaderLen], rq.script[rq.flight].Expect)
		if err != nil {
			rq.fail(fmt.Errorf("httpx: secure handshake with %s: %w", rq.addr, err), false)
			return take
		}
		rq.hsHdrOK = true
		rq.hsNeed = handshake.HeaderLen + size
		return take
	}
	// Message complete (body bytes carry no information; discard).
	rq.acc = rq.acc[:0]
	rq.flight++
	if rq.flight < len(rq.script) {
		rq.beginHsSend()
		return take
	}
	rq.secured()
	return take
}

// secured finishes the connection handshake: the conn joins the live
// set and the request proceeds — unless the transport shut down while
// the dial or handshake was in flight (Shutdown's sweep could not see
// the conn), which retires it here.
func (rq *evReq) secured() {
	t := rq.t
	rq.pc.secure = true
	if err := t.closed; err != nil {
		t.retire(rq.pc)
		rq.pc = nil
		rq.fail(err, false)
		return
	}
	t.live[rq.pc] = struct{}{}
	rq.beginSend()
}

var evCrlf, evCrlfCrlf = []byte("\r\n"), []byte("\r\n\r\n")

// headPool recycles response-head accumulation buffers across
// requests: the proxy's padding header makes heads ~20 KB, far too
// much churn to allocate per request at fleet scale. A request takes a
// buffer when it starts and returns it when it delivers its result.
var headPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4<<10); return &b },
}

// putAcc returns the request's head-accumulation buffer to the pool.
// Only call when no live slice of acc can escape the request: after
// parseHead has copied out everything it interprets, results reference
// rq.body and rq.views, never acc.
func (rq *evReq) putAcc() {
	if rq.accp != nil {
		putBuf(&headPool, rq.accp, rq.acc)
	}
	rq.acc, rq.accp = nil, nil
}

// feedHead accumulates the response head and parses it at the
// terminator, transitioning to the framed body (or completing). Each
// view is scanned once: the search resumes at rq.scan, three bytes
// before the previous end of acc, so a terminator split across two
// views is still found.
func (rq *evReq) feedHead(b []byte) int {
	rq.acc = append(rq.acc, b...)
	i := bytes.Index(rq.acc[rq.scan:], evCrlfCrlf)
	if i < 0 {
		if len(rq.acc) >= len(evCrlfCrlf)-1 {
			rq.scan = len(rq.acc) - (len(evCrlfCrlf) - 1)
		}
		return len(b)
	}
	headLen := rq.scan + i + len(evCrlfCrlf)
	// b may extend past the head: return only the head's share of this
	// view; the caller re-feeds the rest to the body state.
	take := len(b) - (len(rq.acc) - headLen)
	rq.acc = rq.acc[:headLen]
	if err := rq.parseHead(); err != nil {
		rq.fail(fmt.Errorf("httpx: reading response: %w", err), true)
		return take
	}
	rq.beginBody()
	return take
}

// parseHead extracts what the machine needs from the accumulated head —
// status, Content-Length, chunked framing and whether the connection
// closes after the body — and accepts exactly the heads
// http.ReadResponse accepts (TestReadResponseMatchesNetHTTP and
// FuzzReadResponseHead hold it to that, at net/http's defaults since
// Go 1.22; bare-LF line ends are the one deliberate difference, since
// every emulated server writes CRLF). The server's request heads are
// held to net/http's ReadRequest by the same contract (reqHead.parse).
func (rq *evReq) parseHead() error {
	rq.status = 0
	rq.contentLength = -1
	rq.chunked = false
	rq.respClose = false
	line, rest := cutLine(rq.acc)
	proto, status, ok := bytes.Cut(line, []byte(" "))
	if !ok {
		return fmt.Errorf("malformed status line %q", line)
	}
	code, _, _ := bytes.Cut(bytes.TrimLeft(status, " "), []byte(" "))
	if len(code) != 3 {
		return fmt.Errorf("malformed status code in %q", line)
	}
	n, err := strconv.Atoi(string(code))
	if err != nil || n < 0 {
		return fmt.Errorf("malformed status code in %q", line)
	}
	major, minor, ok := parseVersion(proto)
	if !ok {
		return fmt.Errorf("malformed HTTP version in %q", line)
	}
	rq.status = n
	if len(rest) > 0 && (rest[0] == ' ' || rest[0] == '\t') {
		return fmt.Errorf("malformed initial header line")
	}
	var (
		cl                  []byte // first Content-Length value
		te                  []byte // last Transfer-Encoding value
		teLines             int
		hasClose, keepAlive bool
	)
	for {
		var key, val []byte
		key, val, rest, err = nextField(rest)
		if err != nil {
			return err
		}
		if key == nil {
			break
		}
		// Match the three interpreted keys by ASCII-case-insensitive
		// byte comparison and keep only views of their values:
		// canonicalising every key and copying every value would
		// allocate the ~20 KB padding header once per request.
		switch {
		case eqFold(key, "Content-Length"):
			val = trimOWS(val)
			if cl != nil && !bytes.Equal(cl, val) {
				return fmt.Errorf("conflicting Content-Length %q and %q", cl, val)
			}
			cl = val
		case eqFold(key, "Transfer-Encoding"):
			te = val
			teLines++
		case eqFold(key, "Connection"):
			hasClose = hasClose || hasToken(val, "close")
			keepAlive = keepAlive || hasToken(val, "keep-alive")
		}
	}
	if teLines > 0 && transferCoded(major, minor) {
		if teLines > 1 || !eqFold(te, "chunked") {
			return fmt.Errorf("unsupported Transfer-Encoding %q", te)
		}
		rq.chunked = true
	}
	if cl != nil {
		n, err := strconv.ParseUint(string(cl), 10, 63)
		if err != nil {
			return fmt.Errorf("malformed Content-Length %q", cl)
		}
		if !rq.chunked { // chunked framing overrides a length
			rq.contentLength = int64(n)
		}
	}
	rq.respClose = closes(major, minor, hasClose, keepAlive)
	return nil
}

// transferCoded reports whether a message of version major.minor heeds
// Transfer-Encoding: net/http ignores it before HTTP/1.1, and reads a
// 0.0 version as 1.1.
func transferCoded(major, minor int) bool {
	return major > 1 || major == 1 && minor >= 1 || major == 0 && minor == 0
}

// closes reports whether a message of version major.minor ends its
// connection, given whether its Connection fields list "close" and
// "keep-alive" (net/http's shouldClose).
func closes(major, minor int, hasClose, keepAlive bool) bool {
	switch {
	case major < 1:
		return true
	case major == 1 && minor == 0:
		return hasClose || !keepAlive
	}
	return hasClose
}

// nextField cuts the next header field off block as textproto's
// ReadMIMEHeader reads one: the line up to CRLF, OWS-trimmed or folded
// with any obs-fold continuation lines, split at its first colon into a
// name and a value with its leading OWS trimmed, both validated. (A
// folded value keeps the space that joins an empty continuation line, as
// textproto's does.) At the blank line that ends the block it returns a
// nil key and the bytes after that line.
func nextField(block []byte) (key, val, rest []byte, err error) {
	line, rest := cutLine(block)
	if line == nil {
		return nil, nil, nil, fmt.Errorf("truncated header section")
	}
	if len(line) == 0 {
		return nil, nil, rest, nil
	}
	colon := bytes.IndexByte(line, ':')
	if colon < 0 {
		return nil, nil, nil, fmt.Errorf("malformed header line %q", line)
	}
	if len(rest) > 0 && (rest[0] == ' ' || rest[0] == '\t') {
		line, rest = foldLines(line, rest)
	} else {
		line = trimOWS(line)
	}
	key, val = line[:colon], line[colon+1:]
	if !validFieldName(key, true) || !validFieldValue(val) {
		return nil, nil, nil, fmt.Errorf("malformed header line %q", line)
	}
	for len(val) > 0 && (val[0] == ' ' || val[0] == '\t') {
		val = val[1:]
	}
	return key, val, rest, nil
}

// parseVersion is http.ParseHTTPVersion over bytes.
func parseVersion(b []byte) (major, minor int, ok bool) {
	if len(b) != len("HTTP/X.Y") || string(b[:5]) != "HTTP/" || b[6] != '.' ||
		!isDigit(b[5]) || !isDigit(b[7]) {
		return 0, 0, false
	}
	return int(b[5] - '0'), int(b[7] - '0'), true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// cutLine splits b at its first CRLF, returning nil when there is none.
func cutLine(b []byte) (line, rest []byte) {
	i := bytes.Index(b, evCrlf)
	if i < 0 {
		return nil, nil
	}
	return b[:i], b[i+2:]
}

// foldLines joins the obs-fold continuation lines (opening with SP or
// HTAB) at the front of rest onto line as textproto does: each line
// trimmed, joined by one space. No emulated server folds a header, so
// the copy stays off the hot path.
func foldLines(line, rest []byte) (folded, after []byte) {
	folded = append([]byte(nil), trimOWS(line)...)
	for len(rest) > 0 && (rest[0] == ' ' || rest[0] == '\t') {
		var cont []byte
		cont, rest = cutLine(rest)
		folded = append(append(folded, ' '), trimOWS(cont)...)
	}
	return folded, rest
}

// tchar marks RFC 7230's token bytes, the alphabet of a header name.
var tchar = func() (t [256]bool) {
	for _, c := range []byte("!#$%&'*+-.^_`|~0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz") {
		t[c] = true
	}
	return t
}()

// validFieldName reports whether name is a non-empty run of token
// bytes; spaceOK admits SP as well, which textproto accepts (without
// canonicalising) when it reads a header.
func validFieldName[S string | []byte](name S, spaceOK bool) bool {
	for i := 0; i < len(name); i++ {
		if !tchar[name[i]] && !(spaceOK && name[i] == ' ') {
			return false
		}
	}
	return len(name) > 0
}

// validFieldValue reports whether every byte of v is one textproto
// admits in a header value: VCHAR, SP, HTAB or obs-text. It tests eight
// bytes per step, because the proxy's padding value is 20 KB.
func validFieldValue(v []byte) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; len(v) >= 8; v = v[8:] {
		x := binary.LittleEndian.Uint64(v)
		// Non-zero iff a byte is below 0x20 or equals 0x7f; bytes with
		// the high bit set (obs-text) never flag. Only then look closer:
		// HTAB is the one control byte a value may hold.
		if ((x-0x20*ones)|((x^0x7f*ones)-ones))&^x&highs != 0 && !validValueBytes(v[:8]) {
			return false
		}
	}
	return validValueBytes(v)
}

func validValueBytes(v []byte) bool {
	for _, c := range v {
		if c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}

// hasToken reports whether the comma-separated list v holds token,
// ASCII case-insensitively (httpguts.HeaderValuesContainsToken).
func hasToken[S string | []byte](v S, token string) bool {
	for len(v) > 0 {
		i := 0
		for i < len(v) && v[i] != ',' {
			i++
		}
		if eqFold(trimOWS(v[:i]), token) {
			return true
		}
		v = v[min(i+1, len(v)):]
	}
	return false
}

// eqFold reports ASCII case-insensitive equality of b and s without
// allocating.
func eqFold[S string | []byte](b S, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c, d := b[i], s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if 'A' <= d && d <= 'Z' {
			d += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}

// trimOWS trims SP and HTAB from both ends of b.
func trimOWS[S string | []byte](b S) S {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// beginBody selects the body mode from the parsed head: the framing
// (none, Content-Length, chunked or close-delimited) and what is kept
// of it (borrowed views, a collected copy, a ≤512-byte error prefix,
// or nothing).
func (rq *evReq) beginBody() {
	rq.state = evcBody
	rq.body = nil
	rq.bodyN = 0
	rq.views = nil
	rq.hold = nil
	rq.bodyLimit = -1
	rq.discard = false
	rq.collectBody = true

	if rq.status == 204 || rq.status == 304 || rq.status/100 == 1 {
		rq.complete()
		return
	}
	switch {
	case rq.hasRange && rq.status != 206:
		// At most 512 bytes of an error body are kept for the
		// StatusError message; the conn is retired at the arrival of
		// byte 513.
		rq.bodyLimit = 512
	case !rq.hasRange && rq.status != 200:
		// A non-200 body is never read: the conn is retired at its
		// first byte.
		rq.discard = true
	case rq.hasRange && rq.status == 206 && !rq.chunked &&
		rq.contentLength == rq.rangeTo-rq.rangeFrom+1:
		// The exact-length 206: deliver borrowed views, zero-copy.
		rq.collectBody = false
		rq.hold = &viewHold{}
		if n := len(rq.t.freeViews); n > 0 {
			rq.views = rq.t.freeViews[n-1]
			rq.t.freeViews = rq.t.freeViews[:n-1]
		}
	}
	switch {
	case rq.chunked:
		rq.ck = ckSize
		rq.ckRemain = 0
		rq.ckLine = rq.ckLine[:0]
		rq.ckExcess = 0
	case rq.contentLength >= 0:
		rq.remain = rq.contentLength
		if rq.remain == 0 {
			rq.complete()
		}
	default:
		// Close-delimited: the body ends at the server's EOF, which also
		// retires the conn.
		rq.respClose = true
		rq.remain = -1
	}
}

// feedBody consumes body bytes from view[off:], returning the consumed
// count and, for borrowed body bytes, the hold that keeps them from
// being released until the consumer hands them back.
func (rq *evReq) feedBody(view []byte, off int) (int, *viewHold) {
	b := view[off:]
	if rq.chunked {
		return rq.feedChunked(b), nil
	}
	take := len(b)
	if rq.remain >= 0 && int64(take) > rq.remain {
		take = int(rq.remain)
	}
	hold := rq.consumeBody(view, off, take)
	if rq.remain > 0 {
		rq.remain -= int64(take)
		if rq.remain == 0 && rq.state != evcDone {
			rq.complete()
		}
	}
	return take, hold
}

// consumeBody accounts take logical body bytes from view[off:].
func (rq *evReq) consumeBody(view []byte, off, take int) *viewHold {
	if take == 0 {
		return nil
	}
	rq.bodyN += int64(take)
	if rq.discard {
		// First body byte: retire the conn, deliver the status-only
		// result (the rest of the view is residue on a dead conn).
		rq.conndead = true
		rq.complete()
		return nil
	}
	if rq.bodyLimit >= 0 && rq.bodyN > rq.bodyLimit {
		keep := take - int(rq.bodyN-rq.bodyLimit)
		if keep > 0 {
			rq.body = append(rq.body, view[off:off+keep]...)
		}
		rq.bodyN = rq.bodyLimit
		rq.conndead = true
		rq.complete()
		return nil
	}
	if rq.collectBody {
		rq.body = append(rq.body, view[off:off+take]...)
		return nil
	}
	sub := view[off : off+take : off+take]
	rq.views = append(rq.views, sub)
	return rq.hold
}

// feedChunked decodes chunked framing from b, collecting data bytes.
// Framing bytes and collected data are all immediately releasable.
func (rq *evReq) feedChunked(b []byte) int {
	n := 0
	for n < len(b) && rq.state != evcDone {
		switch rq.ck {
		case ckSize:
			c := b[n]
			n++
			rq.ckLine = append(rq.ckLine, c)
			if len(rq.ckLine) >= maxChunkLine {
				rq.fail(fmt.Errorf("httpx: chunk size line too long"), false)
				return n
			}
			if c != '\n' {
				continue
			}
			size, err := rq.chunkSize()
			if err != nil {
				rq.fail(err, false)
				return n
			}
			rq.ckLine = rq.ckLine[:0]
			if size == 0 {
				rq.ck = ckTrailer
				continue
			}
			rq.ckRemain = size
			rq.ck = ckData
		case ckData:
			take := min(len(b)-n, int(rq.ckRemain))
			rq.bodyN += int64(take)
			if rq.discard {
				rq.conndead = true
				rq.complete()
				return n + take
			}
			if rq.bodyLimit >= 0 && rq.bodyN > rq.bodyLimit {
				keep := take - int(rq.bodyN-rq.bodyLimit)
				if keep > 0 {
					rq.body = append(rq.body, b[n:n+keep]...)
				}
				rq.bodyN = rq.bodyLimit
				rq.conndead = true
				rq.complete()
				return n + take
			}
			rq.body = append(rq.body, b[n:n+take]...)
			n += take
			rq.ckRemain -= int64(take)
			if rq.ckRemain == 0 {
				rq.ck = ckDataCR
			}
		case ckDataCR:
			c := b[n]
			n++
			rq.ckLine = append(rq.ckLine, c)
			if len(rq.ckLine) < 2 {
				continue
			}
			if rq.ckLine[0] != '\r' || rq.ckLine[1] != '\n' {
				rq.fail(fmt.Errorf("httpx: malformed chunked encoding"), false)
				return n
			}
			rq.ckLine = rq.ckLine[:0]
			rq.ck = ckSize
		case ckTrailer:
			// A bare CRLF ends the body; anything else is a trailer
			// section, which must end in a blank line within
			// maxChunkLine bytes and parse as header fields.
			c := b[n]
			n++
			rq.ckLine = append(rq.ckLine, c)
			t := rq.ckLine
			if len(t) == 2 && t[0] == '\r' && t[1] == '\n' || bytes.HasSuffix(t, evCrlfCrlf) {
				if err := checkTrailer(t); err != nil {
					rq.fail(fmt.Errorf("httpx: malformed chunked trailer: %w", err), false)
					return n
				}
				rq.complete()
				return n
			}
			if len(t) >= maxChunkLine {
				rq.fail(fmt.Errorf("httpx: chunked trailer too long"), false)
				return n
			}
		}
	}
	return n
}

// chunkSize parses the chunk-size line in rq.ckLine as net/http's
// chunked reader does: trailing whitespace trimmed, a chunk extension
// after ';' ignored, then one to sixteen hex digits with no sign. It
// also spends net/http's framing budget — line bytes beyond 16 per
// chunk and twice the chunk's data, at most 16 KiB in all — which a
// sender padding small chunks with extensions exhausts. A line must end
// in CRLF; net/http also takes a bare LF, which no emulated server
// sends.
func (rq *evReq) chunkSize() (int64, error) {
	line := rq.ckLine
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return 0, fmt.Errorf("httpx: malformed chunk size line")
	}
	rq.ckExcess += int64(len(line)) + 2 // the line and the CRLF after the data
	digits, _, _ := bytes.Cut(bytes.TrimRight(line, " \t\r\n"), []byte(";"))
	size, err := strconv.ParseUint(string(digits), 16, 64)
	if err != nil || len(digits) > 16 || size >= 1<<61 {
		// Sizes no stream can carry fail here too; net/http fails them
		// at the body's end.
		return 0, fmt.Errorf("httpx: malformed chunk size %q", digits)
	}
	rq.ckExcess = max(rq.ckExcess-16-2*int64(size), 0)
	if rq.ckExcess > 16<<10 {
		return 0, fmt.Errorf("httpx: chunked encoding contains too much non-data")
	}
	return int64(size), nil
}

// checkTrailer validates a chunked body's trailer section, through the
// blank line that ends it, as header fields the way net/http reads
// them. The fields themselves are dropped.
func checkTrailer(t []byte) error {
	if t[0] == ' ' || t[0] == '\t' {
		return fmt.Errorf("malformed initial header line")
	}
	for {
		key, _, rest, err := nextField(t)
		if err != nil || key == nil {
			return err
		}
		t = rest
	}
}

// complete delivers the exchange's result at the current instant and
// decides the connection's fate: a fully consumed body on a healthy
// keep-alive conn pools it, anything else retires it.
func (rq *evReq) complete() {
	rq.state = evcDone
	rq.stopTimers()
	pc := rq.pc
	pc.rq = nil
	res := evResult{status: rq.status, body: rq.body, bodyN: rq.bodyN}
	if rq.views != nil {
		t, hold, views := rq.t, rq.hold, rq.views
		res.views = views
		res.release = func() {
			if hold.released {
				return
			}
			hold.released = true
			pc.drainRel()
			// The consumer is done with the views: their slice serves
			// the transport's next body.
			clear(views)
			t.freeViews = append(t.freeViews, views[:0])
		}
	}
	rq.views = nil
	if rq.conndead || rq.respClose || rq.dlFired {
		rq.t.retire(pc)
	} else {
		rq.t.putIdle(pc)
	}
	rq.putAcc()
	rq.done(rq, res, nil)
}

// fail ends the attempt with err. A reused connection whose request
// write or head read failed is retried exactly once on a fresh dial
// (the pooled siblings are flushed), as net/http does; every other
// failure surfaces to the caller. retryStage marks the failure as
// having occurred inside the retryable window (request write or
// response-head read).
func (rq *evReq) fail(err error, retryStage bool) {
	rq.state = evcDone
	if rq.pc != nil {
		pc := rq.pc
		pc.rq = nil
		rq.t.retire(pc)
		rq.pc = nil
	}
	// A hedged-out attempt is never retried here: the caller cancelled
	// it on purpose and will reissue elsewhere.
	if retryStage && rq.reused && rq.attempt == 0 && rq.t.closed == nil &&
		!errors.Is(err, ErrHedged) {
		rq.t.dropIdle(rq.addr)
		rq.attempt = 1
		rq.reused = false
		rq.conndead = false
		rq.state = evcDial
		rq.acc = rq.acc[:0]
		rq.scan = 0
		rq.stopTimers()
		rq.armDeadline()
		rq.getConn()
		return
	}
	rq.stopTimers()
	rq.putAcc()
	rq.done(rq, evResult{}, err)
}

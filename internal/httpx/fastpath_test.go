package httpx

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
)

// These tests hold the event-loop client's wire handling to net/http,
// the one byte-level reference that is not this repository's own code.

// TestWriteRequestMatchesNetHTTP pins the evented request rendering to
// net/http's Request.Write: for every request shape the players send,
// the bytes must be identical — a single divergent byte would shift the
// emulated transfer timeline.
func TestWriteRequestMatchesNetHTTP(t *testing.T) {
	cases := []struct {
		url      string
		from, to int64 // to < 0: no Range header
	}{
		{"http://video1.youtube.wifi.test:443/videoplayback?v=qjT4T2gU9sM&itag=22&token=abc&expire=123&net=wifi", 1048576, 2097151},
		{"http://www.youtube.wifi.test:443/watch?v=qjT4T2gU9sM", 0, -1},
		{"http://video1.youtube.lte.test:443/videoplayback?v=x&itag=18", 0, -1},
		{"http://host.test/path", 0, 0},
	}
	for _, c := range cases {
		req, err := http.NewRequest(http.MethodGet, c.url, nil)
		if err != nil {
			t.Fatal(err)
		}
		rq := &evReq{}
		if !rq.target(c.url) {
			t.Fatalf("target(%q) rejected", c.url)
		}
		if c.to >= 0 {
			req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", c.from, c.to))
			rq.hasRange, rq.rangeFrom, rq.rangeTo = true, c.from, c.to
		}
		var want bytes.Buffer
		if err := req.Write(&want); err != nil {
			t.Fatal(err)
		}
		rq.beginSend()
		got := string(rq.sendBuf)
		rq.endSend()
		if got != want.String() {
			t.Errorf("%s:\nevented: %q\nnet/http: %q", c.url, got, want.String())
		}
	}
}

// TestReadResponseMatchesNetHTTP drives identical wire responses — the
// shapes the emulated origin produces, and framing edge cases it never
// produces — through the evented client's head and body framing and
// through http.ReadResponse, comparing acceptance, status, the framing
// headers the machine interprets, body bytes, and the number of
// connection bytes consumed (a desynced keep-alive stream would
// corrupt the next response).
func TestReadResponseMatchesNetHTTP(t *testing.T) {
	body4k := strings.Repeat("x", 4096)
	const chunked = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
	cases := []struct {
		wire     string
		from, to int64 // to < 0: a bodyless Get; else a range fetch
	}{
		{"HTTP/1.1 206 Partial Content\r\nAccept-Ranges: bytes\r\nContent-Length: 4096\r\nContent-Range: bytes 0-4095/9375000\r\nContent-Type: video/mp4\r\nX-Replica: video1\r\n\r\n" + body4k, 0, 4095},
		{"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n", 0, -1},
		{"HTTP/1.1 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\nTransfer-Encoding: chunked\r\n\r\nb\r\nnot found\r\n\r\n0\r\n\r\n", 0, 99},
		{"HTTP/1.1 403 Forbidden\r\nContent-Length: 3\r\n\r\nno\n", 0, 99},
		{"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", 0, -1},
		{"HTTP/1.1 200 OK\r\nconnection: close\r\n\r\nclose-delimited body", 0, -1},
		{"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nclose-delimited, no Connection header", 0, -1},
		{"HTTP/1.1 204 No Content\r\n\r\n", 0, -1},
		// Framing edge cases: the transfer coding is matched
		// case-insensitively, but must be given once; repeated lengths
		// must agree; HTTP/1.0 ignores Transfer-Encoding.
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: Chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", 0, -1},
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", 0, -1},
		{"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc", 0, -1},
		{"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc", 0, -1},
		{"HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nhello", 0, -1},
		// Chunked framing as net/http's chunked reader takes it: chunk
		// extensions, trailer fields and trailing whitespace on a size
		// line are accepted; signs, inner spaces, over-long lines,
		// malformed trailers and extension-padded chunks beyond the
		// 16 KiB framing budget are not.
		{chunked + "5;ext=1\r\nhello\r\n0;x\r\n\r\n", 0, -1},
		{chunked + "5\r\nhello\r\n0\r\nX-Sum: 1\r\nX-Note: a\r\n  folded\r\n\r\n", 0, -1},
		{chunked + "5 \r\nhello\r\n0\t\r\n\r\n", 0, -1},
		{chunked + "+5\r\nhello\r\n0\r\n\r\n", 0, -1},
		{chunked + "5\r\nhello\r\n-0\r\n\r\n", 0, -1},
		{chunked + "5 ;x\r\nhello\r\n0\r\n\r\n", 0, -1},
		{chunked + "0000000000000005\r\nhello\r\n00000000000000000\r\n\r\n", 0, -1},
		{chunked + "5;" + strings.Repeat("e", 4091) + "\r\nhello\r\n0\r\n\r\n", 0, -1},
		{chunked + "5;" + strings.Repeat("e", 4092) + "\r\nhello\r\n0\r\n\r\n", 0, -1},
		{chunked + "0\r\nno colon\r\n\r\n", 0, -1},
		{chunked + "0\r\n folded first\r\n\r\n", 0, -1},
		{chunked + "0\r\nX-Long: " + strings.Repeat("t", 4084) + "\r\n\r\n", 0, -1},
		{chunked + "0\r\nX-Long: " + strings.Repeat("t", 4085) + "\r\n\r\n", 0, -1},
		{chunked + strings.Repeat("1;"+strings.Repeat("e", 4000)+"\r\nx\r\n", 4) + "0\r\n\r\n", 0, -1},
		{chunked + strings.Repeat("1;"+strings.Repeat("e", 4000)+"\r\nx\r\n", 5) + "0\r\n\r\n", 0, -1},
	}
	strictContentLength(t)
	clock := netem.NewVirtualClock()
	defer clock.Stop()
	for _, c := range cases {
		// Append a sentinel so consumed-byte counts are comparable.
		const sentinel = "SENTINEL-NEXT-RESPONSE"
		closeDelimited := !strings.Contains(c.wire, "Content-Length") &&
			!strings.Contains(c.wire, "chunked") && !strings.Contains(c.wire, " 204 ")
		stream := c.wire
		if !closeDelimited {
			stream += sentinel
		}
		name := fmt.Sprintf("%.60q", c.wire)
		ref := refResponse([]byte(stream))
		ev := feedResponse(t, clock, []byte(stream), c.from, c.to)
		if (ev.err != nil) != (ref.err != nil) {
			t.Errorf("%s: evented error %v, net/http error %v", name, ev.err, ref.err)
			continue
		}
		if ref.err != nil {
			continue
		}
		ev.compare(t, name, ref, true)
	}
}

// evParse is what one response fed through an evReq, or read by
// net/http, produced.
type evParse struct {
	status        int
	contentLength int64
	chunked       bool
	close         bool
	body          []byte
	consumed      int
	err           error
	headErr       bool // err arose reading the head
}

// strictContentLength makes net/http reject an empty Content-Length, as
// it does by default since Go 1.22 and as the machine does: go.mod's
// go 1.21 line would otherwise give the test binary the older reading
// of an empty length as an absent one.
func strictContentLength(tb testing.TB) {
	tb.Setenv("GODEBUG", os.Getenv("GODEBUG")+",httplaxcontentlength=0")
}

// refResponse reads stream as http.ReadResponse and a full body read
// do, in the terms of evParse.
func refResponse(stream []byte) evParse {
	req, _ := http.NewRequest(http.MethodGet, "http://h/", nil)
	br := bufio.NewReader(bytes.NewReader(stream))
	res, err := http.ReadResponse(br, req)
	if err != nil {
		return evParse{err: err, headErr: true}
	}
	out := evParse{status: res.StatusCode, contentLength: res.ContentLength,
		chunked: len(res.TransferEncoding) > 0, close: res.Close}
	out.body, out.err = io.ReadAll(res.Body)
	rest, _ := io.ReadAll(br)
	out.consumed = len(stream) - len(rest)
	return out
}

// compare reports where the machine's result ev departs from net/http's
// ref for an exchange both accepted. withBody compares the body and the
// bytes consumed too, for exchanges whose body the machine reads whole.
func (ev evParse) compare(t *testing.T, name string, ref evParse, withBody bool) {
	t.Helper()
	if ev.status != ref.status {
		t.Errorf("%s: status %d, net/http %d", name, ev.status, ref.status)
	}
	// net/http reports a bodiless status's length as 0; the machine
	// completes on the status alone and leaves the length unread.
	if !bodiless(ev.status) {
		if ev.contentLength != ref.contentLength {
			t.Errorf("%s: Content-Length %d, net/http %d", name, ev.contentLength, ref.contentLength)
		}
	}
	if ev.chunked != ref.chunked {
		t.Errorf("%s: chunked=%v, net/http %v", name, ev.chunked, ref.chunked)
	}
	if ev.close != ref.close {
		t.Errorf("%s: close=%v, net/http %v", name, ev.close, ref.close)
	}
	if !withBody {
		return
	}
	if (ev.err != nil) != (ref.err != nil) {
		t.Errorf("%s: evented body error %v, net/http %v", name, ev.err, ref.err)
	}
	if ev.err != nil || ref.err != nil {
		return
	}
	if !bytes.Equal(ev.body, ref.body) {
		t.Errorf("%s: body %.80q, net/http %.80q", name, ev.body, ref.body)
	}
	if ev.consumed != ref.consumed {
		t.Errorf("%s: consumes %d bytes, net/http %d", name, ev.consumed, ref.consumed)
	}
}

// bodiless reports whether net/http reads no body after a status.
func bodiless(status int) bool { return status/100 == 1 || status == 204 || status == 304 }

// feedResponse runs stream through a fresh request machine's head and
// body states exactly as readStep feeds arrived views, for a bodyless
// Get (to < 0) or a range fetch of [from, to]. The stream arrives as
// one view, or as several split at the ascending offsets cuts. A
// machine still reading when the stream runs out sees the peer's EOF,
// as on the wire.
func feedResponse(t *testing.T, clock *netem.Clock, stream []byte, from, to int64, cuts ...int) evParse {
	t.Helper()
	var out evParse
	et := NewEventTransport(nil, clock, netem.NewLoop())
	conn, _ := netem.Pipe(clock, netem.LinkParams{Rate: netem.Mbps(1), Delay: time.Millisecond},
		netem.LinkParams{Rate: netem.Mbps(1), Delay: time.Millisecond}, "c", "s")
	rq := &evReq{t: et, state: evcHead, done: func(_ *evReq, res evResult, err error) {
		if out.err = err; err != nil {
			return
		}
		out.body = append(out.body, res.body...)
		for _, v := range res.views {
			out.body = append(out.body, v...)
		}
		if res.release != nil {
			res.release()
		}
	}}
	if to >= 0 {
		rq.hasRange, rq.rangeFrom, rq.rangeTo = true, from, to
	}
	rq.bind(&evClientConn{t: et, c: conn, addr: "h:80"})
	start := 0
	for _, end := range append(cuts, len(stream)) {
		view := stream[start:end]
		start = end
		off := 0
		for off < len(view) && rq.state != evcDone {
			var n int
			if rq.state == evcHead {
				n = rq.feedHead(view[off:])
				out.headErr = out.err != nil
			} else {
				n, _ = rq.feedBody(view, off)
			}
			off += n
		}
		out.consumed += off
	}
	if rq.state == evcHead || rq.state == evcBody {
		out.headErr = rq.state == evcHead
		rq.readFail(io.EOF)
	}
	out.status, out.contentLength, out.chunked, out.close = rq.status, rq.contentLength, rq.chunked, rq.respClose
	return out
}

// FuzzReadResponseHead holds the machine's response-head parse to
// http.ReadResponse over fuzzer-written heads, delivered in up to three
// views split at fuzzer-chosen offsets so the terminator lands across
// the rq.scan resume point. The payload after the head is framed as
// net/http reads the head (a well-formed chunked coding when it
// declares one), which keeps the body decoder's own syntax out of the
// comparison. Acceptance, status and framing are compared for every
// head; body bytes and bytes consumed where the machine reads the whole
// body (a 200 Get, a 206 range fetch, a bodiless status).
func FuzzReadResponseHead(f *testing.F) {
	strictContentLength(f)
	clock := netem.NewVirtualClock()
	f.Cleanup(clock.Stop)
	f.Fuzz(func(t *testing.T, head, payload []byte, cut1, cut2 uint16, rangeFetch bool) {
		if i := bytes.Index(head, evCrlfCrlf); i >= 0 {
			head = head[:i+len(evCrlfCrlf)]
		} else {
			payload = nil // a truncated head: the stream ends inside it
		}
		for i, c := range head {
			if c == '\n' && (i == 0 || head[i-1] != '\r') {
				// net/http also ends a line at a bare LF; the machine
				// looks for CRLF only, which every emulated server sends.
				t.Skip("bare LF in the head")
			}
		}
		stream := append([]byte(nil), head...)
		if ref := refResponse(head); !ref.headErr && ref.chunked && len(payload) > 0 {
			stream = fmt.Appendf(stream, "%x\r\n%s\r\n0\r\n\r\n", len(payload), payload)
		} else {
			stream = append(stream, payload...)
		}
		stream = append(stream, "NEXT"...)
		a, b := int(cut1)%(len(stream)+1), int(cut2)%(len(stream)+1)
		from, to := int64(0), int64(-1)
		if rangeFetch {
			to = int64(max(len(payload), 1) - 1)
		}
		ref := refResponse(stream)
		ev := feedResponse(t, clock, stream, from, to, min(a, b), max(a, b))
		name := fmt.Sprintf("%.60q", head)
		if ev.headErr != ref.headErr {
			t.Fatalf("%s: evented head error %v, net/http %v", name, ev.err, ref.err)
		}
		if ref.headErr {
			return
		}
		whole := bodiless(ev.status) ||
			!rangeFetch && ev.status == http.StatusOK || rangeFetch && ev.status == http.StatusPartialContent
		ev.compare(t, name, ref, whole)
	})
}

// FuzzReadChunkedBody holds the machine's chunked body decoder to
// net/http's chunked reader: fuzzer-written bodies behind a fixed
// chunked 200 head, delivered in up to three views split at
// fuzzer-chosen offsets, must be accepted or rejected alike and, when
// accepted, yield the same body bytes and consume the same bytes.
// Bodies holding a bare LF are skipped: net/http also ends a chunk-size
// or trailer line at one, the machine only at CRLF, which every
// emulated server sends.
func FuzzReadChunkedBody(f *testing.F) {
	const head = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
	clock := netem.NewVirtualClock()
	f.Cleanup(clock.Stop)
	f.Fuzz(func(t *testing.T, body []byte, cut1, cut2 uint16) {
		for i, c := range body {
			if c == '\n' && (i == 0 || body[i-1] != '\r') {
				t.Skip("bare LF in the body")
			}
		}
		stream := append([]byte(head), body...)
		stream = append(stream, "NEXT"...)
		a, b := int(cut1)%(len(stream)+1), int(cut2)%(len(stream)+1)
		ref := refResponse(stream)
		ev := feedResponse(t, clock, stream, 0, -1, min(a, b), max(a, b))
		name := fmt.Sprintf("%.60q", body)
		if (ev.err != nil) != (ref.err != nil) {
			t.Fatalf("%s: evented error %v, net/http error %v", name, ev.err, ref.err)
		}
		if ref.err == nil {
			ev.compare(t, name, ref, true)
		}
	})
}

// TestWriteHeaderMatchesNetHTTP pins writeHeader to http.Header.Write
// byte for byte, and to the same WriteString calls: each header is
// written into a 16-byte bufio.Writer over a recorder, so every flush
// boundary shows.
func TestWriteHeaderMatchesNetHTTP(t *testing.T) {
	cases := []http.Header{
		{},
		{"Content-Type": {"application/json"}, "Transfer-Encoding": {"chunked"}, "X-Padding": {strings.Repeat("abcdefghijklmnopqrstuvwxyz", 788)}},
		{"X-Split": {"a\r\nb", "c\nd", "e\rf", "\r\n"}},
		{"X-Space": {" lead", "trail\t", " \t both \t ", "\t", "in side"}},
		{"Bad Name": {"x"}, "Bad:Name": {"x"}, "Bäd": {"x"}, "": {"x"}, "Good": {"y"}},
		{"Set-Cookie": {"a=1", "b=2", "c=3"}, "Accept-Ranges": {"bytes"}, "Content-Length": {"4096"}},
		{"Empty": {}, "Blank": {""}},
		{"K0": {"0"}, "K1": {"1"}, "K2": {"2"}, "K3": {"3"}, "K4": {"4"}, "K5": {"5"}, "K6": {"6"}, "K7": {"7"}, "K8": {"8"}, "K9": {"9"}},
	}
	for _, h := range cases {
		var want, got flushLog
		wbw, gbw := bufio.NewWriterSize(&want, 16), bufio.NewWriterSize(&got, 16)
		if err := h.Write(wbw); err != nil {
			t.Fatal(err)
		}
		writeHeader(gbw, h)
		wbw.Flush()
		gbw.Flush()
		if !slices.Equal(got, want) {
			t.Errorf("%.80q:\nwriteHeader writes %.200q\nnet/http writes    %.200q", h, got, want)
		}
	}
}

// flushLog records each write a bufio.Writer hands its destination.
type flushLog []string

func (l *flushLog) Write(p []byte) (int, error) {
	*l = append(*l, string(p))
	return len(p), nil
}

// TestWriteHeaderAllocs checks that a warmed responseWriter's header
// and buffer take a watch-shaped head, no CR or LF in its values,
// without allocating, and that neither a range response's status line
// nor a chunk-size line allocates.
func TestWriteHeaderAllocs(t *testing.T) {
	w := &responseWriter{header: make(http.Header), bw: bufio.NewWriterSize(io.Discard, 4<<10)}
	w.header.Set("Content-Type", "application/json")
	w.header.Set("Transfer-Encoding", "chunked")
	w.header.Set("X-Padding", strings.Repeat("p", 20<<10))
	if avg := testing.AllocsPerRun(100, func() { writeHeader(w.bw, w.header) }); avg != 0 {
		t.Fatalf("writeHeader allocates %.1f times per head, want 0", avg)
	}
	w = &responseWriter{header: http.Header{"Content-Length": {"5"}}, bw: bufio.NewWriterSize(io.Discard, 4<<10)}
	if avg := testing.AllocsPerRun(100, func() {
		w.wroteHeader = false
		w.WriteHeader(http.StatusPartialContent)
	}); avg != 0 {
		t.Fatalf("WriteHeader allocates %.1f times per head, want 0", avg)
	}
	w = &responseWriter{header: make(http.Header), bw: bufio.NewWriterSize(io.Discard, 4<<10),
		wroteHeader: true, status: http.StatusOK, chunked: true}
	chunk := []byte("hello")
	if avg := testing.AllocsPerRun(100, func() { w.Write(chunk) }); avg != 0 {
		t.Fatalf("a chunked Write allocates %.1f times, want 0", avg)
	}
}

// TestStatusAndChunkLinesMatchFmt pins the status line and chunk-size
// line the responseWriter writes to the fmt formats it used to write
// them with, one Write call each, for the statuses the emulation sends
// and for codes net/http has no text for or would refuse.
func TestStatusAndChunkLinesMatchFmt(t *testing.T) {
	for _, status := range []int{200, 206, 403, 404, 416, 501, 999, 1000, 12345, 42, 7, 0, -5, -50, -500} {
		var got flushLog
		w := &responseWriter{header: http.Header{"Content-Length": {"0"}}, bw: bufio.NewWriterSize(&got, 16)}
		w.WriteHeader(status)
		w.bw.Flush()
		text := http.StatusText(status)
		if text == "" {
			text = "status"
		}
		want := fmt.Sprintf("HTTP/1.1 %03d %s\r\n", status, text)
		// Every line is longer than the buffer, so bufio hands each
		// Write straight through: the first call must be the line.
		if len(got) == 0 || got[0] != want {
			t.Errorf("status %d: writes %q, want a first write of %q", status, got, want)
		}
	}
	for _, n := range []int{1, 9, 10, 15, 16, 255, 256, 4095} {
		var got flushLog
		w := &responseWriter{header: make(http.Header), bw: bufio.NewWriterSize(&got, 8<<10),
			wroteHeader: true, status: http.StatusOK, chunked: true}
		w.Write(make([]byte, n))
		w.bw.Flush()
		if want := fmt.Sprintf("%x\r\n%s\r\n", n, make([]byte, n)); strings.Join(got, "") != want {
			t.Errorf("chunk of %d: writes %.40q, want %.40q", n, strings.Join(got, ""), want)
		}
	}
}

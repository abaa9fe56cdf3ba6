package httpx

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
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
// shapes the emulated origin produces — through the evented client's
// head and body framing and through http.ReadResponse, comparing
// status, the framing headers the machine interprets, body bytes, and
// the number of connection bytes consumed (a desynced keep-alive
// stream would corrupt the next response).
func TestReadResponseMatchesNetHTTP(t *testing.T) {
	body4k := strings.Repeat("x", 4096)
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
	}
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
		name := c.wire[:strings.Index(c.wire, "\r\n")]

		req, _ := http.NewRequest(http.MethodGet, "http://h/", nil)
		br := bufio.NewReader(strings.NewReader(stream))
		ref, err := http.ReadResponse(br, req)
		if err != nil {
			t.Fatalf("%s: net/http: %v", name, err)
		}
		refBody, err := io.ReadAll(ref.Body)
		if err != nil {
			t.Fatalf("%s: net/http body: %v", name, err)
		}
		refRest, _ := io.ReadAll(br)

		ev := feedResponse(t, clock, []byte(stream), c.from, c.to)
		if ev.err != nil {
			t.Fatalf("%s: evented: %v", name, ev.err)
		}
		if ev.status != ref.StatusCode {
			t.Errorf("%s: status %d, net/http %d", name, ev.status, ref.StatusCode)
		}
		// net/http reports a 204's length as 0; the machine leaves the
		// absent header at -1 and completes on the status alone.
		wantCL := ref.ContentLength
		if ref.StatusCode == http.StatusNoContent {
			wantCL = -1
		}
		if ev.contentLength != wantCL {
			t.Errorf("%s: Content-Length %d, net/http %d", name, ev.contentLength, ref.ContentLength)
		}
		if ev.chunked != (len(ref.TransferEncoding) > 0) {
			t.Errorf("%s: chunked=%v, net/http %v", name, ev.chunked, ref.TransferEncoding)
		}
		if ev.close != ref.Close {
			t.Errorf("%s: close=%v, net/http %v", name, ev.close, ref.Close)
		}
		if string(ev.body) != string(refBody) {
			t.Errorf("%s: body %q, net/http %q", name, ev.body, refBody)
		}
		if left := len(stream) - ev.consumed; left != len(refRest) {
			t.Errorf("%s: leaves %d bytes unconsumed, net/http %d", name, left, len(refRest))
		}
	}
}

// evParse is what one response fed through an evReq produced.
type evParse struct {
	status        int
	contentLength int64
	chunked       bool
	close         bool
	body          []byte
	consumed      int
	err           error
}

// feedResponse runs stream through a fresh request machine's head and
// body states exactly as readStep feeds arrived views, for a bodyless
// Get (to < 0) or a range fetch of [from, to]. A machine still reading
// its body when the stream runs out sees the peer's EOF, as on the
// wire.
func feedResponse(t *testing.T, clock *netem.Clock, stream []byte, from, to int64) evParse {
	t.Helper()
	var out evParse
	et := NewEventTransport(nil, clock, netem.NewLoop())
	conn, _ := netem.Pipe(clock, netem.LinkParams{Rate: netem.Mbps(1), Delay: time.Millisecond},
		netem.LinkParams{Rate: netem.Mbps(1), Delay: time.Millisecond}, "c", "s")
	rq := &evReq{t: et, state: evcHead, done: func(res *evResult, err error) {
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
	for out.consumed < len(stream) && rq.state != evcDone {
		var n int
		if rq.state == evcHead {
			n = rq.feedHead(stream[out.consumed:])
		} else {
			n, _ = rq.feedBody(stream, out.consumed)
		}
		out.consumed += n
	}
	if rq.state == evcBody {
		rq.readFail(io.EOF)
	}
	out.status, out.contentLength, out.chunked, out.close = rq.status, rq.contentLength, rq.chunked, rq.respClose
	return out
}

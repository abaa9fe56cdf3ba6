package httpx

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	neturl "net/url"
	"reflect"
	"strings"
	"testing"
)

// These tests hold the server machine's request-head parse to net/http's
// ReadRequest, the reference for what a request head means.

const (
	playbackHead = "GET /videoplayback?v=qjT4T2gU9sM&itag=22&token=abc&expire=123&net=wifi HTTP/1.1\r\n" +
		"Host: video1.youtube.wifi.test:443\r\nUser-Agent: Go-http-client/1.1\r\nRange: bytes=1048576-2097151\r\n\r\n"
	watchHead = "GET /watch?v=qjT4T2gU9sM HTTP/1.1\r\n" +
		"Host: www.youtube.wifi.test:443\r\nUser-Agent: Go-http-client/1.1\r\n\r\n"
)

// reqParse is what one request head parsed to, by the machine or by
// net/http, in the fields the machine sets.
type reqParse struct {
	method, uri, proto string
	major, minor       int
	url                neturl.URL // User cleared: compared as user
	user               string
	host               string
	header             http.Header
	contentLength      int64
	transferEncoding   []string
	close              bool
	consumed           int // bytes of the stream the head spans
	err                error
}

func parsed(r *http.Request, consumed int) reqParse {
	u := *r.URL
	u.User = nil
	return reqParse{method: r.Method, uri: r.RequestURI, proto: r.Proto,
		major: r.ProtoMajor, minor: r.ProtoMinor, url: u, user: r.URL.User.String(), host: r.Host,
		header: r.Header.Clone(), contentLength: r.ContentLength,
		transferEncoding: r.TransferEncoding, close: r.Close, consumed: consumed}
}

// refRequest reads stream's request head with net/http's ReadRequest.
func refRequest(stream []byte) reqParse {
	rd := bytes.NewReader(stream)
	br := bufio.NewReader(rd)
	r, err := http.ReadRequest(br)
	if err != nil {
		return reqParse{err: err}
	}
	return parsed(r, len(stream)-rd.Len()-br.Buffered())
}

// feedRequest runs stream through ec's head search and parse as
// readRequest does, the stream arriving in views split at the ascending
// offsets cuts. A stream that ends before the head does is an error,
// as the peer's EOF is on the wire.
func feedRequest(ec *eventConn, stream []byte, cuts ...int) reqParse {
	ec.acc, ec.scan = ec.acc[:0], 0
	start := 0
	for _, end := range append(cuts, len(stream)) {
		ec.acc = append(ec.acc, stream[start:end]...)
		start = end
		if he := ec.headEnd(); he >= 0 {
			r, err := ec.head.parse(ec.acc[:he])
			if err != nil {
				return reqParse{err: err}
			}
			return parsed(r, he)
		}
	}
	return reqParse{err: fmt.Errorf("stream ends inside the head")}
}

// compareRequest reports where got departs from net/http's want.
func compareRequest(t *testing.T, name string, got, want reqParse) {
	t.Helper()
	if (got.err != nil) != (want.err != nil) {
		t.Fatalf("%s: machine error %v, net/http error %v", name, got.err, want.err)
	}
	if want.err != nil {
		return
	}
	got.err, want.err = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\nmachine  %+v\nnet/http %+v", name, got, want)
	}
}

// TestReadRequestMatchesNetHTTP parses the heads the emulation's players
// send, and edge cases they never send, on one connection's parser in a
// row — so each parse also runs over the previous one's reused request,
// header and strings — and compares every one with net/http's.
func TestReadRequestMatchesNetHTTP(t *testing.T) {
	cases := []string{
		playbackHead,
		playbackHead,
		strings.Replace(playbackHead, "1048576-2097151", "2097152-3145727", 1),
		watchHead,
		"GET http://video1.youtube.wifi.test/videoplayback?v=x HTTP/1.1\r\nHost: other.test\r\n\r\n",
		"GET /a%20b/%7e?q=%zz HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET /x? HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET * HTTP/1.1\r\n\r\n",
		"OPTIONS * HTTP/1.1\r\nHost: h\r\n\r\n",
		"CONNECT h.test:443 HTTP/1.1\r\nHost: h.test:443\r\n\r\n",
		"CONNECT /rpc HTTP/1.1\r\n\r\n",
		"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n",
		"GET /a\x01 HTTP/1.1\r\n\r\n",
		"GET /ä HTTP/1.1\r\n\r\n",
		"GET relative HTTP/1.1\r\n\r\n",
		"GET  / HTTP/1.1\r\n\r\n",
		"G@T / HTTP/1.1\r\n\r\n",
		"GET / HTTP/1.10\r\n\r\n",
		"GET / http/1.1\r\n\r\n",
		"GET / HTTP/0.0\r\nTransfer-Encoding: chunked\r\n\r\n",
		"POST /up HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello",
		"POST /up HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
		"POST /up HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!",
		"POST /up HTTP/1.1\r\nContent-Length:\r\n\r\n",
		"POST /up HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
		"POST /up HTTP/1.1\r\nTransfer-Encoding: Chunked\r\nContent-Length: 5\r\nTrailer: X-Sum\r\n\r\n",
		"POST /up HTTP/1.1\r\nTransfer-Encoding: chunked\r\nTrailer: Content-Length\r\n\r\n",
		"POST /up HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n",
		"POST /up HTTP/1.1\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n",
		"POST /up HTTP/1.0\r\nTransfer-Encoding: gzip\r\nContent-Length: 2\r\n\r\nok",
		"GET / HTTP/1.0\r\nHost: h\r\n\r\n",
		"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
		"GET / HTTP/1.0\r\nConnection: keep-alive, close\r\n\r\n",
		"GET / HTTP/1.1\r\nConnection: foo,  CLOSE \r\n\r\n",
		"GET / HTTP/1.1\r\nhost: a\r\nHOST: b\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: bad host/\x80\r\n\r\n",
		"GET / HTTP/1.1\r\nX-Folded: a\r\n  b\r\n\tc\r\n\r\n",
		" GET / HTTP/1.1\r\n\r\n",
		"GET / HTTP/1.1\r\n X: lead\r\n\r\n",
		"GET / HTTP/1.1\r\nX Y: spaced\r\nx-lower-name: v\r\n\r\n",
		"GET / HTTP/1.1\r\nNo-Colon\r\n\r\n",
		"GET / HTTP/1.1\r\nX: a\x00b\r\n\r\n",
		"GET / HTTP/1.1\r\nPragma: no-cache\r\n\r\n",
		"GET / HTTP/1.1\r\nPragma: no-cache\r\nCache-Control: max-age=0\r\n\r\n",
		"GET / HTTP/1.1\r\nX-Multi: 1\r\nX-Multi: 2\r\nx-multi: 3\r\n\r\n",
		"\r\n\r\n",
		playbackHead,
	}
	strictContentLength(t)
	ec := &eventConn{}
	for _, c := range cases {
		compareRequest(t, fmt.Sprintf("%.60q", c), feedRequest(ec, []byte(c)), refRequest([]byte(c)))
	}
}

// FuzzReadRequest holds the machine's request-head parse to net/http's
// ReadRequest over fuzzer-written heads, delivered in up to three views
// split at fuzzer-chosen offsets so the terminator lands across the
// ec.scan resume point. Each head is parsed after the emulation's
// playback head and then once more, on the same connection's parser, so
// both the fresh and the reused strings are compared. Heads holding a
// bare LF are skipped: net/http also ends a line at one, the machine
// only at CRLF, which every emulated client sends.
func FuzzReadRequest(f *testing.F) {
	strictContentLength(f)
	f.Fuzz(func(t *testing.T, head []byte, cut1, cut2 uint16) {
		for i, c := range head {
			if c == '\n' && (i == 0 || head[i-1] != '\r') {
				t.Skip("bare LF in the head")
			}
		}
		stream := append(append([]byte(nil), head...), "NEXT"...)
		a, b := int(cut1)%(len(stream)+1), int(cut2)%(len(stream)+1)
		want := refRequest(stream)
		name := fmt.Sprintf("%.60q", head)
		ec := &eventConn{}
		compareRequest(t, "playback head", feedRequest(ec, []byte(playbackHead)), refRequest([]byte(playbackHead)))
		compareRequest(t, name, feedRequest(ec, stream, min(a, b), max(a, b)), want)
		compareRequest(t, name+" again", feedRequest(ec, stream), want)
	})
}

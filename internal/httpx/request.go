package httpx

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/textproto"
	neturl "net/url"
	"strconv"
	"strings"
)

// reqHead parses the request heads of one server connection into one
// http.Request, Header and url.URL that it owns and reuses. HTTP/1.1 on
// a connection is sequential: the machine parses the next head only
// after the previous response has ended and its reqDone hook has fired,
// by which time the handler and its continuations are done with the
// request. Strings are reused only where their bytes equal the previous
// request's — the method, the protocol, the URI, whose substrings a
// player's URL holds, and header names and values slot by slot — or a
// constant every player's head holds. Nothing aliases the accumulation
// buffer the head is parsed from, which the machine shifts after
// dispatch.
type reqHead struct {
	req http.Request
	hdr http.Header
	url neturl.URL
	uri string

	// The names and values of the first fields of the previous head,
	// by position, as many as a player's head holds; vals also backs
	// their single-value slices in hdr.
	keys, vals [4]string
}

// parse reads one request head — the request line through the blank
// line that ends the header section — and returns the connection's
// request, filled in. It accepts exactly the heads net/http's ReadRequest
// accepts, and sets what ReadRequest sets in Method, RequestURI, URL,
// Proto, ProtoMajor, ProtoMinor, Header, Host, ContentLength,
// TransferEncoding and Close (TestReadRequestMatchesNetHTTP and
// FuzzReadRequest hold it to that), at net/http's defaults since Go
// 1.22: an empty Content-Length is malformed. Two differences are
// deliberate: a bare LF does not end a line, as in parseHead, so a head
// holding one is rejected; and a chunked request's Trailer field is
// checked and removed from Header but not copied into Trailer, since
// the machine refuses chunked requests anyway. Body is http.NoBody.
func (h *reqHead) parse(head []byte) (*http.Request, error) {
	line, rest := cutLine(head)
	method, rest1, ok1 := bytes.Cut(line, []byte(" "))
	uri, proto, ok2 := bytes.Cut(rest1, []byte(" "))
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("malformed HTTP request %q", line)
	}
	if !validFieldName(method, false) {
		return nil, fmt.Errorf("invalid method %q", method)
	}
	major, minor, ok := parseVersion(proto)
	if !ok {
		return nil, fmt.Errorf("malformed HTTP version %q", proto)
	}
	r := &h.req
	*r = http.Request{
		Method:     reuse(method, r.Method),
		Proto:      reuse(proto, r.Proto),
		ProtoMajor: major,
		ProtoMinor: minor,
		Body:       http.NoBody,
	}
	if err := h.parseURI(r, uri); err != nil {
		return nil, err
	}
	if err := h.parseFields(rest); err != nil {
		return nil, err
	}
	hdr := h.hdr
	r.Header = hdr
	if len(hdr["Host"]) > 1 {
		return nil, errors.New("too many Host headers")
	}
	r.Host = r.URL.Host
	if r.Host == "" {
		if v := hdr["Host"]; len(v) > 0 {
			r.Host = v[0]
		}
	}
	if hp := hdr["Pragma"]; len(hp) > 0 && hp[0] == "no-cache" {
		if _, ok := hdr["Cache-Control"]; !ok {
			hdr["Cache-Control"] = []string{"no-cache"}
		}
	}
	var hasClose, keepAlive bool
	for _, v := range hdr["Connection"] {
		hasClose = hasClose || hasToken(v, "close")
		keepAlive = keepAlive || hasToken(v, "keep-alive")
	}
	r.Close = closes(major, minor, hasClose, keepAlive)
	if err := h.transfer(r, major, minor); err != nil {
		return nil, err
	}
	if r.Method == "PRI" && len(hdr) == 0 && r.URL.Path == "*" && r.Proto == "HTTP/2.0" {
		// An HTTP/2 preface: neither chunked nor declared.
		r.ContentLength = -1
		r.Close = true
	}
	delete(hdr, "Host") // the value is r.Host
	return r, nil
}

// parseURI sets RequestURI and URL, as net/http's ReadRequest parses them
// with url.ParseRequestURI.
func (h *reqHead) parseURI(r *http.Request, uri []byte) error {
	h.uri = reuse(uri, h.uri)
	r.RequestURI = h.uri
	r.URL = &h.url
	auth := r.Method == "CONNECT" && !strings.HasPrefix(h.uri, "/")
	if !auth && parseOriginForm(&h.url, h.uri) {
		return nil
	}
	raw := h.uri
	if auth {
		// A CONNECT authority ("host:port") parses as the host of an
		// absolute URL whose scheme is then dropped.
		raw = "http://" + raw
	}
	u, err := neturl.ParseRequestURI(raw)
	if err != nil {
		return err
	}
	if auth {
		u.Scheme = ""
	}
	h.url = *u
	return nil
}

// parseOriginForm parses uri into u as url.ParseRequestURI would when
// uri is an absolute path whose every path byte is one url.URL keeps
// unescaped — the form of every URI the emulation sends — reusing uri's
// substrings, and reports false, leaving u alone, for any other.
func parseOriginForm(u *neturl.URL, uri string) bool {
	if uri == "" || uri[0] != '/' {
		return false
	}
	path, query, hasQuery := strings.Cut(uri, "?")
	for i := 0; i < len(path); i++ {
		if !plainPathByte(path[i]) {
			return false
		}
	}
	for i := 0; i < len(query); i++ {
		if c := query[i]; c < ' ' || c == 0x7f {
			return false
		}
	}
	*u = neturl.URL{Path: path, RawQuery: query, ForceQuery: hasQuery && query == ""}
	return true
}

// plainPathByte reports whether url.URL leaves c unescaped in a path:
// unreserved bytes and the reserved ones a path segment may hold, but
// not '%', which would need unescaping.
func plainPathByte(c byte) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		return true
	}
	switch c {
	case '-', '_', '.', '~', '$', '&', '+', ',', '/', ':', ';', '=', '@':
		return true
	}
	return false
}

// parseFields reads the header section into h.hdr as textproto's
// ReadMIMEHeader does: names canonicalised (left as sent when they hold
// a space), values trimmed, obs-fold lines joined.
func (h *reqHead) parseFields(block []byte) error {
	if h.hdr == nil {
		h.hdr = make(http.Header, len(h.vals))
	}
	clear(h.hdr)
	if len(block) > 0 && (block[0] == ' ' || block[0] == '\t') {
		return fmt.Errorf("malformed initial header line")
	}
	for i := 0; ; i++ {
		key, val, rest, err := nextField(block)
		if err != nil {
			return err
		}
		if key == nil {
			return nil
		}
		block = rest
		var k string
		var vv []string
		if i < len(h.vals) {
			h.keys[i] = canonicalKey(key, h.keys[i])
			h.vals[i] = reuse(val, h.vals[i])
			k, vv = h.keys[i], h.vals[i:i+1:i+1]
		} else {
			k, vv = canonicalKey(key, ""), []string{string(val)}
		}
		if old := h.hdr[k]; old != nil {
			vv = append(old, vv[0])
		}
		h.hdr[k] = vv
	}
}

// canonicalKey returns key in textproto's canonical form — the first
// letter and every letter after a hyphen upper case, the rest lower —
// or as sent when it holds a space, as textproto keeps it; prev when
// that is the same string.
func canonicalKey(key []byte, prev string) string {
	if bytes.IndexByte(key, ' ') >= 0 {
		return reuse(key, prev)
	}
	var buf [32]byte
	b := append(buf[:0], key...)
	upper := true
	for i, c := range b {
		if upper && 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		} else if !upper && 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b[i] = c
		upper = c == '-'
	}
	return reuse(b, prev)
}

// reuse returns prev when b holds its bytes, the constant when b is
// one of the method, protocol, field names and User-Agent value of
// every player's head, else a copy of b.
func reuse(b []byte, prev string) string {
	if string(b) == prev {
		return prev
	}
	switch string(b) {
	case "GET":
		return "GET"
	case "HTTP/1.1":
		return "HTTP/1.1"
	case "Host":
		return "Host"
	case "User-Agent":
		return "User-Agent"
	case "Range":
		return "Range"
	case "Go-http-client/1.1":
		return "Go-http-client/1.1"
	}
	return string(b)
}

// transfer applies net/http's request framing rules to the parsed
// header: a Transfer-Encoding field is removed and, from HTTP/1.1 on,
// must be a single "chunked"; repeated Content-Length fields must agree
// and fold into one; a chunked request drops its Content-Length and its
// Trailer field, whose names must not be framing fields.
func (h *reqHead) transfer(r *http.Request, major, minor int) error {
	hdr := h.hdr
	chunked := false
	if raw, ok := hdr["Transfer-Encoding"]; ok {
		delete(hdr, "Transfer-Encoding")
		if transferCoded(major, minor) {
			if len(raw) != 1 || !eqFold(raw[0], "chunked") {
				return fmt.Errorf("unsupported transfer encoding %q", raw)
			}
			chunked = true
		}
	}
	cls := hdr["Content-Length"]
	if len(cls) > 1 {
		first := textproto.TrimString(cls[0])
		for _, v := range cls[1:] {
			if textproto.TrimString(v) != first {
				return fmt.Errorf("conflicting Content-Length %q", cls)
			}
		}
		cls = []string{first}
		hdr["Content-Length"] = cls
	}
	r.ContentLength = 0
	if len(cls) > 0 {
		n, err := strconv.ParseUint(textproto.TrimString(cls[0]), 10, 63)
		if err != nil {
			return fmt.Errorf("bad Content-Length %q", cls[0])
		}
		r.ContentLength = int64(n)
	}
	if !chunked {
		return nil
	}
	delete(hdr, "Content-Length")
	r.ContentLength = -1
	r.TransferEncoding = []string{"chunked"}
	if vv, ok := hdr["Trailer"]; ok {
		delete(hdr, "Trailer")
		for _, v := range vv {
			for _, name := range strings.Split(v, ",") {
				name = textproto.TrimString(name)
				if eqFold(name, "Transfer-Encoding") || eqFold(name, "Trailer") || eqFold(name, "Content-Length") {
					return fmt.Errorf("bad trailer key %q", name)
				}
			}
		}
	}
	return nil
}

package origin

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/netem"
	"repro/internal/videostore"
)

// ThrottleConfig enables Trickle-style server pacing as deployed on
// YouTube video servers (Ghobadi et al., USENIX ATC'12): an unpaced
// initial burst followed by rate-limited delivery at a multiple of the
// video encoding rate. Off by default in the paper-reproduction
// experiments (the testbed servers are plain Apache), but implemented so
// its interaction with multi-source scheduling can be studied.
type ThrottleConfig struct {
	// BurstBytes are delivered unpaced at the start of each connection.
	BurstBytes int64
	// RateFactor paces subsequent bytes at RateFactor × format bitrate.
	RateFactor float64
}

// VideoServer serves video bytes for one replica. It validates access
// tokens minted by the network's web proxy and answers HTTP range
// requests exactly like the Apache servers in the paper's testbed.
type VideoServer struct {
	replica  []string // the replica address: every response's X-Replica value
	network  string
	catalog  *videostore.Catalog
	tokens   *TokenMAC
	clock    *netem.Clock
	throttle *ThrottleConfig
}

// NewVideoServer builds a replica for the given access network.
func NewVideoServer(name, network string, catalog *videostore.Catalog, secret []byte,
	clock *netem.Clock, throttle *ThrottleConfig) *VideoServer {
	return &VideoServer{replica: []string{name}, network: network, catalog: catalog,
		tokens: NewTokenMAC(secret), clock: clock, throttle: throttle}
}

// Handler returns the server's HTTP handler, serving
// GET /videoplayback?v=<id>&itag=<n>&token=<t>&expire=<unix>&net=<name>
// and answering every other path with 404: a replica has one route.
func (s *VideoServer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/videoplayback" {
			http.NotFound(w, r)
			return
		}
		s.handlePlayback(w, r)
	})
}

func (s *VideoServer) handlePlayback(w http.ResponseWriter, r *http.Request) {
	q := ParsePlaybackQuery(r.URL.RawQuery)
	v, err := s.catalog.Get(q.V)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if q.Net != s.network {
		http.Error(w, fmt.Sprintf("origin: token network %q not valid on %q", q.Net, s.network), http.StatusForbidden)
		return
	}
	if err := s.tokens.Verify(q.V, s.network, q.Token, q.Expire, s.clock.Now()); err != nil {
		http.Error(w, err.Error(), http.StatusForbidden)
		return
	}
	itag, err := strconv.Atoi(q.Itag)
	if err != nil {
		http.Error(w, "origin: bad itag", http.StatusBadRequest)
		return
	}
	f, err := v.Format(itag)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header()["X-Replica"] = s.replica
	if s.throttle != nil {
		w = &pacedWriter{ResponseWriter: w, clock: s.clock,
			burst: s.throttle.BurstBytes,
			rate:  s.throttle.RateFactor * f.BytesPerSecond()}
	}
	// serveCachedRange keeps no reference to its Content, so that one
	// lives on the stack; only the fallback hands one to ServeContent.
	if serveCachedRange(w, r, v.Content(f)) {
		return
	}
	// Set here, the type does not depend on the host's MIME table,
	// which has no .mp4 entry on a machine without /etc/mime.types.
	w.Header()["Content-Type"] = videoMP4
	http.ServeContent(w, r, v.ID+".mp4", time.Unix(0, 0), v.Content(f))
}

// RangeChunk mirrors the 32 KB scratch io.Copy and the httpx response
// writer stream bodies through: serving cached page views in the same
// write-call sizes keeps every downstream behaviour that observes call
// granularity — Trickle pacing sleeps, bufio flush boundaries —
// identical to the ServeContent path. Edge caches write in the same
// strides, so what lies downstream of an edge looks like the origin.
const RangeChunk = 32 << 10

// serveCachedRange answers the hot-path playback request — a plain
// single-range GET, no preconditions, inside the content page cache —
// by writing borrowed page slices straight to the response, skipping
// ServeContent's per-request seek/copy machinery and its intermediate
// buffer fill. The wire output (status, headers, body bytes, write
// granularity) is byte-identical to http.ServeContent for this shape;
// everything else (suffix/open/multi ranges, 416s, preconditions,
// HEAD, beyond-cache tails) reports false and falls through.
func serveCachedRange(w http.ResponseWriter, r *http.Request, content *videostore.Content) bool {
	if r.Method != http.MethodGet {
		return false
	}
	h := r.Header
	if h.Get("If-Match") != "" || h.Get("If-Unmodified-Since") != "" ||
		h.Get("If-None-Match") != "" || h.Get("If-Modified-Since") != "" ||
		h.Get("If-Range") != "" {
		return false
	}
	from, to, ok := ParsePlainRange(h.Get("Range"))
	size := content.Size()
	if !ok || to >= size || !content.Cached(from, to-from+1) {
		return false
	}
	// No Last-Modified: ServeContent treats the Unix epoch modtime the
	// playback handler passes as "unknown" and omits the header.
	SetRangeHead(w.Header(), from, to, size)
	w.WriteHeader(http.StatusPartialContent)
	// The body streams in the exact strides the ServeContent path
	// produced — 32 KB from the range start, unaligned — so write-call
	// observers stay oblivious. The common stride is a borrowed page
	// view written through the stable (copy-free) path; a stride
	// straddling a page edge goes through one pooled copy and a plain
	// write (the scratch buffer is reused, so it must not be aliased
	// into delivery segments) rather than perturbing the call sizes.
	sw, _ := w.(StableWriter)
	var scratch *[]byte
	defer func() { // once, not per stride: a defer in the loop is heap-allocated
		if scratch != nil {
			rangeBufPool.Put(scratch)
		}
	}()
	for off := from; off <= to; {
		n := min(int64(RangeChunk), to-off+1)
		var err error
		if view := content.CachedSlice(off, int(n)); view != nil && sw != nil {
			_, err = sw.WriteStable(view)
		} else {
			if scratch == nil {
				scratch = rangeBufPool.Get().(*[]byte)
			}
			buf := (*scratch)[:n]
			if _, rerr := content.ReadAt(buf, off); rerr != nil {
				return true
			}
			_, err = w.Write(buf)
		}
		if err != nil {
			return true // aborted mid-body; the conn is done either way
		}
		off += n
	}
	return true
}

// The constant values of a 206 head, shared by every response. Each
// slice has len == cap, so a later Header.Add copies rather than
// writing into it; nothing writes a header value in place.
var (
	videoMP4   = []string{"video/mp4"}
	bytesRange = []string{"bytes"}
)

// SetRangeHead sets the head http.ServeContent writes for the 206
// answer to "Range: bytes=from-to" of a size-byte video/mp4 body with
// no modification time: Content-Type, Accept-Ranges, Content-Range and
// Content-Length. The constant values are shared slices; the two
// numeric ones are cut from one string backed by one two-value array,
// the only allocations. The header writer sorts the keys, so setting
// them by assignment leaves the wire bytes unchanged.
func SetRangeHead(h http.Header, from, to, size int64) {
	var buf [80]byte
	b := append(buf[:0], "bytes "...)
	b = strconv.AppendInt(b, from, 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, to, 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, size, 10)
	cut := len(b)
	b = strconv.AppendInt(b, to-from+1, 10)
	vals := string(b)
	pair := &[2]string{vals[:cut], vals[cut:]}
	h["Content-Type"] = videoMP4
	h["Accept-Ranges"] = bytesRange
	h["Content-Range"] = pair[0:1:1]
	h["Content-Length"] = pair[1:2:2]
}

// StableWriter is implemented by httpx response writers (and the paced
// wrapper) for body bytes that are immutable and outlive the response.
type StableWriter interface {
	WriteStable(b []byte) (int, error)
}

// rangeBufPool holds scratch for range strides that straddle a content
// page boundary.
var rangeBufPool = sync.Pool{
	New: func() any { b := make([]byte, RangeChunk); return &b },
}

// ParsePlainRange parses exactly the closed single-range form the
// players send ("bytes=a-b", both ends explicit). Anything else —
// suffix, open-ended, multiple ranges, malformed — is left to
// ServeContent's full parser.
func ParsePlainRange(s string) (from, to int64, ok bool) {
	const pfx = "bytes="
	if len(s) <= len(pfx) || s[:len(pfx)] != pfx {
		return 0, 0, false
	}
	dash := strings.IndexByte(s[len(pfx):], '-')
	if dash < 0 {
		return 0, 0, false
	}
	dash += len(pfx)
	var err error
	if from, err = strconv.ParseInt(s[len(pfx):dash], 10, 64); err != nil || from < 0 {
		return 0, 0, false
	}
	if to, err = strconv.ParseInt(s[dash+1:], 10, 64); err != nil || to < from {
		return 0, 0, false
	}
	return from, to, true
}

// pacedWriter implements the Trickle pacing on top of an httpx
// ResponseWriter. A write past the burst goes out d after everything
// written before it is on the wire — the pause a pacing server sleeps —
// through an httpx.After continuation that a netem.Timer resumes; the
// handler itself keeps writing synchronously.
type pacedWriter struct {
	http.ResponseWriter
	clock  *netem.Clock
	burst  int64
	rate   float64 // bytes/sec after the burst
	sent   int64
	timer  *netem.Timer // ends the pending pause
	resume func()       // the pending pause's continuation
}

func (p *pacedWriter) Write(b []byte) (int, error) {
	p.pace(len(b))
	n, err := p.ResponseWriter.Write(b)
	p.sent += int64(n)
	return n, err
}

// WriteStable forwards stable (copy-free) writes with the same pacing
// as Write.
func (p *pacedWriter) WriteStable(b []byte) (int, error) {
	p.pace(len(b))
	var n int
	var err error
	if sw, ok := p.ResponseWriter.(StableWriter); ok {
		n, err = sw.WriteStable(b)
	} else {
		n, err = p.ResponseWriter.Write(b)
	}
	p.sent += int64(n)
	return n, err
}

func (p *pacedWriter) pace(n int) {
	if p.sent < p.burst || p.rate <= 0 {
		return
	}
	d := time.Duration(float64(n) / p.rate * float64(time.Second))
	httpx.After(p.ResponseWriter, func(_ int64, err error, resume func()) {
		if err != nil {
			resume() // the connection failed: nothing left to pace
			return
		}
		if p.timer == nil {
			p.timer = p.clock.NewTimer(func() { p.resume() })
		}
		p.resume = resume
		p.timer.Schedule(p.clock.Now().Add(d))
	})
}

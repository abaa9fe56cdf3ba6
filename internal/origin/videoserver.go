package origin

import (
	"fmt"
	"net/http"
	"strconv"
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
	name     string // replica address, for logs/metrics
	network  string
	catalog  *videostore.Catalog
	secret   []byte
	clock    *netem.Clock
	throttle *ThrottleConfig
}

// NewVideoServer builds a replica for the given access network.
func NewVideoServer(name, network string, catalog *videostore.Catalog, secret []byte,
	clock *netem.Clock, throttle *ThrottleConfig) *VideoServer {
	return &VideoServer{name: name, network: network, catalog: catalog,
		secret: secret, clock: clock, throttle: throttle}
}

// Handler returns the server's HTTP handler, serving
// GET /videoplayback?v=<id>&itag=<n>&token=<t>&expire=<unix>&net=<name>.
func (s *VideoServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/videoplayback", s.handlePlayback)
	return mux
}

func (s *VideoServer) handlePlayback(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id := q.Get("v")
	v, err := s.catalog.Get(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if q.Get("net") != s.network {
		http.Error(w, fmt.Sprintf("origin: token network %q not valid on %q", q.Get("net"), s.network), http.StatusForbidden)
		return
	}
	if err := VerifyToken(s.secret, id, s.network, q.Get("token"), q.Get("expire"), s.clock.Now()); err != nil {
		http.Error(w, err.Error(), http.StatusForbidden)
		return
	}
	itag, err := strconv.Atoi(q.Get("itag"))
	if err != nil {
		http.Error(w, "origin: bad itag", http.StatusBadRequest)
		return
	}
	f, err := v.Format(itag)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("X-Replica", s.name)
	content := v.Content(f)
	if s.throttle != nil {
		w = &pacedWriter{ResponseWriter: w, clock: s.clock,
			burst: s.throttle.BurstBytes,
			rate:  s.throttle.RateFactor * f.BytesPerSecond()}
	}
	if serveCachedRange(w, r, content) {
		return
	}
	http.ServeContent(w, r, v.ID+".mp4", time.Unix(0, 0), content)
}

// rangeChunk mirrors the 32 KB scratch io.Copy and the httpx response
// writer stream bodies through: serving cached page views in the same
// write-call sizes keeps every downstream behaviour that observes call
// granularity — Trickle pacing sleeps, bufio flush boundaries —
// identical to the ServeContent path.
const rangeChunk = 32 << 10

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
	from, to, ok := parsePlainRange(h.Get("Range"))
	size := content.Size()
	if !ok || to >= size || !content.Cached(from, to-from+1) {
		return false
	}
	hw := w.Header()
	hw.Set("Content-Type", "video/mp4")
	// No Last-Modified: ServeContent treats the Unix epoch modtime the
	// playback handler passes as "unknown" and omits the header.
	hw.Set("Accept-Ranges", "bytes")
	hw.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", from, to, size))
	hw.Set("Content-Length", strconv.FormatInt(to-from+1, 10))
	w.WriteHeader(http.StatusPartialContent)
	// The body streams in the exact strides the ServeContent path
	// produced — 32 KB from the range start, unaligned — so write-call
	// observers stay oblivious. The common stride is a borrowed page
	// view written through the stable (copy-free) path; a stride
	// straddling a page edge goes through one pooled copy and a plain
	// write (the scratch buffer is reused, so it must not be aliased
	// into delivery segments) rather than perturbing the call sizes.
	sw, _ := w.(stableWriter)
	var scratch *[]byte
	for off := from; off <= to; {
		n := min(int64(rangeChunk), to-off+1)
		var err error
		if view := content.CachedSlice(off, int(n)); view != nil && sw != nil {
			_, err = sw.WriteStable(view)
		} else {
			if scratch == nil {
				scratch = rangeBufPool.Get().(*[]byte)
				defer rangeBufPool.Put(scratch)
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

// stableWriter is implemented by httpx response writers (and the paced
// wrapper) for body bytes that are immutable and outlive the response.
type stableWriter interface {
	WriteStable(b []byte) (int, error)
}

// rangeBufPool holds scratch for range strides that straddle a content
// page boundary.
var rangeBufPool = sync.Pool{
	New: func() any { b := make([]byte, rangeChunk); return &b },
}

// parsePlainRange parses exactly the closed single-range form the
// players send ("bytes=a-b", both ends explicit). Anything else —
// suffix, open-ended, multiple ranges, malformed — is left to
// ServeContent's full parser.
func parsePlainRange(s string) (from, to int64, ok bool) {
	const pfx = "bytes="
	if len(s) <= len(pfx) || s[:len(pfx)] != pfx {
		return 0, 0, false
	}
	dash := -1
	for i := len(pfx); i < len(s); i++ {
		if s[i] == '-' {
			dash = i
			break
		}
	}
	if dash < 0 {
		return 0, 0, false
	}
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
	if sw, ok := p.ResponseWriter.(stableWriter); ok {
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

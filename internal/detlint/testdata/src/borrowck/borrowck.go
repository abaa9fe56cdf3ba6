// Package borrowck exercises detlint/borrowck: CachedSlice results,
// WriteStable parameters, and sync.Pool payloads are borrowed views;
// retaining one beyond the call is a finding, while the sanctioned
// owner-write and copy-out patterns pass.
package borrowck

import "sync"

// content mimics videostore.Content: CachedSlice hands out borrowed
// views into its page cache (matching is by method name).
type content struct{ page []byte }

func (c *content) CachedSlice(off int64, n int) []byte {
	return c.page[off : off+int64(n) : off+int64(n)]
}

// edgeCache mimics edge.Cache: PageView hands out borrowed views of
// cached page buffers on a hit, or the flight whose PageView hands them
// out once the fill lands (matching is by method name).
type edgeCache struct{ page []byte }

type flight struct{ page []byte }

func (e *edgeCache) PageView(pg int64, wake func()) ([]byte, *flight) {
	return e.page, nil
}

func (f *flight) PageView() ([]byte, error) { return f.page, nil }

// clock mimics netem.Clock's timer API: callbacks handed to NewTimer
// outlive the calling function.
type clock struct{}

type timer struct{ fn func() }

func (clock) NewTimer(fn func()) *timer { return &timer{fn} }

// After mimics httpx.After: the continuation runs once the response's
// bytes so far are on the wire, long after the call returns.
func After(w any, fn func(written int64, err error, resume func())) {}

var pool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

type holder struct {
	view []byte
}

var global []byte

func use([]byte) {}

func fieldStore(h *holder, c *content) {
	v := c.CachedSlice(0, 8)
	h.view = v // want "borrowed view stored into field view"
}

func elementStore(c *content, dst [][]byte) {
	v := c.CachedSlice(0, 8)
	dst[0] = v // want "borrowed view stored into a container element"
}

func globalStore(c *content) {
	global = c.CachedSlice(0, 8) // want "borrowed view stored into package variable global"
}

func goCapture(c *content) {
	v := c.CachedSlice(0, 8)
	go func() {
		use(v) // want "borrowed slice v captured by go statement closure"
	}()
}

func spawnCapture(clk clock, c *content) {
	v := c.CachedSlice(0, 8)
	clk.NewTimer(func() {
		use(v) // want "borrowed slice v captured by closure spawned via NewTimer"
	})
}

func appendGrow(c *content) []byte {
	v := c.CachedSlice(0, 8)
	return append(v, 0) // want "append on borrowed slice v"
}

func returned(c *content) []byte {
	v := c.CachedSlice(0, 8)
	return v // want "borrowed view returned from returned"
}

func composite(c *content) holder {
	v := c.CachedSlice(0, 8)
	return holder{view: v} // want "borrowed view stored into a composite literal"
}

// WriteStable's slice parameter is a borrow by contract: local
// reslicing is fine, retaining it is not.
func (h *holder) WriteStable(b []byte) (int, error) {
	n := len(b)
	b = b[:0]
	h.view = b // want "borrowed view stored into field view"
	return n, nil
}

// The pool owner writing into a buffer it just took from the pool is
// the sanctioned ownership protocol, not a finding; copying out before
// Put keeps nothing borrowed.
func poolOwnerWrites() []byte {
	bp := pool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, 'x')
	out := append([]byte(nil), b...)
	pool.Put(bp)
	return out
}

// Handing a pool buffer to a spawned closure still leaks it past the
// call, pool protocol or not.
func poolSpawnCapture(clk clock) {
	bp := pool.Get().(*[]byte)
	clk.NewTimer(func() {
		use(*bp) // want "borrowed slice bp captured by closure spawned via NewTimer"
	})
}

// PageView results are borrows exactly like CachedSlice results:
// retaining one in a field is a finding, serving it onward as a plain
// call argument is the sanctioned pattern.
func pageViewFieldStore(h *holder, e *edgeCache) {
	v, _ := e.PageView(0, nil)
	h.view = v // want "borrowed view stored into field view"
}

func pageViewServePass(h *holder, e *edgeCache) {
	v, _ := e.PageView(0, nil)
	h.WriteStable(v[:4])
}

// A page view captured by a response continuation outlives the
// continuation that borrowed it; the flight's view is a borrow too.
func pageViewContinuationCapture(h *holder, e *edgeCache) {
	v, f := e.PageView(0, nil)
	After(h, func(int64, error, func()) {
		h.WriteStable(v) // want "borrowed slice v captured by closure spawned via After"
	})
	w, _ := f.PageView()
	h.view = w // want "borrowed view stored into field view"
}

// evConn mimics netem.Conn's borrow-based read path: ReadBuf hands out
// a view of the head arrived segment, owned by the pipe until the
// reader hands it back through Release (matching is by method name).
type evConn struct{ seg []byte }

func (c *evConn) ReadBuf() ([]byte, error) { return c.seg, nil }
func (c *evConn) Release(n int)            {}

// A ReadBuf view escaping into a field outlives the borrow: once
// Release returns the bytes to the pipe they are recycled into future
// segments.
func readBufFieldStore(h *holder, c *evConn) {
	v, _ := c.ReadBuf()
	h.view = v // want "borrowed view stored into field view"
	c.Release(len(h.view))
}

// Capturing a ReadBuf view in a timer or spawned closure retains it
// past the callback that borrowed it.
func readBufSpawnCapture(clk clock, c *evConn) {
	v, _ := c.ReadBuf()
	clk.NewTimer(func() {
		use(v) // want "borrowed slice v captured by closure spawned via NewTimer"
	})
}

func readBufAppendGrow(c *evConn) []byte {
	v, _ := c.ReadBuf()
	return append(v, 0) // want "append on borrowed slice v"
}

// The sanctioned consumer pattern: copy the view out (or hand it on as
// a plain call argument) and Release the bytes before returning.
func readBufCopyReleasePass(c *evConn) []byte {
	v, _ := c.ReadBuf()
	out := append([]byte(nil), v...)
	c.Release(len(v))
	return out
}

// Copying the borrowed bytes severs the borrow.
func copyOutPass(h *holder, c *content) {
	v := c.CachedSlice(0, 8)
	h.view = append([]byte(nil), v...)
}

func suppressedReturn(c *content) []byte {
	return c.CachedSlice(0, 8) //detlint:allow borrowck -- testdata: documented borrow passthrough
}

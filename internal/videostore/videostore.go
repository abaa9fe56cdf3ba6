// Package videostore models the video side of the emulated YouTube
// service: a catalog of fixed-bitrate videos with deterministic synthetic
// content, plus the byte↔playback-time arithmetic the player and the
// experiment harness rely on.
//
// The paper streams HD (720p) MP4 videos at a constant bitrate and
// explicitly leaves rate adaptation out of scope, so a format is fully
// described by its bitrate: the mapping between a byte range and seconds
// of playback is linear.
package videostore

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Format describes one encoding profile of a video, mirroring a YouTube
// itag entry in the JSON metadata.
type Format struct {
	// Itag is the YouTube format identifier (e.g. 22 for MP4 720p).
	Itag int
	// Quality is the human label: "720p", "360p", ...
	Quality string
	// MimeType is the container/codec description.
	MimeType string
	// Bitrate is the combined audio+video bitrate in bits per second.
	Bitrate int64
}

// BytesPerSecond returns the storage rate of the format.
func (f Format) BytesPerSecond() float64 { return float64(f.Bitrate) / 8 }

// BytesFor returns the number of content bytes covering d of playback.
func (f Format) BytesFor(d time.Duration) int64 {
	return int64(d.Seconds() * f.BytesPerSecond())
}

// PlaybackFor returns the playback duration stored in n bytes.
func (f Format) PlaybackFor(n int64) time.Duration {
	return time.Duration(float64(n) / f.BytesPerSecond() * float64(time.Second))
}

// Standard formats used throughout the experiments. HD720 matches the
// paper's evaluation profile: MP4 720p video with 44.1 kHz audio at a
// combined ~2.5 Mb/s.
var (
	HD720 = Format{Itag: 22, Quality: "720p", MimeType: "video/mp4; codecs=\"avc1.64001F, mp4a.40.2\"", Bitrate: 2_500_000}
	SD360 = Format{Itag: 18, Quality: "360p", MimeType: "video/mp4; codecs=\"avc1.42001E, mp4a.40.2\"", Bitrate: 700_000}
)

// Video is a catalog entry identified by an 11-character YouTube-style ID.
type Video struct {
	ID       string
	Title    string
	Author   string
	Duration time.Duration
	Formats  []Format
}

// Format returns the format with the given itag.
func (v *Video) Format(itag int) (Format, error) {
	for _, f := range v.Formats {
		if f.Itag == itag {
			return f, nil
		}
	}
	return Format{}, fmt.Errorf("videostore: video %s has no itag %d", v.ID, itag)
}

// Size returns the content length of the video in the given format.
func (v *Video) Size(f Format) int64 { return f.BytesFor(v.Duration) }

// Content returns a deterministic synthetic byte stream for the video in
// the given format, usable with http.ServeContent. Bytes are a pure
// function of (video ID, itag, offset) so range responses fetched over
// different paths and different replicas agree exactly, which lets tests
// verify multi-source reassembly byte for byte. Content is small
// enough to inline (it spells out Size's body to stay so), so a caller
// that keeps no reference to the result gets it on the stack: one heap
// allocation less per range request, ≈ 22 per flashcrowd session.
// internal/origin's TestCachedRangeRequestAllocs fails if it stops
// inlining.
func (v *Video) Content(f Format) *Content {
	return &Content{seed: contentSeed(v.ID, f.Itag), size: f.BytesFor(v.Duration)}
}

func contentSeed(id string, itag int) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for _, c := range []byte(id) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h ^ uint64(itag)*0x9E3779B9
}

// Content is a deterministic pseudo-random blob implementing io.ReaderAt,
// io.ReadSeeker and io.Reader without materializing the bytes.
type Content struct {
	seed uint64
	size int64
	pos  int64
}

// Size returns the total length of the blob.
func (c *Content) Size() int64 { return c.size }

// wordAt computes the 8-byte hash word covering offsets
// [8*block, 8*block+8); the blob's byte at offset off is byte off&7
// (little-endian) of wordAt(off/8).
func (c *Content) wordAt(block int64) uint64 {
	x := c.seed + uint64(block)*0x9E3779B9
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CC9
	x ^= x >> 33
	return x
}

// byteAt computes the blob's byte at absolute offset off.
func (c *Content) byteAt(off int64) byte {
	return byte(c.wordAt(off/8) >> (8 * (uint(off) & 7)))
}

// Page cache: every session of a fleet streams the same few catalog
// entries, so the same (video, itag) byte ranges are generated over and
// over — hash generation was ~10% of fleet-scale CPU. Since content is
// a pure function of (seed, offset), the leading pages of each blob are
// materialized once, process-wide, and served with a copy; offsets past
// the cached window fall back to direct generation. Bytes are identical
// either way, so nothing observable changes except CPU time.
const (
	contentPageShift = 18 // 256 KB pages
	contentPageSize  = 1 << contentPageShift
	contentMaxPages  = 64 // cache up to 16 MB per (seed, size) blob
)

type contentPages struct {
	pages [contentMaxPages]atomic.Pointer[[]byte]
}

// contentCaches maps a Content seed to its shared page set. Seeds are
// derived from (video ID, itag), which also fixes the size, so the seed
// alone identifies the blob.
var contentCaches sync.Map // uint64 -> *contentPages

func (c *Content) pageFor(page int64) []byte {
	pcv, ok := contentCaches.Load(c.seed)
	if !ok {
		pcv, _ = contentCaches.LoadOrStore(c.seed, &contentPages{})
	}
	pc := pcv.(*contentPages)
	if b := pc.pages[page].Load(); b != nil {
		return *b
	}
	// Miss: generate the full page. Concurrent misses duplicate the
	// work but produce identical bytes; last store wins harmlessly.
	b := make([]byte, contentPageSize)
	c.generate(b, page<<contentPageShift)
	pc.pages[page].Store(&b)
	return b
}

// ReadAt implements io.ReaderAt. Ranges inside the cached window are
// copied from materialized pages; the tail of very large blobs is
// generated directly. The produced bytes are identical to repeated
// byteAt calls.
func (c *Content) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("videostore: negative offset")
	}
	if off >= c.size {
		return 0, io.EOF
	}
	n := len(p)
	if int64(n) > c.size-off {
		n = int(c.size - off)
	}
	rest, at := p[:n], off
	for len(rest) > 0 {
		page := at >> contentPageShift
		if page >= contentMaxPages {
			c.generate(rest, at)
			break
		}
		m := copy(rest, c.pageFor(page)[at&(contentPageSize-1):])
		rest = rest[m:]
		at += int64(m)
	}
	if int64(n) < int64(len(p)) {
		return n, io.EOF
	}
	return n, nil
}

// Cached reports whether [off, off+n) lies entirely inside the page
// cache's window (pages materialize on demand), so a range server can
// commit to serving it from cache before emitting headers.
func (c *Content) Cached(off, n int64) bool {
	return off >= 0 && n > 0 && off+n <= c.size &&
		(off+n-1)>>contentPageShift < contentMaxPages
}

// CachedSlice returns a read-only view of the blob's bytes
// [off, off+n) borrowed from the page cache, or nil when the range
// crosses a page boundary, exceeds the cached window, or falls outside
// the blob. Callers must not retain or mutate the slice; it lets range
// servers put content on the wire without an intermediate copy.
func (c *Content) CachedSlice(off int64, n int) []byte {
	if n <= 0 || off < 0 || off >= c.size || int64(n) > c.size-off {
		return nil
	}
	page := off >> contentPageShift
	po := off & (contentPageSize - 1)
	if page >= contentMaxPages || po+int64(n) > contentPageSize {
		return nil
	}
	// Cap-clip the view (3-index slice) so even a misbehaving caller
	// cannot append into the rest of the cached page.
	return c.pageFor(page)[po : po+int64(n) : po+int64(n)]
}

// generate fills p with the blob's bytes starting at off: the bulk one
// hash word (8 bytes) at a time — byte-at-a-time generation dominated
// origin-side CPU at fleet scale — with ragged edges handled per byte.
func (c *Content) generate(p []byte, off int64) {
	n := len(p)
	i := 0
	// Leading edge up to the next 8-byte block boundary.
	for ; i < n && (off+int64(i))&7 != 0; i++ {
		p[i] = c.byteAt(off + int64(i))
	}
	// Aligned full words.
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(p[i:i+8], c.wordAt((off+int64(i))/8))
	}
	// Trailing edge.
	for ; i < n; i++ {
		p[i] = c.byteAt(off + int64(i))
	}
}

// Read implements io.Reader.
func (c *Content) Read(p []byte) (int, error) {
	n, err := c.ReadAt(p, c.pos)
	c.pos += int64(n)
	return n, err
}

// Seek implements io.Seeker.
func (c *Content) Seek(offset int64, whence int) (int64, error) {
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = c.pos + offset
	case io.SeekEnd:
		abs = c.size + offset
	default:
		return 0, fmt.Errorf("videostore: invalid whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("videostore: negative seek position")
	}
	c.pos = abs
	return abs, nil
}

// Catalog is a set of videos addressable by ID.
type Catalog struct {
	videos map[string]*Video
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{videos: make(map[string]*Video)} }

// Add registers a video; the ID must be 11 characters, as on YouTube.
func (c *Catalog) Add(v *Video) error {
	if len(v.ID) != 11 {
		return fmt.Errorf("videostore: video ID %q must be 11 characters", v.ID)
	}
	if len(v.Formats) == 0 {
		return fmt.Errorf("videostore: video %s has no formats", v.ID)
	}
	c.videos[v.ID] = v
	return nil
}

// Get looks up a video by ID.
func (c *Catalog) Get(id string) (*Video, error) {
	v, ok := c.videos[id]
	if !ok {
		return nil, fmt.Errorf("videostore: unknown video %q", id)
	}
	return v, nil
}

// IDs returns the catalog's video IDs, sorted: callers feed them into
// reports and scenario setup, so the order must not depend on map
// iteration.
func (c *Catalog) IDs() []string {
	ids := make([]string, 0, len(c.videos))
	for id := range c.videos {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// DefaultCatalog returns a catalog with the reference videos used by the
// examples and experiments: a 5-minute HD clip mirroring the paper's
// testbed videos, plus a short clip for quick tests.
func DefaultCatalog() *Catalog {
	c := NewCatalog()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(c.Add(&Video{
		ID:       "qjT4T2gU9sM",
		Title:    "Testbed HD Reference Clip",
		Author:   "msplayer-testbed",
		Duration: 5 * time.Minute,
		Formats:  []Format{HD720, SD360},
	}))
	must(c.Add(&Video{
		ID:       "shortclip01",
		Title:    "Short Clip",
		Author:   "msplayer-testbed",
		Duration: 30 * time.Second,
		Formats:  []Format{HD720, SD360},
	}))
	return c
}

package edge

import (
	"sync"
	"time"

	"repro/internal/netem"
)

// Eviction policies.
const (
	// PolicyLRU evicts the least-recently-used page, ties broken by
	// (videoID, itag, page) order.
	PolicyLRU = "lru"
	// PolicyLFU evicts the least-frequently-used page, ties broken by
	// (videoID, itag, page) order.
	PolicyLFU = "lfu"
)

// pageKey identifies one cached content page. The key order
// (videoID, itag, page) is the deterministic tie-break of both
// eviction policies.
type pageKey struct {
	video string
	itag  int
	page  int64
}

func (k pageKey) less(o pageKey) bool {
	if k.video != o.video {
		return k.video < o.video
	}
	if k.itag != o.itag {
		return k.itag < o.itag
	}
	return k.page < o.page
}

// page is one resident cache entry. data is immutable once inserted
// and never recycled; eviction only drops the reference (see doc.go).
type page struct {
	key      pageKey
	data     []byte
	fillTime time.Time // virtual instant the bytes landed
	lastUse  time.Time // fill instant, advanced by strict hits
	uses     int64     // fill plus strict hits
}

// flight is one in-progress fill. Its waiters — the request that
// opened it first, then every miss that coalesced onto it — park a wake
// callback, are woken in that order when it completes, and read the
// result from the flight record itself — never from a store re-lookup —
// so a same-instant eviction cannot change what they observe.
type flight struct {
	data    []byte
	err     error
	waiters []func()
}

// PageView returns what the fill delivered: a borrowed view of the
// immutable, never-recycled page buffer — serve it or copy it, never
// retain it — or the fill's error. Valid once the flight woke its
// waiters.
func (f *flight) PageView() ([]byte, error) { return f.data, f.err }

// store is the bounded byte-budget page store behind one edge cache.
// All determinism invariants are documented in doc.go.
type store struct {
	budget   int64 // bytes; every resident page charges one pageSize
	pageSize int64
	policy   string // PolicyLRU or PolicyLFU
	stampede bool   // disable single-flight coalescing
	now      func() time.Time

	mu      sync.Mutex
	pages   map[pageKey]*page
	order   []*page // resident pages; the victim scan walks this slice
	used    int64
	flights map[pageKey]*flight

	hits, misses, fills, evictions int64
	servedBytes, backhaulBytes     int64
}

func newStore(clock *netem.Clock, budget, pageSize int64, policy string, stampede bool) *store {
	s := &store{
		budget:   budget,
		pageSize: pageSize,
		policy:   policy,
		stampede: stampede,
		pages:    make(map[pageKey]*page),
		flights:  make(map[pageKey]*flight),
	}
	if clock != nil {
		s.now = clock.Now
	}
	return s
}

// acquire classifies one page request at the caller's virtual instant.
// A strict hit, or a page that landed at this very instant, returns the
// page's bytes. Any other request returns the flight its bytes will
// come from, with wake parked on it behind the waiters already there;
// open reports that the caller created the flight and must fetch the
// page and complete it.
func (s *store) acquire(key pageKey, wake func()) (data []byte, f *flight, open bool) {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if pg, ok := s.pages[key]; ok && pg.fillTime.Before(now) {
		// A strict hit: the fill landed at an earlier instant, so every
		// same-instant request order observes it. Touches commute.
		s.hits++
		pg.lastUse = now
		pg.uses++
		return pg.data, nil, false
	}
	s.misses++
	if s.stampede {
		// Stampede mode: every miss fetches upstream, cache-storm style.
		// A request racing a fill completion refetches in either order
		// (absent, or resident with fillTime == now), so the fill count
		// cannot depend on which same-instant request ran first.
		return nil, &flight{waiters: []func(){wake}}, true
	}
	if f, ok := s.flights[key]; ok {
		// Coalesce onto the in-progress fill.
		f.waiters = append(f.waiters, wake)
		return nil, f, false
	}
	if pg, ok := s.pages[key]; ok {
		// Resident with fillTime == now: this request ran after the fill
		// completion at the same instant. The other order would have
		// joined the flight — same bytes, same miss, no touch.
		return pg.data, nil, false
	}
	f = &flight{waiters: []func(){wake}}
	s.flights[key] = f
	return nil, f, true
}

// complete records the outcome of a flight acquire opened — inserting
// the page on success — and wakes its waiters in the order they parked.
func (s *store) complete(key pageKey, f *flight, data []byte, err error) {
	s.mu.Lock()
	if err == nil {
		s.fill(key, data)
	}
	f.data, f.err = data, err
	if !s.stampede {
		delete(s.flights, key)
	}
	waiters := f.waiters
	f.waiters = nil
	s.mu.Unlock()
	for _, wake := range waiters {
		wake()
	}
}

// fill accounts a completed upstream fetch and inserts (or refreshes)
// the page, then evicts global minima until the store fits. Callers
// hold s.mu.
func (s *store) fill(key pageKey, data []byte) {
	s.fills++
	s.backhaulBytes += int64(len(data))
	now := s.now()
	if pg, ok := s.pages[key]; ok {
		// A concurrent stampede fill already landed. Same bytes; refresh
		// the fill instant (same-instant refreshes write the same value).
		pg.data = data
		pg.fillTime = now
		pg.lastUse = now
		return
	}
	pg := &page{key: key, data: data, fillTime: now, lastUse: now, uses: 1}
	s.pages[key] = pg
	s.order = append(s.order, pg)
	s.used += s.pageSize
	for s.used > s.budget && len(s.order) > 0 {
		s.evict()
	}
}

// evict drops the policy's victim: the minimum of the policy's total
// order over resident pages. Callers hold s.mu.
func (s *store) evict() {
	vi := 0
	for i := 1; i < len(s.order); i++ {
		if s.less(s.order[i], s.order[vi]) {
			vi = i
		}
	}
	victim := s.order[vi]
	s.order[vi] = s.order[len(s.order)-1]
	s.order = s.order[:len(s.order)-1]
	delete(s.pages, victim.key)
	s.used -= s.pageSize
	s.evictions++
}

// less is the policy's total order: true when a is a better victim
// (ranks below b). LRU compares (lastUse, key); LFU (uses, key).
func (s *store) less(a, b *page) bool {
	switch s.policy {
	case PolicyLFU:
		if a.uses != b.uses {
			return a.uses < b.uses
		}
	default: // PolicyLRU
		if !a.lastUse.Equal(b.lastUse) {
			return a.lastUse.Before(b.lastUse)
		}
	}
	return a.key.less(b.key)
}

// addServed accounts body bytes written toward clients.
func (s *store) addServed(n int64) {
	s.mu.Lock()
	s.servedBytes += n
	s.mu.Unlock()
}

// stats snapshots the store's books.
func (s *store) stats() (hits, misses, fills, evictions, resident int64, served, backhaul, used int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.fills, s.evictions, int64(len(s.order)), s.servedBytes, s.backhaulBytes, s.used
}

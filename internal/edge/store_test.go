package edge

import (
	"testing"
	"time"
)

// newTestStore builds a clockless store with a hand-advanced virtual
// now and a page size of one byte, so budgets read as page counts.
func newTestStore(budget int64, policy string, stampede bool) (*store, *time.Time) {
	s := newStore(nil, budget, 1, policy, stampede)
	now := time.Unix(1000, 0)
	s.now = func() time.Time { return now }
	return s, &now
}

func key(video string, pg int64) pageKey { return pageKey{video: video, itag: 22, page: pg} }

// get acquires a one-byte page, completing the fill at once on a miss
// that opens a flight, and fails the test unless the request resolved.
func get(t *testing.T, s *store, k pageKey) {
	t.Helper()
	woken := false
	data, f, open := s.acquire(k, func() { woken = true })
	if open {
		s.complete(k, f, []byte{1}, nil)
	}
	if data == nil && !woken {
		t.Fatalf("acquire %v never resolved", k)
	}
}

// resident returns whether k is in the store.
func resident(s *store, k pageKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.pages[k]
	return ok
}

func wantResident(t *testing.T, s *store, in []pageKey, out []pageKey) {
	t.Helper()
	for _, k := range in {
		if !resident(s, k) {
			t.Errorf("page %v missing from store", k)
		}
	}
	for _, k := range out {
		if resident(s, k) {
			t.Errorf("page %v still resident, want evicted", k)
		}
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	s, now := newTestStore(3, PolicyLRU, false)
	a, b, c, d := key("a", 0), key("b", 0), key("c", 0), key("d", 0)
	get(t, s, a)
	*now = now.Add(time.Second)
	get(t, s, b)
	*now = now.Add(time.Second)
	get(t, s, c)
	*now = now.Add(time.Second)
	get(t, s, a) // refresh a's recency past b and c
	*now = now.Add(time.Second)
	get(t, s, d) // over budget: b is now the least recently used
	wantResident(t, s, []pageKey{a, c, d}, []pageKey{b})
	hits, misses, fills, evictions, res, _, _, _ := s.stats()
	if hits != 1 || misses != 4 || fills != 4 || evictions != 1 || res != 3 {
		t.Errorf("stats = hits %d misses %d fills %d evictions %d resident %d, want 1/4/4/1/3",
			hits, misses, fills, evictions, res)
	}
}

func TestLRUTieBreaksByKeyOrder(t *testing.T) {
	s, now := newTestStore(2, PolicyLRU, false)
	// b then a land at the same virtual instant: equal recency, so the
	// eviction tie-break is pure (videoID, itag, page) order.
	get(t, s, key("b", 0))
	get(t, s, key("a", 0))
	*now = now.Add(time.Second)
	get(t, s, key("c", 0))
	wantResident(t, s, []pageKey{key("b", 0), key("c", 0)}, []pageKey{key("a", 0)})

	// Page index is the last tie-break component.
	s2, now2 := newTestStore(2, PolicyLRU, false)
	get(t, s2, key("v", 7))
	get(t, s2, key("v", 3))
	*now2 = now2.Add(time.Second)
	get(t, s2, key("v", 9))
	wantResident(t, s2, []pageKey{key("v", 7), key("v", 9)}, []pageKey{key("v", 3)})
}

func TestLFUEvictsLeastFrequentlyUsed(t *testing.T) {
	s, now := newTestStore(2, PolicyLFU, false)
	a, b, c := key("a", 0), key("b", 0), key("c", 0)
	get(t, s, a)
	get(t, s, b)
	*now = now.Add(time.Second)
	get(t, s, a) // a: 2 uses, b: 1
	*now = now.Add(time.Second)
	get(t, s, a) // a: 3 uses
	*now = now.Add(time.Second)
	get(t, s, c) // over budget: b has the fewest uses
	wantResident(t, s, []pageKey{a, c}, []pageKey{b})
}

func TestLFUTieBreaksByKeyOrder(t *testing.T) {
	s, now := newTestStore(2, PolicyLFU, false)
	// Equal use counts; recency differs (b is older) but LFU must break
	// the tie on key order, evicting a, not the least recent.
	get(t, s, key("b", 0))
	*now = now.Add(time.Second)
	get(t, s, key("a", 0))
	*now = now.Add(time.Second)
	get(t, s, key("c", 0))
	wantResident(t, s, []pageKey{key("b", 0), key("c", 0)}, []pageKey{key("a", 0)})
}

// TestSameInstantInsertOrderIndependent is the determinism core: two
// stores folding the same pages at one virtual instant in opposite wall
// orders converge on the same resident set.
func TestSameInstantInsertOrderIndependent(t *testing.T) {
	for _, policy := range []string{PolicyLRU, PolicyLFU} {
		ab, _ := newTestStore(1, policy, false)
		get(t, ab, key("a", 0))
		get(t, ab, key("b", 0))
		ba, _ := newTestStore(1, policy, false)
		get(t, ba, key("b", 0))
		get(t, ba, key("a", 0))
		for _, k := range []pageKey{key("a", 0), key("b", 0)} {
			if resident(ab, k) != resident(ba, k) {
				t.Errorf("%s: residency of %v depends on insert order", policy, k)
			}
		}
		wantResident(t, ab, []pageKey{key("b", 0)}, []pageKey{key("a", 0)})
	}
}

// TestSingleFlightCoalesces pins the tentpole guarantee: N misses on one
// page while its fill is in flight trigger exactly one upstream fetch,
// every caller gets the fetched bytes from the flight, and the callers
// are woken in the order they parked — the opener first.
func TestSingleFlightCoalesces(t *testing.T) {
	s, _ := newTestStore(8, PolicyLRU, false)
	const n = 8
	var woken []int
	var flights []*flight
	opened := 0
	for i := 0; i < n; i++ {
		i := i
		data, f, open := s.acquire(key("v", 0), func() { woken = append(woken, i) })
		if data != nil || f == nil {
			t.Fatalf("caller %d resolved before the fill completed", i)
		}
		if open {
			opened++
		}
		flights = append(flights, f)
	}
	if opened != 1 {
		t.Fatalf("%d callers opened a flight, want 1 (single-flight)", opened)
	}
	if len(woken) != 0 {
		t.Fatalf("callers %v woken before the fill completed", woken)
	}
	s.complete(key("v", 0), flights[0], []byte{42}, nil)
	for i, f := range flights {
		if f != flights[0] {
			t.Fatalf("caller %d parked on another flight", i)
		}
		if data, err := f.PageView(); err != nil || len(data) != 1 || data[0] != 42 {
			t.Fatalf("caller %d got %v, %v, want [42]", i, data, err)
		}
	}
	for i, w := range woken {
		if w != i {
			t.Fatalf("wake order %v, want park order 0..%d", woken, n-1)
		}
	}
	if len(woken) != n {
		t.Fatalf("woke %d callers, want %d", len(woken), n)
	}
	_, misses, fills, _, _, _, _, _ := s.stats()
	if fills != 1 {
		t.Errorf("fills = %d, want 1", fills)
	}
	if misses != n {
		t.Errorf("misses = %d, want %d (waiters count as misses)", misses, n)
	}
}

// TestStampedeFetchesPerMiss checks the storm baseline: with coalescing
// disabled every miss goes upstream — including a miss that follows a
// fill landing at the same instant, which is not a strict hit.
func TestStampedeFetchesPerMiss(t *testing.T) {
	s, _ := newTestStore(8, PolicyLRU, true)
	const n = 6
	var inFlight []*flight
	for i := 0; i < n; i++ {
		data, f, open := s.acquire(key("v", 0), func() {})
		if data != nil || !open {
			t.Fatalf("miss %d did not open its own fill", i)
		}
		if i%2 == 0 {
			s.complete(key("v", 0), f, []byte{7}, nil)
		} else {
			inFlight = append(inFlight, f)
		}
	}
	for _, f := range inFlight {
		s.complete(key("v", 0), f, []byte{7}, nil)
	}
	_, _, fills, _, res, _, _, _ := s.stats()
	if fills != n || res != 1 {
		t.Errorf("fills = %d resident = %d, want %d/1", fills, res, n)
	}
}

// TestStrictHitRule: a request at the fill's own instant is a miss; one
// virtual tick later it is a hit.
func TestStrictHitRule(t *testing.T) {
	s, now := newTestStore(4, PolicyLRU, false)
	k := key("v", 0)
	get(t, s, k)
	get(t, s, k) // same instant: resident, but not a strict hit
	hits, misses, fills, _, _, _, _, _ := s.stats()
	if hits != 0 || misses != 2 || fills != 1 {
		t.Fatalf("same-instant: hits %d misses %d fills %d, want 0/2/1", hits, misses, fills)
	}
	*now = now.Add(time.Nanosecond)
	get(t, s, k)
	hits, misses, fills, _, _, _, _, _ = s.stats()
	if hits != 1 || misses != 2 || fills != 1 {
		t.Fatalf("after tick: hits %d misses %d fills %d, want 1/2/1", hits, misses, fills)
	}
}

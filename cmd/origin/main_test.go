package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/netem"
	"repro/internal/origin"
	"repro/internal/videostore"
)

// TestHandlerServesConcurrentRequests drives the binary's handler from
// several goroutines at once, as net/http does with parallel
// connections: every watch must mint the token a lone request would,
// every range request with its own video's token must be served, and
// the same token must be refused for another video. Run under -race,
// it also checks that no request-path state is shared unguarded.
func TestHandlerServesConcurrentRequests(t *testing.T) {
	clock := netem.NewVirtualClock()
	t.Cleanup(clock.Stop)
	catalog := videostore.DefaultCatalog()
	ids := catalog.IDs()
	if len(ids) < 2 {
		t.Fatalf("catalog has %d videos, the test needs two", len(ids))
	}
	const self = "127.0.0.1:8080"
	h := newHandler(self, "local", catalog, clock)

	watch := func(id string) origin.VideoInfo {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/watch?v="+id, nil))
		var info origin.VideoInfo
		if err := json.NewDecoder(rec.Body).Decode(&info); err != nil {
			t.Errorf("watch %s: %d %v", id, rec.Code, err)
		}
		return info
	}
	play := func(url string) int {
		r := httptest.NewRequest(http.MethodGet, url, nil)
		r.Header.Set("Range", "bytes=0-1023")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec.Code
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id, other := ids[(g+i)%len(ids)], ids[(g+i+1)%len(ids)]
				info := watch(id)
				expire := clock.Now().Add(origin.TokenTTL)
				if want := origin.SignToken([]byte("msplayer-local-origin"), id, expire, "local"); info.Token != want {
					t.Errorf("watch %s: token %q, want %q", id, info.Token, want)
				}
				url := info.PlaybackURL(self, info.Formats[0].Itag)
				if code := play(url); code != http.StatusPartialContent {
					t.Errorf("%s with its own token: status %d, want 206", id, code)
				}
				forged := strings.Replace(url, "&v="+id, "&v="+other, 1)
				if code := play(forged); code != http.StatusForbidden {
					t.Errorf("%s's token for %s: status %d, want 403", id, other, code)
				}
			}
		}(g)
	}
	wg.Wait()
}

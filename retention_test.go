package msplayer

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestFinishedSessionsReleased is the memory counterpart of the fleet's
// goroutine ceiling: a testbed's live heap must follow the sessions in
// flight, not every session it ever ran. Each session dials four
// connections (proxy and video server on both paths); a finished one
// must leave nothing reachable behind — not its connections in the
// origin's listeners, not its player graph. Run sequentially on one
// testbed, 200 extra sessions may grow the heap by at most 1 KB each.
// The bound holds under the race detector too, but the race runtime
// changes allocation and pool behaviour, so CI gates on a plain run.
func TestFinishedSessionsReleased(t *testing.T) {
	tb := newTB(t, TestbedProfile(1))
	cfg := SessionConfig{
		Paths:              BothPaths,
		Itag:               18,
		Buffer:             BufferConfig{PreBufferTarget: 5 * time.Second, LowWater: 2 * time.Second},
		StopAfterPreBuffer: true,
	}
	stream := func(n int) {
		for i := 0; i < n; i++ {
			cfg.Scheduler = NewHarmonicScheduler(256<<10, 0.05)
			cfg.Seed = int64(i)
			m, err := tb.Stream(context.Background(), cfg)
			if err != nil || !m.PreBufferDone {
				t.Fatalf("session %d: err=%v metrics=%+v", i, err, m)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle empties the sync.Pool victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const warm, extra = 20, 200
	stream(warm) // pools, page cache and lazily built tables settle
	before := heap()
	stream(extra)
	after := heap()
	grew := int64(after) - int64(before)
	t.Logf("heap %d -> %d bytes: %+d per extra session", before, after, grew/extra)
	if grew > extra<<10 {
		t.Fatalf("heap grew %d bytes over %d finished sessions (%d per session), want at most 1 KB each",
			grew, extra, grew/extra)
	}
}

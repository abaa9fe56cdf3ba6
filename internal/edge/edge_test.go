package edge

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/handshake"
	"repro/internal/httpx"
	"repro/internal/netem"
	"repro/internal/origin"
)

// edgeTimeline runs a fixed workload through one edge in front of an
// origin cluster and returns every observable record, each stamped with
// its virtual instant: three clients miss the same page while its fill
// is in flight, a fourth asks for it once the first response is in (a
// strict hit), and after the drain the edge and origin books.
func edgeTimeline(t *testing.T, stampede bool) []string {
	t.Helper()
	clock := netem.NewVirtualClock()
	defer clock.Stop()
	n := netem.NewNetwork(clock)
	drv := clock.Register()
	defer drv.Unregister()
	hs := handshake.Params{Delta1: 4 * time.Millisecond, Delta2: 3 * time.Millisecond}
	cluster, err := origin.Deploy(n, origin.ClusterConfig{Handshake: hs, ServerDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	e, err := Deploy(n, Config{
		Name: "edge1",
		Networks: []Network{
			{Name: "wifi", Upstream: cluster.VideoServerAddrs("wifi")[0]},
			{Name: "lte", Upstream: cluster.VideoServerAddrs("lte")[0]},
		},
		Stampede:  stampede,
		Catalog:   cluster.Catalog(),
		Secret:    cluster.Secret(),
		TokenTTL:  cluster.TokenTTL(),
		Handshake: hs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	epoch := clock.Now()
	var trace []string
	record := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf("%v "+format, append([]any{clock.Now().Sub(epoch)}, args...)...))
	}
	const video = "shortclip01"
	expire := epoch.Add(cluster.TokenTTL())
	info := origin.VideoInfo{VideoID: video, Network: "wifi", Expire: expire.Unix(),
		Token: origin.SignToken(cluster.Secret(), video, expire, "wifi")}
	url := info.PlaybackURL(e.Addr("wifi"), 22)

	loop := netem.NewLoop()
	var transports []*httpx.EventTransport
	var fetch func(i int)
	fetch = func(i int) {
		lp := netem.LinkParams{Rate: netem.Mbps(20), Delay: time.Duration(10+i) * time.Millisecond}
		et := httpx.NewEventTransport(n.NewInterface("wifi", lp, lp), clock, loop)
		transports = append(transports, et)
		record("client %d start", i)
		et.GetRangeViews(url, 0, 64<<10-1, func(views [][]byte, release func(), err error) {
			var size int
			var sum uint64
			for _, v := range views {
				size += len(v)
				for _, b := range v {
					sum = sum*131 + uint64(b)
				}
			}
			record("client %d done len=%d sum=%d err=%v", i, size, sum, err)
			if err == nil {
				release()
			}
			if i == 0 {
				fetch(3) // the page landed strictly earlier: a hit
			}
		})
	}
	loop.Do(func() {
		for i := 0; i < 3; i++ {
			fetch(i)
		}
	})
	drv.SleepUntil(epoch.Add(10 * time.Second))
	loop.Do(func() {
		for _, et := range transports {
			et.Shutdown(nil)
		}
	})
	if !e.Drain(drv) || !cluster.Drain(drv) {
		t.Fatal("drain did not settle")
	}
	st := e.Stats()
	record("edge hits=%d misses=%d fills=%d evictions=%d pages=%d used=%d served=%d backhaul=%d",
		st.Hits, st.Misses, st.Fills, st.Evictions, st.Pages, st.UsedBytes, st.ServedBytes, st.BackhaulBytes)
	for _, l := range cluster.Loads() {
		record("origin %s reqs=%d bytes=%d aborted=%d inflight=%d", l.Addr, l.Total, l.Bytes, l.Aborted, l.InFlight)
	}
	sort.Strings(trace)
	return trace
}

// TestEdgeTimelinePinned holds the edge's wire and books to the
// timeline recorded from the goroutine-per-connection server, for a
// single-flight and a stampede edge: miss, coalesce (or refetch) and
// strict-hit instants, bytes, and the fill traffic the origin saw.
func TestEdgeTimelinePinned(t *testing.T) {
	for _, tc := range []struct {
		name     string
		stampede bool
	}{{"singleflight", false}, {"stampede", true}} {
		golden, err := os.ReadFile(filepath.Join("testdata", "timeline_"+tc.name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
		got := edgeTimeline(t, tc.stampede)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s timeline drifted:\n--- pinned\n%s\n--- got\n%s", tc.name,
				strings.Join(want, "\n"), strings.Join(got, "\n"))
		}
	}
}

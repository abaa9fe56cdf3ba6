package msplayer

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/videostore"
)

// steadyProfile returns a deterministic testbed (no rate variation) so
// integration assertions are tight.
func steadyProfile(seed int64) Profile {
	p := TestbedProfile(seed)
	p.WiFi.Sigma = 0
	p.LTE.Sigma = 0
	return p
}

func newTB(t *testing.T, p Profile) *Testbed {
	t.Helper()
	tb, err := NewTestbed(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	return tb
}

func TestPreBufferMSPlayerBeatsSinglePaths(t *testing.T) {
	times := map[PathSelection]time.Duration{}
	for _, sel := range []PathSelection{BothPaths, WiFiOnly, LTEOnly} {
		tb := newTB(t, steadyProfile(1))
		sched := NewHarmonicScheduler(256<<10, 0.05)
		if sel != BothPaths {
			sched = NewBulkScheduler()
		}
		m, err := tb.Stream(context.Background(), SessionConfig{
			Scheduler:          sched,
			Paths:              sel,
			StopAfterPreBuffer: true,
		})
		if err != nil {
			t.Fatalf("selection %d: %v", sel, err)
		}
		if !m.PreBufferDone {
			t.Fatalf("selection %d: pre-buffer did not complete", sel)
		}
		times[sel] = m.PreBufferTime
	}
	t.Logf("pre-buffer times: msplayer=%v wifi=%v lte=%v",
		times[BothPaths], times[WiFiOnly], times[LTEOnly])
	if times[BothPaths] >= times[WiFiOnly] || times[BothPaths] >= times[LTEOnly] {
		t.Fatalf("MSPlayer (%v) not faster than single paths (%v, %v)",
			times[BothPaths], times[WiFiOnly], times[LTEOnly])
	}
	// 40 s of 2.5 Mb/s video over ~17.5 Mb/s aggregate: several seconds.
	if times[BothPaths] < 4*time.Second || times[BothPaths] > 12*time.Second {
		t.Fatalf("MSPlayer pre-buffer = %v, expected 4-12 s", times[BothPaths])
	}
	// WiFi-only: 12.5 MB at ~9.5 Mb/s ≈ 11 s + bootstrap.
	if times[WiFiOnly] < 9*time.Second || times[WiFiOnly] > 16*time.Second {
		t.Fatalf("WiFi pre-buffer = %v, expected 9-16 s", times[WiFiOnly])
	}
}

func TestStreamDeliversExactBytes(t *testing.T) {
	tb := newTB(t, steadyProfile(2))
	var sink bytes.Buffer
	m, err := tb.Stream(context.Background(), SessionConfig{
		Scheduler: NewHarmonicScheduler(256<<10, 0.05),
		Paths:     BothPaths,
		Video:     "shortclip01",
		Sink:      &sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := videostore.DefaultCatalog().Get("shortclip01")
	want := v.Size(videostore.HD720)
	if m.TotalBytes != want {
		t.Fatalf("TotalBytes = %d, want %d", m.TotalBytes, want)
	}
	if int64(sink.Len()) != want {
		t.Fatalf("sink length = %d, want %d", sink.Len(), want)
	}
	// Byte-exact check against the deterministic content.
	expect := make([]byte, want)
	v.Content(videostore.HD720).ReadAt(expect, 0)
	if !bytes.Equal(sink.Bytes(), expect) {
		t.Fatal("delivered stream differs from source content")
	}
	if len(m.Stalls) != 0 {
		t.Fatalf("unexpected stalls: %+v", m.Stalls)
	}
}

func TestRefillCyclesMeasured(t *testing.T) {
	tb := newTB(t, steadyProfile(3))
	m, err := tb.Stream(context.Background(), SessionConfig{
		Scheduler:        NewHarmonicScheduler(256<<10, 0.05),
		Paths:            BothPaths,
		StopAfterRefills: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Refills) < 2 {
		t.Fatalf("refills = %d, want >= 2", len(m.Refills))
	}
	for i, r := range m.Refills {
		if r.Duration <= 0 || r.Duration > 20*time.Second {
			t.Fatalf("refill %d duration = %v", i, r.Duration)
		}
		// ~10 s of refill at 2.5 Mb/s ≈ 3.1 MB, plus up to one MaxChunk
		// of overshoot per path (the final chunk crosses the goal).
		if r.Bytes < 2<<20 || r.Bytes > 9<<20 {
			t.Fatalf("refill %d bytes = %d", i, r.Bytes)
		}
	}
}

func TestWiFiCarriesMajorityOfTraffic(t *testing.T) {
	tb := newTB(t, steadyProfile(4))
	m, err := tb.Stream(context.Background(), SessionConfig{
		Scheduler:          NewHarmonicScheduler(256<<10, 0.05),
		Paths:              BothPaths,
		StopAfterPreBuffer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	share := m.Share("wifi", PhasePreBuffer)
	t.Logf("wifi pre-buffer share = %.3f", share)
	// WiFi is both slightly faster and bootstraps ~0.5 s earlier; the
	// paper measures ~60-64%.
	if share < 0.5 || share > 0.8 {
		t.Fatalf("wifi share = %.3f, want 0.5-0.8", share)
	}
}

func TestServerFailoverMidStream(t *testing.T) {
	tb := newTB(t, steadyProfile(5))
	p, err := tb.NewSession(SessionConfig{
		Scheduler: NewHarmonicScheduler(256<<10, 0.05),
		Paths:     BothPaths,
		Video:     "shortclip01",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the primary WiFi replica shortly after the stream starts.
	tb.At(1500*time.Millisecond, func() { tb.Cluster().Kill("video1.youtube.wifi.test:443") })
	m, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("stream failed despite failover replica: %v", err)
	}
	v, _ := videostore.DefaultCatalog().Get("shortclip01")
	if m.TotalBytes != v.Size(videostore.HD720) {
		t.Fatalf("TotalBytes = %d", m.TotalBytes)
	}
	wifi := m.Paths[0]
	if wifi.Failures == 0 {
		t.Error("expected at least one failed request on wifi")
	}
	if wifi.Failovers == 0 && wifi.Rebootstraps == 0 {
		t.Error("expected a failover or rebootstrap on wifi")
	}
}

func TestInterfaceOutageStreamSurvivesOnLTE(t *testing.T) {
	tb := newTB(t, steadyProfile(6))
	p, err := tb.NewSession(SessionConfig{
		Scheduler: NewHarmonicScheduler(256<<10, 0.05),
		Paths:     BothPaths,
		Video:     "shortclip01",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Walk out of WiFi range, never return.
	tb.At(1200*time.Millisecond, func() { tb.WiFi().SetAlive(false) })
	m, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("stream failed despite LTE path: %v", err)
	}
	v, _ := videostore.DefaultCatalog().Get("shortclip01")
	if m.TotalBytes != v.Size(videostore.HD720) {
		t.Fatalf("TotalBytes = %d, want full clip", m.TotalBytes)
	}
	if m.Paths[1].Bytes == 0 {
		t.Fatal("LTE carried no traffic")
	}
}

// TestSessionsAreDeterministic runs the identical stochastic session
// twice and requires bit-identical virtual-time results: the
// waiter-accounted clock advances only when every registered
// participant is parked, so nothing in the emulation depends on
// scheduling or machine load.
func TestSessionsAreDeterministic(t *testing.T) {
	run := func() *Metrics {
		tb := newTB(t, TestbedProfile(12345)) // rate variation + jitter on
		m, err := tb.Stream(context.Background(), SessionConfig{
			Scheduler:          NewHarmonicScheduler(256<<10, 0.05),
			Paths:              BothPaths,
			StopAfterPreBuffer: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.PreBufferTime != b.PreBufferTime {
		t.Fatalf("pre-buffer times differ across identical runs: %v vs %v",
			a.PreBufferTime, b.PreBufferTime)
	}
	if a.TotalBytes != b.TotalBytes {
		t.Fatalf("total bytes differ: %d vs %d", a.TotalBytes, b.TotalBytes)
	}
	for i := range a.Paths {
		pa, pb := a.Paths[i], b.Paths[i]
		if pa.Bytes != pb.Bytes || pa.Chunks != pb.Chunks || pa.FirstVideoByte != pb.FirstVideoByte {
			t.Fatalf("path %d stats differ: %+v vs %+v", i, pa, pb)
		}
	}
}

func TestSinglePathConfigRejected(t *testing.T) {
	tb := newTB(t, steadyProfile(7))
	if _, err := tb.Stream(context.Background(), SessionConfig{Paths: PathSelection(42),
		Scheduler: NewHarmonicScheduler(0, 0)}); err == nil {
		t.Fatal("bogus path selection accepted")
	}
	if _, err := tb.Stream(context.Background(), SessionConfig{Paths: BothPaths}); err == nil {
		t.Fatal("missing scheduler accepted")
	}
}

func TestFirstVideoByteOrderMatchesHeadStart(t *testing.T) {
	tb := newTB(t, steadyProfile(8))
	m, err := tb.Stream(context.Background(), SessionConfig{
		Scheduler:          NewHarmonicScheduler(256<<10, 0.05),
		Paths:              BothPaths,
		StopAfterPreBuffer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	wifi, lte := m.Paths[0], m.Paths[1]
	if !wifi.FirstByteSet || !lte.FirstByteSet {
		t.Fatalf("first-byte times missing: %+v %+v", wifi, lte)
	}
	if wifi.FirstVideoByte >= lte.FirstVideoByte {
		t.Fatalf("wifi first byte (%v) should precede lte (%v)",
			wifi.FirstVideoByte, lte.FirstVideoByte)
	}
}

// TestStreamReturnsOnCancel: a context cancelled while both paths are
// parked on blackholed replicas — no request deadline, so nothing in
// virtual time will ever wake them — must end Stream promptly with
// ctx.Err() and the partial metrics sealed at the cancel instant.
func TestStreamReturnsOnCancel(t *testing.T) {
	tb := newTB(t, steadyProfile(5))
	for _, nw := range []string{"wifi", "lte"} {
		for _, addr := range tb.Cluster().VideoServerAddrs(nw) {
			if err := tb.Cluster().Blackhole(addr, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tb.At(5*time.Second, cancel) // long after both bootstraps completed
	m, err := tb.Stream(ctx, SessionConfig{
		Scheduler: NewHarmonicScheduler(256<<10, 0.05),
		Paths:     BothPaths,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m == nil {
		t.Fatal("no partial metrics")
	}
	if m.Elapsed != 5*time.Second || m.TotalBytes != 0 || m.PreBufferDone {
		t.Fatalf("partial metrics not sealed at the cancel instant: elapsed=%v bytes=%d prebuffered=%v",
			m.Elapsed, m.TotalBytes, m.PreBufferDone)
	}
	for _, p := range m.Paths {
		if p.Requests != 1 || p.Bytes != 0 || p.Failures != 0 {
			t.Errorf("path %s: %d requests, %d bytes, %d failures; want one parked request",
				p.Network, p.Requests, p.Bytes, p.Failures)
		}
	}
}

// TestStreamReturnsOnTestbedClose: closing the testbed mid-session
// stops the clock under the parked Stream, which must return the
// clock-stopped error with the metrics sealed at the stop instant
// instead of hanging on timers that will never fire.
func TestStreamReturnsOnTestbedClose(t *testing.T) {
	tb := newTB(t, steadyProfile(6))
	tb.At(3*time.Second, tb.Close) // mid pre-buffering
	m, err := tb.Stream(context.Background(), SessionConfig{
		Scheduler: NewHarmonicScheduler(256<<10, 0.05),
		Paths:     BothPaths,
	})
	if err == nil || err.Error() != "core: emulation clock stopped" {
		t.Fatalf("err = %v, want the clock-stopped error", err)
	}
	if m == nil {
		t.Fatal("no partial metrics")
	}
	if m.Elapsed != 3*time.Second || m.TotalBytes == 0 || m.PreBufferDone {
		t.Fatalf("partial metrics not sealed at the stop instant: elapsed=%v bytes=%d prebuffered=%v",
			m.Elapsed, m.TotalBytes, m.PreBufferDone)
	}
}

// TestAtAnchorsToSessionStart: an At event fires offset after the start
// of the next session — not after the At call — and only once.
func TestAtAnchorsToSessionStart(t *testing.T) {
	tb := newTB(t, steadyProfile(4))
	clock := tb.Clock()
	epoch := clock.Now()
	var fired []time.Duration
	tb.At(2*time.Second, func() { fired = append(fired, clock.Now().Sub(epoch)) })
	// Seven idle seconds pass before the session starts.
	drv := clock.Register()
	drv.SleepUntil(epoch.Add(7 * time.Second))
	drv.Unregister()
	cfg := SessionConfig{
		Scheduler: NewHarmonicScheduler(256<<10, 0.05),
		Paths:     BothPaths,
		Video:     "shortclip01",
	}
	for i := 0; i < 2; i++ {
		if _, err := tb.Stream(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	if len(fired) != 1 || fired[0] != 9*time.Second {
		t.Fatalf("At fired at %v, want once at +9s (session start +7s, offset 2s)", fired)
	}
}

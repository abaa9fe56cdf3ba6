package httpx

import (
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/handshake"
	"repro/internal/netem"
)

// blackholeHarness is testServer with the *Server handle exposed, so
// tests can flip the blackhole fault.
func blackholeHarness(t *testing.T, h http.Handler) (*netem.Clock, *netem.Interface, *Server) {
	t.Helper()
	clock := netem.NewVirtualClock()
	t.Cleanup(clock.Stop)
	n := netem.NewNetwork(clock)
	inner, err := n.Listen("srv.test:443", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(clock, inner, h, handshake.Params{})
	t.Cleanup(func() { srv.Close() })
	lp := netem.LinkParams{Rate: netem.Mbps(20), Delay: 5 * time.Millisecond}
	return clock, n.NewInterface("wifi", lp, lp), srv
}

// TestDeadlineCutsBlackholedFreshDial pins the deadline instant for the
// worst blackhole case: the server accepts the fresh dial and then
// never answers the handshake, so without the deadline the client would
// park forever. The request must fail with ErrRequestTimeout at exactly
// dial-instant + timeout — one attempt, no retry (nothing was reused).
func TestDeadlineCutsBlackholedFreshDial(t *testing.T) {
	blob := make([]byte, 256<<10)
	clock, iface, srv := blackholeHarness(t, blobHandler(blob))
	srv.SetBlackhole(true)

	runDriver(t, iface, func(d *driver) error {
		d.et.SetRequestTimeout(time.Second)
		start := clock.Now()
		_, err := d.getRange("http://srv.test:443/blob", 0, 1023)
		if !errors.Is(err, ErrRequestTimeout) {
			t.Errorf("err = %v, want ErrRequestTimeout", err)
		}
		if got := clock.Now().Sub(start); got != time.Second {
			t.Errorf("blackholed dial failed after %v, want exactly %v", got, time.Second)
		}

		// Recovery: un-blackhole and the same transport serves again.
		srv.SetBlackhole(false)
		if _, err := d.getRange("http://srv.test:443/blob", 0, 1023); err != nil {
			t.Errorf("request after recovery failed: %v", err)
		}
		return nil
	})
}

// TestDeadlineCutsBlackholedReusedConn pins the instant for the
// mid-stream blackhole: the first request warms a pooled conn, then the
// server wedges. The reused-conn attempt times out after one budget,
// the transport retries once on a fresh dial (as for any reused-conn
// failure) under a fresh deadline, and that dial is blackholed too — so
// the call fails at exactly 2 × timeout, deterministically.
func TestDeadlineCutsBlackholedReusedConn(t *testing.T) {
	blob := make([]byte, 256<<10)
	clock, iface, srv := blackholeHarness(t, blobHandler(blob))

	runDriver(t, iface, func(d *driver) error {
		d.et.SetRequestTimeout(time.Second)
		if _, err := d.getRange("http://srv.test:443/blob", 0, 1023); err != nil {
			return err
		}
		srv.SetBlackhole(true)
		start := clock.Now()
		_, err := d.getRange("http://srv.test:443/blob", 1024, 2047)
		if !errors.Is(err, ErrRequestTimeout) {
			t.Errorf("err = %v, want ErrRequestTimeout", err)
		}
		if got := clock.Now().Sub(start); got != 2*time.Second {
			t.Errorf("blackholed reused conn failed after %v, want exactly %v (two attempts)", got, 2*time.Second)
		}
		return nil
	})
}

// TestDeadlineLeavesFastRequestsAlone: a request that completes within
// the budget must be untouched — same bytes, conn still pooled — and
// its pending timer must not abort the next request on the conn.
func TestDeadlineLeavesFastRequestsAlone(t *testing.T) {
	blob := make([]byte, 256<<10)
	for i := range blob {
		blob[i] = byte(i * 13)
	}
	remotes := map[string]bool{}
	h := blobHandler(blob)
	_, iface, _ := blackholeHarness(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		remotes[r.RemoteAddr] = true
		h.ServeHTTP(w, r)
	}))

	runDriver(t, iface, func(d *driver) error {
		d.et.SetRequestTimeout(10 * time.Second)
		for i := 0; i < 20; i++ {
			from := int64(i * 1024)
			got, err := d.getRange("http://srv.test:443/blob", from, from+1023)
			if err != nil {
				return err
			}
			for j, b := range got {
				if b != blob[from+int64(j)] {
					return fmt.Errorf("request %d byte %d mismatch", i, j)
				}
			}
		}
		return nil
	})
	if len(remotes) != 1 {
		t.Fatalf("requests used %d connections, want 1 (the pooled conn)", len(remotes))
	}
}

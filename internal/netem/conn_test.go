package netem

import (
	"errors"
	"testing"
	"time"
)

// TestConnAbortDeliveredVsDropped pins the conn abort protocol's
// segment rule: an abort scheduled for instant T drops in-flight
// segments arriving strictly after T, while segments that arrived at
// or before T stay deliverable — even when the reader only gets
// scheduled after T — and both endpoints observe the abort error
// exactly from T onward.
func TestConnAbortDeliveredVsDropped(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	drv := clock.Register()
	defer drv.Unregister()
	errBoom := errors.New("boom")
	// Fast link so transmission time is negligible next to the 10 ms
	// propagation delay: a write at instant w arrives at ~w+10ms.
	p := LinkParams{Rate: Mbps(80), Delay: 10 * time.Millisecond}
	client, server := Pipe(clock, p, p, "c", "s")
	start := clock.Now()
	at := func(off time.Duration) time.Time { return start.Add(off) }

	// t=0: segment A departs, arriving ~10 ms — before the abort.
	if _, err := server.TryWrite([]byte("delivered-before-abort")); err != nil {
		t.Fatalf("write A: %v", err)
	}
	drv.SleepUntil(at(50 * time.Millisecond))
	// t=50ms: schedule the abort for t=60ms.
	client.AbortAt(at(60*time.Millisecond), errBoom)
	drv.SleepUntil(at(55 * time.Millisecond))
	// t=55ms: before the abort instant, so the write is accepted — but
	// its segment would arrive ~65 ms > T, so it is dropped in flight by
	// rule.
	if _, err := server.TryWrite([]byte("dropped-at-abort")); err != nil {
		t.Fatalf("write B at t=55ms (before abort instant): %v", err)
	}
	drv.SleepUntil(at(70 * time.Millisecond))
	// t=70ms: past the abort instant; the writer sees the error.
	if _, err := server.TryWrite([]byte("x")); err != errBoom {
		t.Fatalf("write C after abort instant: err = %v, want errBoom", err)
	}

	// The reader runs long after the abort instant: segment A arrived
	// before T and must still be delivered; segment B must not; then the
	// scheduled error surfaces.
	view, err := client.ReadBuf()
	if err != nil {
		t.Fatalf("read delivered segment: %v", err)
	}
	if string(view) != "delivered-before-abort" {
		t.Fatalf("read %q, want the pre-abort segment", view)
	}
	client.Release(len(view))
	if _, err := client.ReadBuf(); err != errBoom {
		t.Fatalf("read after drain: err = %v, want errBoom", err)
	}
	// A later re-schedule must not override the earliest abort.
	client.Abort(errors.New("too late"))
	if _, err := client.ReadBuf(); err != errBoom {
		t.Fatalf("read after redundant abort: err = %v, want errBoom (earliest wins)", err)
	}
}

// TestConnImmediateAbortDrainsArrivedData pins the immediate-abort
// case: Abort(err) at instant T keeps data that had already arrived
// (but was not yet read) deliverable, then surfaces err.
func TestConnImmediateAbortDrainsArrivedData(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	drv := clock.Register()
	defer drv.Unregister()
	errDown := errors.New("down")
	p := LinkParams{Rate: Mbps(80), Delay: 10 * time.Millisecond}
	client, server := Pipe(clock, p, p, "c", "s")

	if _, err := server.TryWrite([]byte("tail")); err != nil {
		t.Fatalf("write: %v", err)
	}
	drv.SleepUntil(clock.Now().Add(50 * time.Millisecond)) // segment arrives at ~10 ms
	client.Abort(errDown)                                  // t=50ms: arrived data survives

	received, termErr, _ := drainEvented(client)
	if *termErr != errDown {
		t.Fatalf("read error = %v, want errDown", *termErr)
	}
	if received.String() != "tail" {
		t.Fatalf("pre-abort data = %q, want %q", received, "tail")
	}
}

// TestConnAbortAtomicAcrossDirections pins that an abort lands on both
// directions before any callback runs: the peer's readable callback,
// fired by the abort, closes the peer — which closes the aborting
// side's inbound writer — and then reads the aborting side. The read
// must surface the abort error, not the EOF the peer's close would
// produce had the inbound direction not been aborted yet.
func TestConnAbortAtomicAcrossDirections(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	p := LinkParams{Rate: Mbps(8), Delay: 20 * time.Millisecond}
	client, server := Pipe(clock, p, p, "c", "s")
	var readErr error
	fired := false
	server.OnReadable(func() {
		if fired {
			return
		}
		fired = true
		server.Close()
		_, readErr = client.ReadBuf()
	})
	client.Abort(ErrServerDown)
	if !fired {
		t.Fatal("abort did not fire the peer's readable callback")
	}
	if readErr != ErrServerDown {
		t.Fatalf("read inside the peer's callback: err = %v, want ErrServerDown", readErr)
	}
}

package netem

import (
	"errors"
	"io"
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
	errBoom := errors.New("boom")
	// Fast link so transmission time is negligible next to the 10 ms
	// propagation delay: a write at instant w arrives at ~w+10ms.
	p := LinkParams{Rate: Mbps(80), Delay: 10 * time.Millisecond}
	client, server := Pipe(clock, p, p, "c", "s")
	start := clock.Now()
	at := func(off time.Duration) time.Time { return start.Add(off) }

	done := make(chan struct{})
	clock.Go(func(wp *Participant) {
		defer close(done)
		server.Bind(wp)
		// t=0: segment A departs, arriving ~10 ms — before the abort.
		if _, err := server.Write([]byte("delivered-before-abort")); err != nil {
			t.Errorf("write A: %v", err)
		}
		wp.SleepUntil(at(50 * time.Millisecond))
		// t=50ms: schedule the abort for t=60ms.
		client.AbortAt(at(60*time.Millisecond), errBoom)
		wp.SleepUntil(at(55 * time.Millisecond))
		// t=55ms: before the abort instant, so the write is accepted —
		// but its segment would arrive ~65 ms > T, so it is dropped in
		// flight by rule.
		if _, err := server.Write([]byte("dropped-at-abort")); err != nil {
			t.Errorf("write B at t=55ms (before abort instant): %v", err)
		}
		wp.SleepUntil(at(70 * time.Millisecond))
		// t=70ms: past the abort instant; the writer sees the error.
		if _, err := server.Write([]byte("x")); err != errBoom {
			t.Errorf("write C after abort instant: err = %v, want errBoom", err)
		}
	})
	<-done
	drv := clock.Register()
	defer drv.Unregister()
	client.Bind(drv)

	// The reader runs long after the abort instant: segment A arrived
	// before T and must still be delivered; segment B must not; then the
	// scheduled error surfaces.
	buf := make([]byte, 64)
	n, err := client.Read(buf)
	if err != nil {
		t.Fatalf("read delivered segment: %v", err)
	}
	if got := string(buf[:n]); got != "delivered-before-abort" {
		t.Fatalf("read %q, want the pre-abort segment", got)
	}
	if _, err := client.Read(buf); err != errBoom {
		t.Fatalf("read after drain: err = %v, want errBoom", err)
	}
	// A later re-schedule must not override the earliest abort.
	client.Abort(errors.New("too late"))
	if _, err := client.Read(buf); err != errBoom {
		t.Fatalf("read after redundant abort: err = %v, want errBoom (earliest wins)", err)
	}
}

// TestConnImmediateAbortDrainsArrivedData pins the immediate-abort
// case: Abort(err) at instant T keeps data that had already arrived
// (but was not yet read) deliverable, then surfaces err.
func TestConnImmediateAbortDrainsArrivedData(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	errDown := errors.New("down")
	p := LinkParams{Rate: Mbps(80), Delay: 10 * time.Millisecond}
	client, server := Pipe(clock, p, p, "c", "s")

	done := make(chan struct{})
	clock.Go(func(wp *Participant) {
		defer close(done)
		server.Bind(wp)
		if _, err := server.Write([]byte("tail")); err != nil {
			t.Errorf("write: %v", err)
		}
		wp.Sleep(50 * time.Millisecond) // segment arrives at ~10 ms
		client.Abort(errDown)           // t=50ms: arrived data survives
	})
	<-done
	drv := clock.Register()
	defer drv.Unregister()
	client.Bind(drv)

	got, err := io.ReadAll(client)
	if err != errDown {
		t.Fatalf("read error = %v, want errDown", err)
	}
	if string(got) != "tail" {
		t.Fatalf("pre-abort data = %q, want %q", got, "tail")
	}
}

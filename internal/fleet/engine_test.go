package fleet

import (
	"errors"
	"testing"
	"time"

	"repro"
	"repro/internal/netem"
)

// liveRun is an evented run of pre-buffer sessions, one arriving every
// 100 ms, on a fresh testbed. Every 50 ms (off the arrival grid) a
// timer checks that the live set holds exactly the spawned, unfinished
// sessions: no handle outlives its session.
type liveRun struct {
	tb     *msplayer.Testbed
	ev     *eventedRun
	driver *netem.Participant
	slots  []SessionResult
	checks int // guarded by ev.mu
}

func newLiveRun(t *testing.T, sessions int) *liveRun {
	t.Helper()
	profile := msplayer.TestbedProfile(5)
	tb, err := msplayer.NewTestbed(profile)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	clock := tb.Clock()
	start := clock.Now()
	lr := &liveRun{tb: tb, ev: newEventedRun(), driver: clock.Register(),
		slots: make([]SessionResult, sessions)}
	co := &Cohort{
		Name:      "crowd",
		Sessions:  sessions,
		Paths:     msplayer.BothPaths,
		Scheduler: SchedulerSpec{Kind: "harmonic"},
		Itag:      18,
		Buffer:    msplayer.BufferConfig{PreBufferTarget: 5 * time.Second, LowWater: 2 * time.Second},

		StopAfterPreBuffer: true,
	}
	ev := lr.ev
	for i := range lr.slots {
		ev.arm(tb, &profile, co, nil, nil, i, time.Duration(i)*100*time.Millisecond, int64(i), start, &lr.slots[i])
	}
	var check func()
	probe := clock.NewTimer(func() { check() })
	check = func() {
		ev.mu.Lock()
		defer ev.mu.Unlock()
		lr.checks++
		finished := len(ev.slots) - ev.remaining
		if len(ev.live) != ev.spawned-finished {
			t.Errorf("at %v: %d handles live, want %d spawned - %d finished",
				clock.Now().Sub(start), len(ev.live), ev.spawned, finished)
		}
		for i, f := range ev.live {
			if f.pos != i || f.es == nil {
				t.Errorf("at %v: live[%d] has pos %d, handle %v", clock.Now().Sub(start), i, f.pos, f.es)
			}
		}
		if ev.remaining > 0 {
			probe.Schedule(clock.Now().Add(50 * time.Millisecond))
		}
	}
	probe.Schedule(start.Add(50*time.Millisecond + 1))
	return lr
}

// finish waits the run out and returns its live-set size and check
// count.
func (lr *liveRun) finish() (live, checks int) {
	lr.ev.wait(lr.driver)
	lr.ev.mu.Lock()
	live, checks = len(lr.ev.live), lr.checks
	lr.ev.mu.Unlock()
	lr.driver.Unregister()
	return live, checks
}

// TestHandlesReleasedAtFinish: a fleet run references a session's
// handle, and with it the session's whole player graph, only while the
// session runs.
func TestHandlesReleasedAtFinish(t *testing.T) {
	const sessions = 30
	lr := newLiveRun(t, sessions)
	live, checks := lr.finish()
	if checks < 50 {
		t.Fatalf("the live set was checked %d times, want one check per 50 ms of the run", checks)
	}
	if live != 0 || lr.ev.spawned != sessions {
		t.Fatalf("after the run: %d handles live, %d of %d spawned", live, lr.ev.spawned, sessions)
	}
	for i, s := range lr.slots {
		if s.Err != nil || s.Metrics == nil || !s.Metrics.PreBufferDone {
			t.Fatalf("session %d: err=%v metrics=%v", i, s.Err, s.Metrics)
		}
	}
}

// TestStoppedClockInterruptsLiveSessions: when the clock stops mid-run,
// wait interrupts exactly the sessions still in flight, and sessions
// that never arrived are marked errClockStopped.
func TestStoppedClockInterruptsLiveSessions(t *testing.T) {
	const sessions = 30
	lr := newLiveRun(t, sessions)
	const stopAt = 1550 * time.Millisecond
	clock := lr.tb.Clock()
	clock.NewTimer(lr.tb.Close).Schedule(clock.Now().Add(stopAt))
	if live, _ := lr.finish(); live != 0 {
		t.Fatalf("%d handles live after the interrupts", live)
	}
	var done, interrupted, never int
	for i, s := range lr.slots {
		arrived := time.Duration(i)*100*time.Millisecond <= stopAt
		switch {
		case s.Err == nil && s.Metrics != nil && s.Metrics.PreBufferDone:
			done++
		case errors.Is(s.Err, errClockStopped):
			never++
			if arrived {
				t.Errorf("session %d arrived at %v but was never spawned", i, time.Duration(i)*100*time.Millisecond)
			}
		case s.Err != nil && s.Metrics != nil:
			interrupted++
			if !arrived {
				t.Errorf("session %d interrupted before its arrival", i)
			}
		default:
			t.Errorf("session %d: err=%v metrics=%v", i, s.Err, s.Metrics)
		}
	}
	if interrupted == 0 || never == 0 {
		t.Fatalf("done %d, interrupted %d, never arrived %d: the stop did not land mid-run", done, interrupted, never)
	}
}

package netem

import (
	"math/rand"
	"testing"
	"time"
)

func TestVirtualClockAdvancesToDeadline(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()

	drv := c.Register()
	defer drv.Unregister()
	start := c.Now()
	real := time.Now()                                  //detlint:allow wallclock -- asserts the virtual run needs negligible wall time
	drv.SleepUntil(start.Add(10 * time.Second))         // emulated
	if wall := time.Since(real); wall > 2*time.Second { //detlint:allow wallclock -- asserts the virtual run needs negligible wall time
		t.Fatalf("virtual 10s sleep took %v of wall time", wall)
	}
	if got := c.Now().Sub(start); got != 10*time.Second {
		t.Fatalf("clock advanced %v, want 10s", got)
	}
}

// TestVirtualClockOrdersConcurrentSleepers schedules three timers out
// of deadline order, plus a same-instant pair, and requires the driver
// to fire them by deadline, ties in scheduling order.
func TestVirtualClockOrdersConcurrentSleepers(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()
	drv := c.Register()
	defer drv.Unregister()

	var order []int
	base := c.Now()
	for i, d := range []time.Duration{300, 100, 200, 100} {
		i := i
		c.NewTimer(func() { order = append(order, i) }).Schedule(base.Add(d * time.Millisecond))
	}
	drv.SleepUntil(base.Add(time.Second))
	want := []int{1, 3, 2, 0} // by ascending deadline, then seq
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fire order = %v, want %v", order, want)
		}
	}
}

func TestVirtualClockNowMonotonic(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()
	drv := c.Register()
	defer drv.Unregister()
	prev := c.Now()
	for i := 0; i < 50; i++ {
		drv.SleepUntil(c.Now().Add(time.Duration(i%7+1) * time.Millisecond))
		now := c.Now()
		if now.Before(prev) {
			t.Fatalf("clock went backwards: %v -> %v", prev, now)
		}
		prev = now
	}
}

// TestClockStopWakesSleepers: a callback that stops the clock ends the
// driver's run at the stop instant, and the events queued behind it
// never fire.
func TestClockStopWakesSleepers(t *testing.T) {
	c := NewVirtualClock()
	drv := c.Register()
	defer drv.Unregister()
	start := c.Now()
	c.NewTimer(c.Stop).Schedule(start.Add(time.Second))
	c.NewTimer(func() { t.Error("event after Stop fired") }).Schedule(start.Add(2 * time.Second))
	drv.SleepUntil(start.Add(time.Hour))
	if got := c.Now().Sub(start); got != time.Second {
		t.Fatalf("driver returned at +%v, want the stop instant +1s", got)
	}
}

func TestSleepUntilPastReturnsImmediately(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()
	drv := c.Register()
	defer drv.Unregister()
	start := c.Now()
	drv.SleepUntil(start.Add(-time.Minute))
	if !c.Now().Equal(start) {
		t.Fatalf("SleepUntil in the past moved the clock to %v", c.Now().Sub(start))
	}
}

// TestVirtualClockWaitsForActiveParticipants: virtual time moves only
// while the driver drains. Scheduling, and everything the driver does
// between SleepUntil and Await calls, happens at a frozen instant.
func TestVirtualClockWaitsForActiveParticipants(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()
	drv := c.Register()
	defer drv.Unregister()

	var wake time.Time
	c.NewTimer(func() { wake = c.Now() }).Schedule(c.base.Add(50 * time.Millisecond))
	for i := 0; i < 100; i++ {
		c.NewTimer(func() {}).Schedule(c.Now().Add(time.Second))
	}
	if got := c.Now().Sub(c.base); got != 0 || !wake.IsZero() {
		t.Fatalf("clock advanced %v before the driver drained", got)
	}
	drv.SleepUntil(c.base.Add(60 * time.Millisecond))
	if got := wake.Sub(c.base); got != 50*time.Millisecond {
		t.Fatalf("timer fired at +%v, want +50ms", got)
	}
}

// TestVirtualClockDeterministicTimestamps runs the same four-chain
// timer schedule twice — each chain rescheduling itself at random
// offsets — and requires bit-identical firing sequences.
func TestVirtualClockDeterministicTimestamps(t *testing.T) {
	type fire struct {
		chain int
		at    time.Duration
	}
	run := func() []fire {
		c := NewVirtualClock()
		defer c.Stop()
		drv := c.Register()
		defer drv.Unregister()
		var fires []fire
		for g := 0; g < 4; g++ {
			g := g
			rng := rand.New(rand.NewSource(int64(g) + 1))
			left := 25
			var tm *Timer
			tm = c.NewTimer(func() {
				fires = append(fires, fire{g, c.Now().Sub(c.base)})
				if left--; left > 0 {
					tm.Schedule(c.Now().Add(time.Duration(rng.Intn(5000)+1) * time.Microsecond))
				}
			})
			tm.Schedule(c.Now().Add(time.Duration(rng.Intn(5000)+1) * time.Microsecond))
		}
		if !drv.Await(func() bool { return len(fires) == 100 }) {
			t.Fatalf("queue emptied after %d of 100 fires", len(fires))
		}
		return fires
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fire %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestStopFreezesNow pins the post-teardown time contract: once Stop
// has run, Now returns the stop instant forever, so accessors consulted
// after teardown (player buffer levels, metrics of cancelled sessions)
// read one stable emulated time.
func TestStopFreezesNow(t *testing.T) {
	v := NewVirtualClock()
	drv := v.Register()
	defer drv.Unregister()
	v.NewTimer(func() {}).Schedule(v.Now().Add(3 * time.Second))
	drv.SleepUntil(v.Now().Add(time.Second))
	v.Stop()
	vf := v.Now()
	if got := vf.Sub(v.base); got != time.Second {
		t.Fatalf("stopped at +%v, want +1s", got)
	}
	drv.SleepUntil(vf.Add(time.Hour)) // returns at once on a stopped clock
	if got := v.Now(); !got.Equal(vf) {
		t.Fatalf("virtual clock moved after Stop: %v -> %v", vf, got)
	}
}

// TestAwaitFalseOnEmptyOrStoppedClock: Await reports false, instead of
// waiting forever, when nothing is queued that could make its predicate
// hold, and when the clock is stopped — before or during the wait.
func TestAwaitFalseOnEmptyOrStoppedClock(t *testing.T) {
	never := func() bool { return false }

	c := NewVirtualClock()
	drv := c.Register()
	if drv.Await(never) {
		t.Fatal("Await on an empty queue returned true")
	}
	fired := 0
	c.NewTimer(func() { fired++ }).Schedule(c.Now().Add(time.Second))
	c.NewTimer(func() { fired++ }).Schedule(c.Now().Add(2 * time.Second))
	if drv.Await(never) || fired != 2 {
		t.Fatalf("Await drained %d of 2 events and returned true", fired)
	}

	c.NewTimer(func() { fired++; c.Stop() }).Schedule(c.Now().Add(time.Second))
	c.NewTimer(func() { fired++ }).Schedule(c.Now().Add(2 * time.Second))
	if drv.Await(never) || fired != 3 {
		t.Fatalf("Await across Stop: %d fires (want 3), or returned true", fired)
	}
	if drv.Await(never) {
		t.Fatal("Await on a stopped clock returned true")
	}
	drv.Unregister()
}

// TestAwaitFinishesInstant: once the predicate holds, Await still fires
// the rest of the current instant — here the second of two same-instant
// timers, where the first set the predicate — and nothing later.
func TestAwaitFinishesInstant(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()
	drv := c.Register()
	defer drv.Unregister()
	at := c.Now().Add(time.Second)
	done, second, later := false, false, false
	c.NewTimer(func() { done = true }).Schedule(at)
	c.NewTimer(func() { second = true }).Schedule(at)
	c.NewTimer(func() { later = true }).Schedule(at.Add(time.Nanosecond))
	if !drv.Await(func() bool { return done }) {
		t.Fatal("Await returned false")
	}
	if !second || later || !c.Now().Equal(at) {
		t.Fatalf("after Await: second=%v later=%v at +%v; want the whole instant and nothing after it",
			second, later, c.Now().Sub(at))
	}
}

// TestSecondRegisterPanics: a clock has one driver at a time.
func TestSecondRegisterPanics(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()
	drv := c.Register()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second Register while a driver is live did not panic")
			}
		}()
		c.Register()
	}()
	drv.Unregister()
	c.Register().Unregister() // the role is free again
}

package netem

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// goAll starts each fn as a clock participant and returns a func that
// waits for them all to return. Virtual time is held until every one
// of them is registered: spawned one at a time from the unregistered
// test goroutine, an early participant could otherwise park and let
// the clock jump before a later one exists, and the schedule would
// depend on the Go scheduler.
func goAll(c *Clock, fns ...func(*Participant)) (wait func()) {
	var wg sync.WaitGroup
	wg.Add(len(fns))
	c.Hold()
	for _, fn := range fns {
		fn := fn
		c.Go(func(p *Participant) {
			defer wg.Done()
			fn(p)
		})
	}
	c.Release()
	return wg.Wait
}

// waitParked spins until n participants are parked on c, so a test can
// act on parked waiters without a wall-clock sleep.
func waitParked(c *Clock, n int64) {
	for c.idle.Load() < n {
		runtime.Gosched()
	}
}

func TestVirtualClockAdvancesToDeadline(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()

	drv := c.Register()
	defer drv.Unregister()
	start := c.Now()
	real := time.Now()                                  //detlint:allow wallclock -- asserts the virtual run needs negligible wall time
	drv.Sleep(10 * time.Second)                         // emulated
	if wall := time.Since(real); wall > 2*time.Second { //detlint:allow wallclock -- asserts the virtual run needs negligible wall time
		t.Fatalf("virtual 10s sleep took %v of wall time", wall)
	}
	if got := c.Now().Sub(start); got < 10*time.Second {
		t.Fatalf("clock advanced only %v, want >= 10s", got)
	}
}

func TestVirtualClockOrdersConcurrentSleepers(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()

	var mu sync.Mutex
	var order []int
	base := c.Now()
	var sleepers []func(*Participant)
	for i, d := range []time.Duration{300 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond} {
		i, d := i, d
		sleepers = append(sleepers, func(p *Participant) {
			p.SleepUntil(base.Add(d))
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	// No deadline fires until all three are asleep.
	goAll(c, sleepers...)()
	want := []int{1, 2, 0} // by ascending deadline
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
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
		drv.Sleep(time.Duration(i%7+1) * time.Millisecond)
		now := c.Now()
		if now.Before(prev) {
			t.Fatalf("clock went backwards: %v -> %v", prev, now)
		}
		prev = now
	}
}

func TestClockStopWakesSleepers(t *testing.T) {
	c := NewVirtualClock()
	// The registered driver pins virtual time, so only Stop can end the
	// hour-long sleep.
	drv := c.Register()
	defer drv.Unregister()
	done := make(chan struct{})
	c.Go(func(p *Participant) {
		p.SleepUntil(c.Now().Add(time.Hour))
		close(done)
	})
	waitParked(c, 1)
	c.Stop()
	select {
	case <-done:
	case <-time.After(2 * time.Second): //detlint:allow wallclock -- test watchdog against emulator deadlock runs on wall time
		t.Fatal("sleeper not released by Stop")
	}
}

func TestSleepUntilPastReturnsImmediately(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()
	done := make(chan struct{})
	c.Go(func(p *Participant) {
		p.SleepUntil(c.Now().Add(-time.Minute))
		close(done)
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second): //detlint:allow wallclock -- test watchdog against emulator deadlock runs on wall time
		t.Fatal("SleepUntil in the past blocked")
	}
}

// TestVirtualClockWaitsForActiveParticipants verifies the waiter
// accounting: a registered participant that is runnable (not parked)
// pins virtual time, even while other participants sleep.
func TestVirtualClockWaitsForActiveParticipants(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()

	release := make(chan struct{})
	parked := make(chan struct{})
	var wake time.Time
	wait := goAll(c, func(p *Participant) {
		p.Sleep(50 * time.Millisecond)
		wake = c.Now()
	}, func(*Participant) {
		close(parked)
		<-release // deliberately invisible: holds the clock still
	})
	<-parked
	//detlint:allow wallclock -- wall-clock wait: no virtual jump may happen meanwhile
	time.Sleep(20 * time.Millisecond)
	if got := c.Now().Sub(c.base); got != 0 {
		t.Fatalf("clock advanced %v while a participant was runnable", got)
	}
	close(release)
	wait()
	if got := wake.Sub(c.base); got != 50*time.Millisecond {
		t.Fatalf("sleeper woke at +%v, want +50ms", got)
	}
}

// TestVirtualClockDeterministicTimestamps runs the same multi-goroutine
// sleep schedule twice and requires bit-identical wake timestamps — the
// property the waiter-accounted clock guarantees and the old
// quiet-polling advancer could not.
func TestVirtualClockDeterministicTimestamps(t *testing.T) {
	run := func() []time.Duration {
		c := NewVirtualClock()
		defer c.Stop()
		var mu sync.Mutex
		var wakes []time.Duration
		var sleepers []func(*Participant)
		for g := 0; g < 4; g++ {
			g := g
			sleepers = append(sleepers, func(p *Participant) {
				rng := rand.New(rand.NewSource(int64(g) + 1))
				for i := 0; i < 25; i++ {
					p.Sleep(time.Duration(rng.Intn(5000)+1) * time.Microsecond)
					mu.Lock()
					wakes = append(wakes, c.Now().Sub(c.base))
					mu.Unlock()
				}
			})
		}
		goAll(c, sleepers...)()
		return wakes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("wake counts differ: %d vs %d", len(a), len(b))
	}
	// Per-goroutine schedules are independent, so the multiset of wake
	// times must match exactly; the final instant must too.
	counts := map[time.Duration]int{}
	for _, d := range a {
		counts[d]++
	}
	for _, d := range b {
		counts[d]--
	}
	for d, n := range counts {
		if n != 0 {
			t.Fatalf("wake time %v seen %+d more times in first run", d, n)
		}
	}
	if a[len(a)-1] != b[len(b)-1] {
		t.Fatalf("final virtual instants differ: %v vs %v", a[len(a)-1], b[len(b)-1])
	}
}

// TestClockConcurrentRegisterSleepStop hammers registration, sleeping
// and Stop from many goroutines; run with -race. Every sleeper must be
// released, by jump or by Stop.
func TestClockConcurrentRegisterSleepStop(t *testing.T) {
	for round := 0; round < 20; round++ {
		c := NewVirtualClock()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			g := g
			wg.Add(1)
			c.Go(func(p *Participant) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					p.Sleep(time.Duration(g*7+i%5+1) * time.Millisecond)
				}
			})
			// Late registrations racing with the running participants'
			// jumps and with Stop.
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := c.Register()
				defer p.Unregister()
				for i := 0; i < 20; i++ {
					p.Sleep(time.Duration(i%3+1) * time.Millisecond)
				}
			}()
		}
		if round%2 == 0 {
			time.Sleep(time.Duration(round%5) * time.Millisecond) //detlint:allow wallclock -- real sleep staggers racing participants in wall time
			c.Stop()
		}
		wg.Wait()
		c.Stop()
	}
}

// TestCondWaitReleasedByStop checks that Stop unwedges Cond waiters:
// their wake-up condition may never be signalled once the emulation is
// torn down, so Wait must return false instead of parking forever.
func TestCondWaitReleasedByStop(t *testing.T) {
	c := NewVirtualClock()
	// The registered driver pins virtual time; only Stop can release
	// the waiter.
	drv := c.Register()
	defer drv.Unregister()
	var mu sync.Mutex
	cond := NewCond(c, &mu)
	done := make(chan bool, 1)
	c.Go(func(p *Participant) {
		mu.Lock()
		ok := cond.Wait(p)
		mu.Unlock()
		done <- ok
	})
	waitParked(c, 1)
	c.Stop()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Cond.Wait returned true after Stop")
		}
	case <-time.After(2 * time.Second): //detlint:allow wallclock -- test watchdog against emulator deadlock runs on wall time
		t.Fatal("Cond.Wait not released by Stop")
	}
	// Waiting on an already-stopped clock must not park at all.
	mu.Lock()
	ok := cond.Wait(drv)
	mu.Unlock()
	if ok {
		t.Fatal("Cond.Wait on a stopped clock returned true")
	}
}

// TestCondSignalTransfersCredit checks the Cond handoff: a consumer
// parked on a Cond must not be jumped over once signalled, so a
// producer-consumer pair observes production and consumption at the
// same virtual instant.
func TestCondSignalTransfersCredit(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()

	var mu sync.Mutex
	cond := NewCond(c, &mu)
	ready := false
	var consumedAt time.Time
	var producedAt time.Time
	goAll(c, func(p *Participant) {
		mu.Lock()
		for !ready {
			cond.Wait(p)
		}
		mu.Unlock()
		consumedAt = c.Now()
		p.Sleep(time.Millisecond)
	}, func(p *Participant) {
		p.Sleep(10 * time.Millisecond)
		mu.Lock()
		ready = true
		producedAt = c.Now()
		cond.Signal()
		mu.Unlock()
		// A second sleeper with a nearer deadline than anything the
		// consumer will set: if the signal failed to transfer credit,
		// the clock could jump here before the consumer reads Now.
		p.Sleep(time.Microsecond)
	})()
	if !consumedAt.Equal(producedAt) {
		t.Fatalf("consumer observed %v, producer signalled at %v",
			consumedAt.Sub(c.base), producedAt.Sub(c.base))
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
	v.Go(func(p *Participant) { p.Sleep(3 * time.Second) })
	drv.Sleep(time.Second)
	v.Stop()
	vf := v.Now()
	if got := vf.Sub(v.base); got != time.Second {
		t.Fatalf("stopped at +%v, want +1s", got)
	}
	drv.Sleep(time.Hour) // returns at once on a stopped clock
	if got := v.Now(); !got.Equal(vf) {
		t.Fatalf("virtual clock moved after Stop: %v -> %v", vf, got)
	}
}

package netem

import (
	"sync"
	"testing"
	"time"

	"repro/internal/netem/trace"
)

// These tests pin the emulator's randomness invariant (see direction in
// pipe.go): every stochastic component is a per-instance or per-slot
// *rand.Rand derived from a seed — never package-global rand — so fleet
// runs with many concurrent sessions stay bit-identical per seed.

// TestPipeJitterPerInstanceSeed drives two identically-seeded lossy,
// jittery pipes with identical byte streams — while a differently
// seeded "noise" pipe runs concurrently — and asserts the two twins
// deliver on identical schedules. Shared/global randomness would let
// the noise pipe's draws perturb one twin but not the other.
func TestPipeJitterPerInstanceSeed(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	params := func(seed int64) LinkParams {
		return LinkParams{
			Rate:     Mbps(8),
			Delay:    5 * time.Millisecond,
			Jitter:   3 * time.Millisecond,
			LossProb: 0.05,
			Seed:     seed,
		}
	}
	type run struct {
		times []time.Duration
	}
	const total = 64 << 10
	drv := clock.Register()
	defer drv.Unregister()
	// The three pipes' writes interleave at one instant; the reader
	// records each view's arrival instant.
	drive := func(seed int64, out *run) {
		a, b := Pipe(clock, params(seed), params(seed+1), Addr("a"), Addr("b"))
		start := clock.Now()
		b.OnReadable(func() {
			for {
				view, err := b.ReadBuf()
				if err != nil || view == nil {
					return
				}
				out.times = append(out.times, clock.Now().Sub(start))
				b.Release(len(view))
			}
		})
		buf := make([]byte, 8<<10)
		for i := 0; i < total/len(buf); i++ {
			if _, err := a.TryWrite(buf); err != nil {
				t.Fatal(err)
			}
		}
		a.Close()
	}
	var twin1, twin2, noise run
	drive(1234, &twin1)
	drive(9999, &noise)
	drive(1234, &twin2)
	drv.SleepUntil(clock.Now().Add(time.Hour))
	if len(twin1.times) == 0 || len(twin1.times) != len(twin2.times) {
		t.Fatalf("twin read counts differ: %d vs %d", len(twin1.times), len(twin2.times))
	}
	for i := range twin1.times {
		if twin1.times[i] != twin2.times[i] {
			t.Fatalf("identically seeded pipes diverged at read %d: %v vs %v",
				i, twin1.times[i], twin2.times[i])
		}
	}
	if len(noise.times) == len(twin1.times) {
		same := true
		for i := range noise.times {
			if noise.times[i] != twin1.times[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("differently seeded pipe produced an identical schedule")
		}
	}
}

// TestLognormalConcurrentDeterminism queries one Lognormal profile from
// many goroutines at the same instants and asserts every goroutine sees
// the same values — and that a fresh profile with the same seed agrees.
func TestLognormalConcurrentDeterminism(t *testing.T) {
	base := trace.Constant(1e6)
	r1 := trace.Lognormal(base, 0.3, 100*time.Millisecond, 77)
	epoch := time.Unix(1_700_000_000, 0)
	const goroutines, points = 8, 200
	vals := make([][]float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		vals[g] = make([]float64, points)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < points; i++ {
				vals[g][i] = r1.RateAt(epoch.Add(time.Duration(i) * 37 * time.Millisecond))
			}
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range vals[g] {
			if vals[g][i] != vals[0][i] {
				t.Fatalf("goroutine %d saw %v at point %d, goroutine 0 saw %v",
					g, vals[g][i], i, vals[0][i])
			}
		}
	}
	r2 := trace.Lognormal(base, 0.3, 100*time.Millisecond, 77)
	for i := 0; i < points; i++ {
		at := epoch.Add(time.Duration(i) * 37 * time.Millisecond)
		if r2.RateAt(at) != vals[0][i] {
			t.Fatal("same-seed Lognormal profiles disagree")
		}
	}
	r3 := trace.Lognormal(base, 0.3, 100*time.Millisecond, 78)
	diff := false
	for i := 0; i < points; i++ {
		at := epoch.Add(time.Duration(i) * 37 * time.Millisecond)
		if r3.RateAt(at) != vals[0][i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different-seed Lognormal profiles agree everywhere")
	}
}

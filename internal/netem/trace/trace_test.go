package trace

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

var epoch = time.Unix(1_700_000_000, 0)

func TestConstant(t *testing.T) {
	r := Constant(1e6)
	for _, off := range []time.Duration{0, time.Second, time.Hour} {
		if got := r.RateAt(epoch.Add(off)); got != 1e6 {
			t.Fatalf("rate at +%v = %v", off, got)
		}
	}
}

func TestSineBoundsAndPeriod(t *testing.T) {
	mean, amp := 1e6, 3e5
	r := Sine(mean, amp, 10*time.Second, 0)
	min, max := math.Inf(1), math.Inf(-1)
	for off := time.Duration(0); off < 20*time.Second; off += 100 * time.Millisecond {
		v := r.RateAt(epoch.Add(off))
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	if min < mean-amp-1 || max > mean+amp+1 {
		t.Fatalf("sine out of bounds: [%v, %v]", min, max)
	}
	if max-min < amp { // actually oscillates
		t.Fatalf("sine swing too small: %v", max-min)
	}
	// Period repeats.
	a := r.RateAt(epoch.Add(3 * time.Second))
	b := r.RateAt(epoch.Add(13 * time.Second))
	if math.Abs(a-b) > 1 {
		t.Fatalf("sine not periodic: %v vs %v", a, b)
	}
}

func TestSineNeverNegative(t *testing.T) {
	r := Sine(1e5, 1e6, time.Second, 0) // amplitude >> mean
	for off := time.Duration(0); off < 2*time.Second; off += 10 * time.Millisecond {
		if v := r.RateAt(epoch.Add(off)); v < 0 {
			t.Fatalf("negative rate %v", v)
		}
	}
}

func TestSteps(t *testing.T) {
	s := &Steps{
		Boundaries: []time.Time{epoch.Add(10 * time.Second), epoch.Add(20 * time.Second)},
		Rates:      []float64{100, 200, 300},
	}
	cases := []struct {
		off  time.Duration
		want float64
	}{
		{0, 100}, {9 * time.Second, 100}, {10 * time.Second, 200},
		{19 * time.Second, 200}, {25 * time.Second, 300}, {time.Hour, 300},
	}
	for _, c := range cases {
		if got := s.RateAt(epoch.Add(c.off)); got != c.want {
			t.Errorf("rate at +%v = %v, want %v", c.off, got, c.want)
		}
	}
	empty := &Steps{}
	if empty.RateAt(epoch) != 0 {
		t.Error("empty steps should be 0")
	}
}

func TestOutage(t *testing.T) {
	r := Outage(Constant(1e6), epoch.Add(5*time.Second), 3*time.Second)
	if r.RateAt(epoch.Add(4*time.Second)) != 1e6 {
		t.Error("rate before outage")
	}
	if r.RateAt(epoch.Add(5*time.Second)) != 0 {
		t.Error("rate at outage start")
	}
	if r.RateAt(epoch.Add(7999*time.Millisecond)) != 0 {
		t.Error("rate inside outage")
	}
	if r.RateAt(epoch.Add(8*time.Second)) != 1e6 {
		t.Error("rate after outage")
	}
}

func TestLognormalDeterministicAndMeanish(t *testing.T) {
	a := Lognormal(Constant(1e6), 0.3, 500*time.Millisecond, 42)
	b := Lognormal(Constant(1e6), 0.3, 500*time.Millisecond, 42)
	sum := 0.0
	n := 0
	for off := time.Duration(0); off < 5*time.Minute; off += 500 * time.Millisecond {
		va := a.RateAt(epoch.Add(off))
		vb := b.RateAt(epoch.Add(off))
		if va != vb {
			t.Fatalf("same seed, different values at +%v", off)
		}
		if va <= 0 {
			t.Fatalf("non-positive rate %v", va)
		}
		sum += va
		n++
	}
	mean := sum / float64(n)
	if mean < 0.8e6 || mean > 1.2e6 {
		t.Fatalf("lognormal mean drifted: %v", mean)
	}
	// Different seeds differ.
	c := Lognormal(Constant(1e6), 0.3, 500*time.Millisecond, 43)
	if c.RateAt(epoch) == a.RateAt(epoch) && c.RateAt(epoch.Add(time.Second)) == a.RateAt(epoch.Add(time.Second)) {
		t.Fatal("different seeds produced identical samples")
	}
}

// TestLognormalMoments is the statistical fence on the shaper's noise
// (closed forms, not recorded values): over 100 000 fresh slots the
// mean-one multiplier averages 1 and its log has standard deviation σ.
func TestLognormalMoments(t *testing.T) {
	const (
		sigma    = 0.4
		interval = 200 * time.Millisecond
		n        = 100_000
	)
	r := Lognormal(Constant(1), sigma, interval, 7)
	var sum, logSum, logSq float64
	for i := 0; i < n; i++ {
		f := r.RateAt(epoch.Add(time.Duration(i) * interval))
		sum += f
		l := math.Log(f)
		logSum += l
		logSq += l * l
	}
	mean := sum / n
	logSD := math.Sqrt(logSq/n - (logSum/n)*(logSum/n))
	if math.Abs(mean-1) > 0.01 {
		t.Errorf("multiplier mean = %.5f, want 1 ± 1%%", mean)
	}
	if math.Abs(logSD-sigma) > 0.02*sigma {
		t.Errorf("log-multiplier standard deviation = %.5f, want %.2f ± 2%%", logSD, sigma)
	}
}

// oneDrawSlots returns n instants, one per slot, whose normal variate
// the ziggurat accepts at the first candidate (the closed-form path).
func oneDrawSlots(seed int64, interval time.Duration, n int) []time.Time {
	var ts []time.Time
	for slot := int64(0); len(ts) < n; slot++ {
		src := NewSource(seed ^ slot*0x7E3779B97F4A7C15)
		rand.New(src).NormFloat64()
		if src.(*source).full == nil {
			ts = append(ts, time.Unix(0, slot*interval.Nanoseconds()))
		}
	}
	return ts
}

// TestLognormalFreshSlotAllocs holds a fresh slot on the one-draw path
// to the source and the memo entry: no 4.9 KB math/rand register.
func TestLognormalFreshSlotAllocs(t *testing.T) {
	const (
		interval = 200 * time.Millisecond
		runs     = 1000
	)
	ts := oneDrawSlots(3, interval, runs+1) // AllocsPerRun warms up with one extra call
	r := Lognormal(Constant(1), 0.4, interval, 3)
	i := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		r.RateAt(ts[i])
		i++
	})
	runtime.ReadMemStats(&after)
	if allocs > 2 {
		t.Errorf("fresh slot = %v allocs, want ≤ 2", allocs)
	}
	if perSlot := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perSlot >= 256 {
		t.Errorf("fresh slot = %d B, want < 256", perSlot)
	}
}

var benchSink float64

func BenchmarkLognormalFreshSlot(b *testing.B) {
	const interval = 200 * time.Millisecond
	r := Lognormal(Constant(1), 0.4, interval, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += r.RateAt(epoch.Add(time.Duration(i) * interval))
	}
}

func BenchmarkLognormalHit(b *testing.B) {
	r := Lognormal(Constant(1), 0.4, 200*time.Millisecond, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += r.RateAt(epoch.Add(time.Duration(i&1023) * time.Microsecond))
	}
}

func TestClampAndScale(t *testing.T) {
	base := Constant(1e6)
	if got := Clamp(base, 2e6, 3e6).RateAt(epoch); got != 2e6 {
		t.Errorf("clamp low = %v", got)
	}
	if got := Clamp(base, 0, 5e5).RateAt(epoch); got != 5e5 {
		t.Errorf("clamp high = %v", got)
	}
	if got := Scale(base, 2.5).RateAt(epoch); got != 2.5e6 {
		t.Errorf("scale = %v", got)
	}
}

// Package trace provides time-varying bandwidth profiles for netem links.
//
// A Rate maps an emulated instant to the instantaneous link rate in bytes
// per second. Profiles compose: Scale, Clamp and Sum build complex shapes
// (e.g. a lognormal-noise LTE rate with periodic dips plus a mobility
// outage) out of simple parts.
package trace

import (
	"math"
	"math/rand"
	"sync/atomic"
	"time"
)

// Rate returns the instantaneous rate of a link, in bytes per second, at
// emulated time t. Implementations must be safe for concurrent use and
// should be deterministic functions of t so that pacing decisions made at
// different call sites agree.
type Rate interface {
	RateAt(t time.Time) float64
}

// RateFunc adapts a plain function to the Rate interface.
type RateFunc func(t time.Time) float64

// RateAt implements Rate.
func (f RateFunc) RateAt(t time.Time) float64 { return f(t) }

// Constant returns a fixed-rate profile.
func Constant(bytesPerSec float64) Rate {
	return RateFunc(func(time.Time) float64 { return bytesPerSec })
}

// Sine oscillates around mean with the given amplitude and period,
// modelling slow diurnal or contention-driven variation.
func Sine(mean, amplitude float64, period time.Duration, phase float64) Rate {
	if period <= 0 {
		period = time.Second
	}
	return RateFunc(func(t time.Time) float64 {
		x := float64(t.UnixNano()) / float64(period.Nanoseconds())
		r := mean + amplitude*math.Sin(2*math.Pi*(x+phase))
		if r < 0 {
			return 0
		}
		return r
	})
}

// Steps holds a piecewise-constant profile: Rates[i] applies from
// Boundaries[i-1] (or the epoch for i = 0) until Boundaries[i].
type Steps struct {
	Boundaries []time.Time // ascending; len = len(Rates)-1
	Rates      []float64   // bytes per second
}

// RateAt implements Rate.
func (s *Steps) RateAt(t time.Time) float64 {
	if len(s.Rates) == 0 {
		return 0
	}
	i := 0
	for i < len(s.Boundaries) && !t.Before(s.Boundaries[i]) {
		i++
	}
	if i >= len(s.Rates) {
		i = len(s.Rates) - 1
	}
	return s.Rates[i]
}

// Outage wraps a base profile and forces the rate to zero inside
// [Start, Start+Duration), modelling a connectivity loss (e.g. walking
// out of WiFi range).
func Outage(base Rate, start time.Time, d time.Duration) Rate {
	end := start.Add(d)
	return RateFunc(func(t time.Time) float64 {
		if !t.Before(start) && t.Before(end) {
			return 0
		}
		return base.RateAt(t)
	})
}

// Lognormal perturbs a base profile with deterministic pseudo-random
// lognormal noise resampled every interval. Sigma is the standard
// deviation of the underlying normal; 0.2–0.4 reproduces the per-chunk
// throughput spread reported for home WiFi and LTE links.
//
// Randomness invariant: the multiplier is a pure function of (seed,
// slot) — the first normal variate of the math/rand stream seeded with
// seed ^ slot·φ, drawn through NewSource, with no state shared between
// calls — so concurrent queries from any number of sessions return
// identical values for identical instants, keeping fleet runs
// bit-identical per seed.
//
// Because the multiplier is pure, the last computed (slot, multiplier)
// pair is cached behind an atomic pointer: pacing queries hit the same
// slot many times per interval, and a hit (a load and a compare) is
// cheaper than even the closed-form draw plus math.Exp. A cache hit
// returns the identical value a recomputation would.
func Lognormal(base Rate, sigma float64, interval time.Duration, seed int64) Rate {
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	type slotMul struct {
		slot int64
		f    float64
	}
	var memo atomic.Pointer[slotMul]
	return RateFunc(func(t time.Time) float64 {
		slot := t.UnixNano() / interval.Nanoseconds()
		if m := memo.Load(); m != nil && m.slot == slot {
			return base.RateAt(t) * m.f
		}
		f := math.Exp(slotNormal(seed, slot)*sigma - sigma*sigma/2) // mean-one multiplier
		memo.Store(&slotMul{slot: slot, f: f})
		return base.RateAt(t) * f
	})
}

// slotNormal returns the standard normal variate of (seed, slot): the
// first NormFloat64 of the math/rand stream seeded with seed ^ slot·φ.
func slotNormal(seed, slot int64) float64 {
	return rand.New(NewSource(seed ^ slot*0x7E3779B97F4A7C15)).NormFloat64()
}

// Clamp bounds a profile to [min, max].
func Clamp(base Rate, min, max float64) Rate {
	return RateFunc(func(t time.Time) float64 {
		r := base.RateAt(t)
		if r < min {
			return min
		}
		if r > max {
			return max
		}
		return r
	})
}

// Scale multiplies a profile by a constant factor.
func Scale(base Rate, factor float64) Rate {
	return RateFunc(func(t time.Time) float64 { return base.RateAt(t) * factor })
}

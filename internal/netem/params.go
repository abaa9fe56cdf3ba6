package netem

import (
	"time"

	"repro/internal/netem/trace"
)

// Default tuning constants. They are exported so experiment code can
// reference the exact values the emulator uses.
const (
	// DefaultMSS is the segment size used for loss accounting, matching
	// an Ethernet TCP MSS.
	DefaultMSS = 1460

	// DefaultQuantum is the pacing granularity: writes are carved into
	// delivery segments worth at most this much line time.
	DefaultQuantum = 20 * time.Millisecond

	// DefaultSendBuf bounds emulated bytes in flight per direction,
	// modelling the kernel send buffer plus path BDP.
	DefaultSendBuf = 1 << 20

	// DefaultInitCwnd is the slow-start initial window in segments (IW10).
	DefaultInitCwnd = 10

	// DefaultSSRestartIdle is the idle period after which the slow-start
	// ramp restarts, mirroring TCP's congestion-window validation.
	DefaultSSRestartIdle = time.Second
)

// LinkParams describes one direction of an emulated path.
type LinkParams struct {
	// Rate is the base bottleneck rate in bytes per second. Ignored if
	// Trace is set.
	Rate float64

	// Trace optionally makes the rate time varying.
	Trace trace.Rate

	// Delay is the one-way propagation delay.
	Delay time.Duration

	// Jitter adds a uniform random extra delay in [0, Jitter) per
	// delivery segment. Delivery order is still FIFO.
	Jitter time.Duration

	// LossProb is the per-MSS-segment loss probability. A loss is
	// modelled as a head-of-line retransmission penalty of RTOPenalty.
	LossProb float64

	// LossWindows overlay time-bounded loss storms on the direction: a
	// segment departing inside a window is lossed with the window's
	// probability when it exceeds LossProb. The effective probability
	// is a pure function of the departure instant, so storm runs stay
	// deterministic per seed.
	LossWindows []LossWindow

	// RTOPenalty is the extra delay charged per lost segment. If zero,
	// 4*Delay is used (two extra round trips).
	RTOPenalty time.Duration

	// SlowStart enables a TCP-like ramp: the effective pacing rate is
	// capped at cwnd/RTT, with cwnd starting at InitCwnd segments and
	// doubling per round trip until it reaches the line rate.
	SlowStart bool

	// InitCwnd overrides the initial window in segments (default IW10).
	InitCwnd int

	// SSRestartIdle overrides the idle period that restarts slow start.
	SSRestartIdle time.Duration

	// SendBuf bounds in-flight bytes; TryWrite stops accepting when
	// exceeded.
	SendBuf int

	// Quantum overrides the pacing granularity.
	Quantum time.Duration

	// Seed makes jitter and loss deterministic per direction.
	Seed int64
}

// withDefaults returns a copy with zero fields replaced by defaults.
func (p LinkParams) withDefaults() LinkParams {
	if p.Trace == nil {
		p.Trace = trace.Constant(p.Rate)
	}
	if p.RTOPenalty == 0 {
		p.RTOPenalty = 4 * p.Delay
	}
	if p.InitCwnd == 0 {
		p.InitCwnd = DefaultInitCwnd
	}
	if p.SSRestartIdle == 0 {
		p.SSRestartIdle = DefaultSSRestartIdle
	}
	if p.SendBuf == 0 {
		p.SendBuf = DefaultSendBuf
	}
	if p.Quantum == 0 {
		p.Quantum = DefaultQuantum
	}
	return p
}

// LossWindow is one time-bounded loss storm: segments departing in
// [From, To) suffer at least Prob per-MSS-segment loss.
type LossWindow struct {
	From, To time.Time
	Prob     float64
}

// lossAt returns the effective per-segment loss probability for a
// segment departing at t: the base LossProb raised to any active
// window's probability.
func (p *LinkParams) lossAt(t time.Time) float64 {
	prob := p.LossProb
	for _, w := range p.LossWindows {
		if w.Prob > prob && !t.Before(w.From) && t.Before(w.To) {
			prob = w.Prob
		}
	}
	return prob
}

// rateAt returns the instantaneous rate, floored at one byte/sec so the
// pacer never divides by zero; an Outage trace still effectively stalls
// the link because transfer times explode.
func (p *LinkParams) rateAt(t time.Time) float64 {
	r := p.Trace.RateAt(t)
	if r < 1 {
		return 1
	}
	return r
}

// Mbps converts megabits per second to the bytes-per-second unit used by
// LinkParams.Rate.
func Mbps(m float64) float64 { return m * 1e6 / 8 }

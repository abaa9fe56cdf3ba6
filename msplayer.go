// Package msplayer is a reproduction of "MSPlayer: Multi-Source and
// multi-Path LeverAged YoutubER" (Chen, Towsley, Khalili — CoNEXT 2014):
// a client-based video streaming system that aggregates bandwidth across
// two network paths (WiFi + LTE) and multiple replicated video sources
// using plain HTTP range requests over legacy TCP.
//
// The package exposes three layers:
//
//   - The player: Testbed.Stream (or NewSession for long-lived control)
//     runs an MSPlayer session with a pluggable chunk scheduler (Ratio
//     baseline, or the dynamic EWMA / Harmonic schedulers of the paper's
//     Alg. 1) against any pair of network paths, and reports QoE metrics
//     (pre-buffering time, re-buffering cycles, stalls, per-path traffic
//     split).
//
//   - The testbed: NewTestbed stands up a fully emulated environment —
//     two access networks with configurable rate/RTT/variation, and a
//     YouTube-like origin (web proxy with JSON metadata + signed tokens,
//     replicated range-serving video servers) — in which the player and
//     the single-path baselines run unmodified, in virtual time.
//
//   - The experiments: package repro/internal/bench regenerates every
//     figure and table of the paper's evaluation on this testbed (see
//     cmd/benchall and bench_test.go).
//
//   - The fleet: package repro/internal/fleet scales the testbed to
//     whole populations — a declarative Scenario spawns hundreds of
//     concurrent sessions (cohorts with their own link profiles,
//     schedulers, arrival processes and mid-session events) against one
//     origin cluster in one virtual-time world, and aggregates cohort-
//     and fleet-level QoE (pre-buffer percentiles, stall rate, traffic
//     split, Jain fairness). Each testbed client (Testbed.NewClient)
//     owns its access links, so sessions on distinct clients run
//     concurrently and deterministically. Try:
//
//     go run ./cmd/fleet -scenario flashcrowd -sessions 200 -seed 1
//
// Quick start:
//
//	tb, err := msplayer.NewTestbed(msplayer.TestbedProfile(1))
//	if err != nil { ... }
//	defer tb.Close()
//	m, err := tb.Stream(context.Background(), msplayer.SessionConfig{
//		Scheduler: msplayer.NewHarmonicScheduler(256<<10, 0.05),
//		Paths:     msplayer.BothPaths,
//	})
//	fmt.Println("pre-buffered in", m.PreBufferTime)
package msplayer

import (
	"repro/internal/core"
)

// Re-exported core types: the player configuration and result surface.
type (
	// Scheduler decides per-path chunk sizes (paper §3.3).
	Scheduler = core.Scheduler
	// BufferConfig sets pre-buffer / low-water / refill thresholds.
	BufferConfig = core.BufferConfig
	// Metrics is the result of one streaming session.
	Metrics = core.Metrics
	// PathStats is the per-path traffic accounting within Metrics.
	PathStats = core.PathStats
	// Refill records one re-buffering cycle.
	Refill = core.Refill
	// Stall records one playback underrun.
	Stall = core.Stall
	// Phase labels pre-buffering versus re-buffering traffic.
	Phase = core.Phase
	// EventedSession is the handle of a session started with
	// Client.StreamEvented.
	EventedSession = core.EventedSession
	// Resilience configures circuit breakers, health-scored source
	// selection and hedged requests per path (SessionConfig.Resilience).
	Resilience = core.Resilience
)

// Buffering phases for Metrics.Share.
const (
	PhasePreBuffer = core.PhasePreBuffer
	PhaseReBuffer  = core.PhaseReBuffer
)

// Chunk-size constants of the paper.
const (
	// MinChunk is the 16 KB floor of Alg. 1.
	MinChunk = core.MinChunk
	// DefaultBaseChunk is the 256 KB default initial chunk size.
	DefaultBaseChunk = core.DefaultBaseChunk
	// DefaultDelta is the 5% throughput-variation parameter δ.
	DefaultDelta = core.DefaultDelta
	// DefaultAlpha is the 0.9 EWMA weight α.
	DefaultAlpha = core.DefaultAlpha
)

// EnergyModel estimates radio energy (active power + per-transfer tail),
// the paper's stated future-work dimension.
type EnergyModel = core.EnergyModel

// Default radio models for the testbed networks.
var (
	// WiFiRadio is the default WiFi energy model.
	WiFiRadio = core.WiFiRadio
	// LTERadio is the default LTE energy model.
	LTERadio = core.LTERadio
)

// SessionEnergy estimates a session's radio energy in joules, total and
// per path, using per-network models (see DefaultRadios).
func SessionEnergy(m *Metrics, models map[string]EnergyModel) (total float64, perPath []float64) {
	return core.SessionEnergy(m, models)
}

// DefaultRadios maps the testbed network names to their radio models.
func DefaultRadios() map[string]EnergyModel { return core.DefaultRadios() }

// NewRatioScheduler returns the paper's baseline scheduler: base chunk B
// on the slower path, ⌈w_fast/w_slow⌉·B on the faster one.
func NewRatioScheduler(base int64) Scheduler { return core.NewRatioScheduler(base) }

// NewEWMAScheduler returns the dynamic chunk-size-adjustment scheduler
// (Alg. 1) driven by the Eq. 1 EWMA estimator.
func NewEWMAScheduler(base int64, delta, alpha float64) Scheduler {
	return core.NewEWMAScheduler(base, delta, alpha)
}

// NewHarmonicScheduler returns the dynamic chunk-size-adjustment
// scheduler driven by the Eq. 2 harmonic-mean estimator — MSPlayer's
// default configuration.
func NewHarmonicScheduler(base int64, delta float64) Scheduler {
	return core.NewHarmonicScheduler(base, delta)
}

// NewFixedScheduler returns a fixed-chunk scheduler emulating the
// commercial players the paper compares against (64 KB Adobe Flash,
// 256 KB HTML5).
func NewFixedScheduler(size int64) Scheduler { return core.NewFixedScheduler(size) }

// NewBulkScheduler returns a scheduler that requests each buffering goal
// as one large range, as commercial players do during pre-buffering.
func NewBulkScheduler() Scheduler { return core.NewBulkScheduler() }

// Package fleet is a scenario-driven multi-session simulation engine on
// top of the MSPlayer testbed: it spawns whole populations of concurrent
// streaming sessions — organised into cohorts with their own link
// profiles, schedulers, arrival processes and mid-session events —
// against one shared origin cluster in one virtual-time world, and
// aggregates per-session metrics into cohort- and fleet-level QoE
// reports (pre-buffer percentiles, stall rates, re-buffer cycles,
// per-path traffic split, Jain fairness).
//
// Every stochastic component of a run derives from the scenario seed
// through per-session sub-seeds, so a fleet run is deterministic: two
// runs of the same scenario with the same seed produce byte-identical
// reports. A quick start:
//
//	report, err := fleet.Run(context.Background(), fleet.FlashCrowd(200, 1))
//	if err != nil { ... }
//	fmt.Print(report)
//
// or, from the command line:
//
//	go run ./cmd/fleet -scenario flashcrowd -sessions 200 -seed 1
package fleet

import (
	"fmt"
	"math/rand"
	"time"

	"repro"
	"repro/internal/edge"
)

// SchedulerSpec names a chunk scheduler declaratively, so scenarios can
// be described (and compared in A/B cohorts) without holding live
// scheduler state.
type SchedulerSpec struct {
	// Kind is "harmonic", "ewma", "ratio", "fixed" or "bulk".
	Kind string
	// Chunk is the base (or fixed) chunk size; DefaultBaseChunk if 0.
	Chunk int64
	// Delta is the throughput-variation parameter δ of the dynamic
	// schedulers; DefaultDelta if 0.
	Delta float64
	// Alpha is the EWMA weight α; DefaultAlpha if 0.
	Alpha float64
}

// build instantiates a fresh scheduler for one session.
func (s SchedulerSpec) build() (msplayer.Scheduler, error) {
	chunk := s.Chunk
	if chunk == 0 {
		chunk = msplayer.DefaultBaseChunk
	}
	delta := s.Delta
	if delta == 0 {
		delta = msplayer.DefaultDelta
	}
	alpha := s.Alpha
	if alpha == 0 {
		alpha = msplayer.DefaultAlpha
	}
	switch s.Kind {
	case "", "harmonic":
		return msplayer.NewHarmonicScheduler(chunk, delta), nil
	case "ewma":
		return msplayer.NewEWMAScheduler(chunk, delta, alpha), nil
	case "ratio":
		return msplayer.NewRatioScheduler(chunk), nil
	case "fixed":
		return msplayer.NewFixedScheduler(chunk), nil
	case "bulk":
		return msplayer.NewBulkScheduler(), nil
	default:
		return nil, fmt.Errorf("fleet: unknown scheduler kind %q", s.Kind)
	}
}

// Arrival process kinds.
const (
	// ArrivalBatch starts every session at Start (default).
	ArrivalBatch = "batch"
	// ArrivalSpread spaces sessions evenly over [Start, Start+Window).
	ArrivalSpread = "spread"
	// ArrivalPoisson draws exponential inter-arrival times with mean
	// Window/n over [Start, ...), the classic flash-crowd model.
	ArrivalPoisson = "poisson"
)

// ArrivalSpec describes when a cohort's sessions start.
type ArrivalSpec struct {
	// Kind is ArrivalBatch, ArrivalSpread or ArrivalPoisson.
	Kind string
	// Start is the offset of the first arrival from scenario start.
	Start time.Duration
	// Window is the span arrivals spread over (spread/poisson).
	Window time.Duration
}

// times returns n arrival offsets (ascending for spread, arrival-order
// for poisson), deterministic per rng state.
func (a ArrivalSpec) times(n int, rng *rand.Rand) ([]time.Duration, error) {
	out := make([]time.Duration, n)
	switch a.Kind {
	case "", ArrivalBatch:
		for i := range out {
			out[i] = a.Start
		}
	case ArrivalSpread:
		for i := range out {
			if n > 1 {
				out[i] = a.Start + time.Duration(int64(a.Window)*int64(i)/int64(n))
			} else {
				out[i] = a.Start
			}
		}
	case ArrivalPoisson:
		mean := float64(a.Window) / float64(n)
		t := float64(a.Start)
		for i := range out {
			t += rng.ExpFloat64() * mean
			out[i] = time.Duration(t)
		}
	default:
		return nil, fmt.Errorf("fleet: unknown arrival kind %q", a.Kind)
	}
	return out, nil
}

// Event kinds.
const (
	// EventWiFiDown / EventLTEDown take the interface down for Duration
	// (aborting its connections, as mobility does).
	EventWiFiDown = "wifi-down"
	EventLTEDown  = "lte-down"
	// EventWiFiDegrade / EventLTEDegrade scale the link rate by Factor
	// for Duration (compiled into the link's rate profile).
	EventWiFiDegrade = "wifi-degrade"
	EventLTEDegrade  = "lte-degrade"
)

// Event is a mid-session disturbance applied to some or all of a
// cohort's sessions.
type Event struct {
	// Kind selects the disturbance (see the Event* constants).
	Kind string
	// At is the event's onset, offset from scenario start.
	At time.Duration
	// Duration is how long the disturbance lasts.
	Duration time.Duration
	// Factor is the rate multiplier for degrade events (e.g. 0.1).
	Factor float64
	// Fraction of the cohort's sessions affected (default 1.0). Which
	// sessions are hit is drawn from each session's own RNG, so the
	// choice is deterministic per scenario seed.
	Fraction float64
	// Stagger delays the onset by session-index × Stagger, turning a
	// simultaneous event into a wave sweeping through the cohort.
	Stagger time.Duration
}

func (e Event) validate() error {
	switch e.Kind {
	case EventWiFiDown, EventLTEDown:
	case EventWiFiDegrade, EventLTEDegrade:
		if e.Factor < 0 {
			return fmt.Errorf("fleet: event %q has negative factor", e.Kind)
		}
	default:
		return fmt.Errorf("fleet: unknown event kind %q", e.Kind)
	}
	if e.Duration <= 0 {
		return fmt.Errorf("fleet: event %q has no duration", e.Kind)
	}
	if e.Fraction < 0 || e.Fraction > 1 {
		return fmt.Errorf("fleet: event %q fraction %v outside [0,1]", e.Kind, e.Fraction)
	}
	return nil
}

// Fault kinds.
const (
	// FaultOriginKill crashes an origin replica at At, aborting its
	// connections; Duration > 0 restarts it (fresh process, fresh books)
	// that much later, Duration == 0 leaves it down for good.
	FaultOriginKill = "origin-kill"
	// FaultOriginBlackhole wedges a replica for Duration: it keeps
	// accepting connections and reading requests but never responds, so
	// only clients with a request deadline ever see it fail.
	FaultOriginBlackhole = "origin-blackhole"
	// FaultEdgeOutage takes an edge cache down for Duration and then
	// cold-restarts it: the store comes back empty, so the tier re-fills
	// (coalesced or stampeding, per the edge's config).
	FaultEdgeOutage = "edge-outage"
	// FaultBackhaulDegrade scales an edge's backhaul rate by Factor
	// inside [At, At+Duration), compiled into the backhaul link's rate
	// profile at deploy time.
	FaultBackhaulDegrade = "backhaul-degrade"
	// FaultPartition cuts reachability between one access network's
	// clients and one origin replica for Duration — both sides stay
	// alive, but dials fail instantly and established connections across
	// the cut abort at the onset (netem.Network.SetPartitioned).
	FaultPartition = "partition"
	// FaultLossStorm overlays a packet-loss storm on one access
	// network's links inside [At, At+Duration): the per-segment loss
	// probability is raised to Factor, compiled into the links at
	// session attach (netem.LinkParams.LossWindows).
	FaultLossStorm = "loss-storm"
	// FaultFlap cycles a partition between one access network and one
	// origin replica: down for Period/2, up for Period/2, repeating
	// through [At, At+Duration) with a final heal at the end. Fast
	// cycles punish naive breakers that re-trust a flapping replica at
	// full strength.
	FaultFlap = "flap"
)

// Fault is one entry of a scenario's fault plan: a declarative,
// deterministic infrastructure failure. Onsets and recoveries execute
// via emulation-clock timers at exact virtual instants (offset At from
// scenario start), so two runs of the same plan fail — and recover —
// identically.
type Fault struct {
	// Kind selects the failure (see the Fault* constants).
	Kind string
	// At is the onset, offset from scenario start.
	At time.Duration
	// Duration is how long the fault lasts. Must be > 0 except for
	// FaultOriginKill, where 0 means the replica never comes back.
	Duration time.Duration
	// Network and Replica (1-based, in deployment order) pick the origin
	// replica for origin faults.
	Network string
	Replica int
	// Edge picks the edge cache (1-based index into EdgeTierSpec.Edges)
	// for edge faults.
	Edge int
	// Factor is the backhaul rate multiplier for FaultBackhaulDegrade,
	// or the per-segment loss probability for FaultLossStorm.
	Factor float64
	// Period is the down/up cycle length for FaultFlap (down the first
	// half, up the second).
	Period time.Duration
}

func (f Fault) validate(sc *Scenario) error {
	switch f.Kind {
	case FaultOriginKill, FaultOriginBlackhole:
		if f.Network == "" {
			return fmt.Errorf("fleet: fault %q names no network", f.Kind)
		}
		if f.Replica < 1 {
			return fmt.Errorf("fleet: fault %q replica %d (want 1-based)", f.Kind, f.Replica)
		}
		if f.Kind == FaultOriginBlackhole && f.Duration <= 0 {
			return fmt.Errorf("fleet: fault %q has no duration", f.Kind)
		}
	case FaultPartition, FaultFlap:
		if f.Network == "" {
			return fmt.Errorf("fleet: fault %q names no network", f.Kind)
		}
		if f.Replica < 1 {
			return fmt.Errorf("fleet: fault %q replica %d (want 1-based)", f.Kind, f.Replica)
		}
		if f.Duration <= 0 {
			return fmt.Errorf("fleet: fault %q has no duration", f.Kind)
		}
		if f.Kind == FaultFlap && f.Period <= 0 {
			return fmt.Errorf("fleet: fault %q has no period", f.Kind)
		}
	case FaultLossStorm:
		if f.Network == "" {
			return fmt.Errorf("fleet: fault %q names no network", f.Kind)
		}
		if f.Duration <= 0 {
			return fmt.Errorf("fleet: fault %q has no duration", f.Kind)
		}
		if f.Factor <= 0 || f.Factor > 1 {
			return fmt.Errorf("fleet: fault %q loss probability %v outside (0,1]", f.Kind, f.Factor)
		}
	case FaultEdgeOutage, FaultBackhaulDegrade:
		if sc.EdgeTier == nil {
			return fmt.Errorf("fleet: fault %q without an edge tier", f.Kind)
		}
		if f.Edge < 1 || f.Edge > len(sc.EdgeTier.Edges) {
			return fmt.Errorf("fleet: fault %q edge %d of %d", f.Kind, f.Edge, len(sc.EdgeTier.Edges))
		}
		if f.Duration <= 0 {
			return fmt.Errorf("fleet: fault %q has no duration", f.Kind)
		}
		if f.Kind == FaultBackhaulDegrade && f.Factor < 0 {
			return fmt.Errorf("fleet: fault %q has negative factor", f.Kind)
		}
	default:
		return fmt.Errorf("fleet: unknown fault kind %q", f.Kind)
	}
	if f.At < 0 {
		return fmt.Errorf("fleet: fault %q at negative offset", f.Kind)
	}
	if f.Duration < 0 {
		return fmt.Errorf("fleet: fault %q has negative duration", f.Kind)
	}
	return nil
}

// Cohort is a homogeneous group of sessions within a scenario.
type Cohort struct {
	// Name labels the cohort in reports.
	Name string
	// Sessions is the number of sessions in the cohort.
	Sessions int
	// Scheduler picks the chunk scheduler (default harmonic).
	Scheduler SchedulerSpec
	// Paths selects MSPlayer (BothPaths) or a single-path baseline.
	Paths msplayer.PathSelection
	// Arrival describes when sessions start (default: all at once).
	Arrival ArrivalSpec
	// WiFi/LTE override the scenario profile's link profiles for this
	// cohort's clients (nil = inherit).
	WiFi *msplayer.LinkProfile
	LTE  *msplayer.LinkProfile
	// Video/Itag override the streamed clip (default: profile's).
	Video string
	Itag  int
	// Buffer overrides the playout thresholds.
	Buffer msplayer.BufferConfig
	// StopAfterPreBuffer ends sessions at pre-buffer completion (the
	// start-up-latency measurement mode; cheap at scale).
	StopAfterPreBuffer bool
	// StopAfterRefills ends sessions after N re-buffering cycles.
	StopAfterRefills int
	// RequestTimeout bounds every request the cohort's sessions issue
	// with a virtual-time deadline; zero (the default) disables it.
	// Scenarios with blackhole faults need it: a wedged server fails
	// only through the deadline.
	RequestTimeout time.Duration
	// Resilience enables per-target circuit breakers, health-scored
	// source selection and hedged requests on the cohort's paths (see
	// msplayer.Resilience). The zero value disables all of it.
	Resilience msplayer.Resilience
	// Events are mid-session disturbances applied to this cohort.
	Events []Event
	// Edge pins the cohort to one edge cache (1-based index into
	// EdgeTierSpec.Edges). Zero spreads cohorts round-robin across the
	// tier (cohort index mod edge count). Ignored without an edge tier.
	Edge int
}

// EdgeSpec describes one edge cache of a scenario's edge tier.
type EdgeSpec struct {
	// ByteBudget bounds the edge store (default 8 MiB); every resident
	// page charges one full PageSize against it.
	ByteBudget int64
	// PageSize is the cache page granularity (default 64 KiB).
	PageSize int64
	// Policy is edge.PolicyLRU (default) or edge.PolicyLFU.
	Policy string
	// Stampede disables single-flight fill coalescing on this edge, so
	// concurrent misses storm the origin — the cache-stampede baseline.
	Stampede bool
}

// EdgeTierSpec deploys edge caches between the fleet's clients and the
// origin cluster. Every path of every session is routed at its cohort's
// edge instead of the origin replicas; the edges fill misses from the
// origin over emulated backhaul links.
type EdgeTierSpec struct {
	// Edges are the tier's caches, deployed as edge1, edge2, ... in
	// order (at least one).
	Edges []EdgeSpec
	// BackhaulMbps is each edge's backhaul link rate (default 200).
	BackhaulMbps float64
	// BackhaulDelay is the backhaul one-way delay (default 4 ms).
	BackhaulDelay time.Duration
}

func (t *EdgeTierSpec) validate() error {
	if len(t.Edges) == 0 {
		return fmt.Errorf("fleet: edge tier has no edges")
	}
	for ei, es := range t.Edges {
		switch es.Policy {
		case "", edge.PolicyLRU, edge.PolicyLFU:
		default:
			return fmt.Errorf("fleet: edge %d has unknown policy %q", ei+1, es.Policy)
		}
		if es.ByteBudget < 0 || es.PageSize < 0 {
			return fmt.Errorf("fleet: edge %d has negative sizing", ei+1)
		}
	}
	if t.BackhaulMbps < 0 {
		return fmt.Errorf("fleet: negative backhaul rate")
	}
	return nil
}

// Scenario is a declarative description of one fleet run.
type Scenario struct {
	// Name and Description label the scenario in reports.
	Name        string
	Description string
	// Seed drives every stochastic component of the run.
	Seed int64
	// Profile is the base testbed configuration; nil uses
	// msplayer.TestbedProfile(Seed).
	Profile *msplayer.Profile
	// Cohorts are the session populations (at least one).
	Cohorts []Cohort
	// EdgeTier, when non-nil, interposes edge caches between the
	// clients and the origin cluster. Legacy scenarios (nil) are
	// wire-identical to runs before the tier existed.
	EdgeTier *EdgeTierSpec
	// Faults is the scenario's deterministic fault plan, executed by
	// emulation-clock timers at exact virtual instants. Scenarios
	// without one (nil) render byte-identically to runs before the
	// fault engine existed.
	Faults []Fault
	// Chaos, when non-nil, appends a seeded randomized fault plan to
	// Faults at Run time. The expansion is a pure function of the plan
	// (splitmix64 over ChaosPlan.Seed), so two runs of the same
	// scenario still produce byte-identical reports.
	Chaos *ChaosPlan
}

// faultHorizon is the latest instant the fault plan touches (offset
// from scenario start): the run must not sample its final books before
// every pending recovery timer has fired.
func (sc Scenario) faultHorizon() time.Duration {
	var h time.Duration
	for _, f := range sc.Faults {
		if end := f.At + f.Duration; end > h {
			h = end
		}
	}
	return h
}

func (sc Scenario) validate() error {
	if len(sc.Cohorts) == 0 {
		return fmt.Errorf("fleet: scenario %q has no cohorts", sc.Name)
	}
	if sc.EdgeTier != nil {
		if err := sc.EdgeTier.validate(); err != nil {
			return fmt.Errorf("fleet: scenario %q: %w", sc.Name, err)
		}
	}
	for fi, f := range sc.Faults {
		if err := f.validate(&sc); err != nil {
			return fmt.Errorf("fleet: scenario %q fault %d: %w", sc.Name, fi, err)
		}
	}
	for ci, co := range sc.Cohorts {
		if co.Sessions <= 0 {
			return fmt.Errorf("fleet: cohort %d (%q) has %d sessions", ci, co.Name, co.Sessions)
		}
		if _, err := co.Scheduler.build(); err != nil {
			return fmt.Errorf("fleet: cohort %q: %w", co.Name, err)
		}
		if _, err := co.Arrival.times(1, rand.New(rand.NewSource(1))); err != nil {
			return fmt.Errorf("fleet: cohort %q: %w", co.Name, err)
		}
		for _, ev := range co.Events {
			if err := ev.validate(); err != nil {
				return fmt.Errorf("fleet: cohort %q: %w", co.Name, err)
			}
		}
		if co.Edge != 0 {
			if sc.EdgeTier == nil {
				return fmt.Errorf("fleet: cohort %q pins edge %d but the scenario has no edge tier", co.Name, co.Edge)
			}
			if co.Edge < 0 || co.Edge > len(sc.EdgeTier.Edges) {
				return fmt.Errorf("fleet: cohort %q pins edge %d of %d", co.Name, co.Edge, len(sc.EdgeTier.Edges))
			}
		}
	}
	return nil
}

// TotalSessions returns the scenario's session count across cohorts.
func (sc Scenario) TotalSessions() int {
	n := 0
	for _, co := range sc.Cohorts {
		n += co.Sessions
	}
	return n
}

// mix derives a sub-seed from seed and a path of indices (splitmix64
// finalisation), decorrelating per-cohort and per-session randomness.
func mix(seed int64, parts ...int64) int64 {
	z := uint64(seed)
	for _, p := range parts {
		z += uint64(p)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return int64(z)
}

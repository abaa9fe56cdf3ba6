package fleet

import (
	"fmt"
	"sort"
	"time"

	"repro"
)

// Builtin returns a named built-in scenario sized to sessions and seed.
// Names: see BuiltinNames.
func Builtin(name string, sessions int, seed int64) (Scenario, error) {
	f, ok := builtins[name]
	if !ok {
		return Scenario{}, fmt.Errorf("fleet: unknown scenario %q (have %v)", name, BuiltinNames())
	}
	return f(sessions, seed), nil
}

// BuiltinNames lists the built-in scenarios, sorted.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var builtins = map[string]func(int, int64) Scenario{
	"ramp":        LoadRamp,
	"flashcrowd":  FlashCrowd,
	"densecrowd":  DenseCrowd,
	"megacrowd":   MegaCrowd,
	"wifiwave":    WiFiWave,
	"abtest":      SchedulerAB,
	"coldedge":    ColdEdge,
	"edgemesh":    EdgeMesh,
	"originstorm": OriginStorm,
	"edgeflap":    EdgeFlap,
	"chaosfleet":  ChaosFleet,
}

// stormResilience is the resilience configuration the fault-plan
// builtins run with: breakers trip after two consecutive strikes and
// hedging reissues fetches that exceed the learned latency budget, so
// sessions stop burning full request deadlines on known-dead replicas.
var stormResilience = msplayer.Resilience{
	BreakerThreshold: 2,
	// Half the 800 ms default: half-open probes are 1 KiB ranges, so
	// re-probing a still-dead target is nearly free, while every extra
	// cooldown tick a session sleeps past a replica's recovery instant
	// is pure heal-discovery latency on the pre-buffer tail. 400 ms
	// erases the storm timeouts without inflating the tail (250 ms adds
	// probe churn and buys nothing further).
	BreakerCooldown: 400 * time.Millisecond,
	HedgeEnabled:    true,
	// Two samples arm hedging as early as the rate quantile is
	// meaningful, so paths have a budget before the first fault lands.
	// The 1500 ms request deadline is only ~1.5× the typical chunk
	// latency on the congested access links, so the default 2×
	// multiplier would always clamp to the deadline; 1.25×p90 hedges
	// the true laggards while leaving the healthy tail alone.
	HedgeMinSamples: 2,
	HedgeMultiplier: 1.25,
}

// shortPlayBuffer is the playout configuration for full plays of the
// 30-second reference clip: a 10 s start-up goal and small refills, so
// steady-state ON/OFF cycling is exercised within the clip.
var shortPlayBuffer = msplayer.BufferConfig{
	PreBufferTarget: 10 * time.Second,
	LowWater:        4 * time.Second,
	RefillSize:      4 * time.Second,
	StallRecovery:   2 * time.Second,
}

// FlashCrowd is a burst-arrival start-up-latency study: every session
// requests the 5-minute 720p clip within a two-second Poisson burst and
// runs until pre-buffering completes, measuring the population's
// start-up-time distribution under a thundering herd at the origin.
func FlashCrowd(sessions int, seed int64) Scenario {
	if sessions <= 0 {
		sessions = 200
	}
	return Scenario{
		Name:        "flashcrowd",
		Description: "poisson burst of pre-buffering sessions against one origin",
		Seed:        seed,
		Cohorts: []Cohort{{
			Name:               "crowd",
			Sessions:           sessions,
			Paths:              msplayer.BothPaths,
			Scheduler:          SchedulerSpec{Kind: "harmonic"},
			Arrival:            ArrivalSpec{Kind: ArrivalPoisson, Window: 2 * time.Second},
			StopAfterPreBuffer: true,
		}},
	}
}

// DenseCrowd is the population-density stress scenario: thousands of
// sessions pile onto one origin within a ten-second Poisson window,
// each running to a deliberately small (10 s) pre-buffer goal. Where
// FlashCrowd is a start-up-latency study at the paper's 40 s target,
// DenseCrowd keeps the per-session payload light so the cost that
// dominates is the emulator's ability to carry the population itself —
// clock scheduling, connection churn, origin fan-in — which is what
// the scenario exists to measure (and what the perf CI smoke tracks).
func DenseCrowd(sessions int, seed int64) Scenario {
	if sessions <= 0 {
		sessions = 2000
	}
	return Scenario{
		Name:        "densecrowd",
		Description: "thousands of light pre-buffering sessions against one origin",
		Seed:        seed,
		Cohorts: []Cohort{{
			Name:     "dense",
			Sessions: sessions,
			Paths:    msplayer.BothPaths,
			Scheduler: SchedulerSpec{
				Kind: "harmonic",
			},
			Arrival: ArrivalSpec{Kind: ArrivalPoisson, Window: 10 * time.Second},
			Buffer: msplayer.BufferConfig{
				PreBufferTarget: 10 * time.Second,
				LowWater:        4 * time.Second,
				RefillSize:      4 * time.Second,
				StallRecovery:   2 * time.Second,
			},
			StopAfterPreBuffer: true,
		}},
	}
}

// MegaCrowd is the 20k-session scale proof: an order of magnitude past
// DenseCrowd, with the per-session payload cut down further (the SD
// format and a 5 s pre-buffer goal, ~440 KB per session) so the run
// measures what it exists to measure — the emulator carrying tens of
// thousands of concurrently parked sessions on one clock: timer-queue
// scheduling, connection churn, origin fan-in. The thirty-second
// Poisson window keeps tens of thousands of arrival deadlines resident
// in the timer queue at once.
func MegaCrowd(sessions int, seed int64) Scenario {
	if sessions <= 0 {
		sessions = 20000
	}
	return Scenario{
		Name:        "megacrowd",
		Description: "tens of thousands of SD pre-buffering sessions against one origin",
		Seed:        seed,
		Cohorts: []Cohort{{
			Name:     "mega",
			Sessions: sessions,
			Paths:    msplayer.BothPaths,
			Scheduler: SchedulerSpec{
				Kind: "harmonic",
			},
			Arrival: ArrivalSpec{Kind: ArrivalPoisson, Window: 30 * time.Second},
			Itag:    18, // SD360: light per-session payload at huge populations
			Buffer: msplayer.BufferConfig{
				PreBufferTarget: 5 * time.Second,
				LowWater:        2 * time.Second,
				RefillSize:      2 * time.Second,
				StallRecovery:   time.Second,
			},
			StopAfterPreBuffer: true,
		}},
	}
}

// ColdEdge is the cache-stampede study: a FlashCrowd-style Poisson
// burst of pre-buffering sessions hits two cold edge caches at once.
// Both cohorts stream the same clip, so every page is a miss exactly
// once per edge — but edge1 coalesces concurrent misses into one
// backhaul fill (single-flight) while edge2 runs in stampede mode and
// lets every concurrent miss storm the origin. The per-edge fill and
// backhaul-byte columns quantify what fill coalescing is worth under a
// thundering herd; the budgets are sized so neither edge evicts, making
// "fills == resident pages" the single-flight correctness signature.
func ColdEdge(sessions int, seed int64) Scenario {
	if sessions <= 0 {
		sessions = 200
	}
	half := sessions / 2
	if half < 1 {
		half = 1
	}
	cohort := func(name string, n, edge int) Cohort {
		return Cohort{
			Name:               name,
			Sessions:           n,
			Paths:              msplayer.BothPaths,
			Scheduler:          SchedulerSpec{Kind: "harmonic"},
			Arrival:            ArrivalSpec{Kind: ArrivalPoisson, Window: 2 * time.Second},
			StopAfterPreBuffer: true,
			Edge:               edge,
		}
	}
	return Scenario{
		Name:        "coldedge",
		Description: "flash crowd on cold edge caches: single-flight vs stampede fills",
		Seed:        seed,
		Cohorts: []Cohort{
			cohort("coalesced", half, 1),
			cohort("stampede", sessions-half, 2),
		},
		EdgeTier: &EdgeTierSpec{
			Edges: []EdgeSpec{
				{ByteBudget: 32 << 20},
				{ByteBudget: 32 << 20, Stampede: true},
			},
		},
	}
}

// EdgeMesh is the cache-policy comparison across a four-edge tier: two
// LRU and two LFU edges with deliberately tight byte budgets, each
// serving one cohort of HD pre-buffering sessions (the hot working set)
// plus one later-arriving cohort of full SD short-clip plays (the
// churn that pressures the store). The same offered load runs against
// both policies, so the per-edge hit-ratio and eviction columns read as
// an LRU-versus-LFU study under working-set churn.
func EdgeMesh(sessions int, seed int64) Scenario {
	if sessions <= 0 {
		sessions = 80
	}
	per := sessions / 8
	if per < 1 {
		per = 1
	}
	var cohorts []Cohort
	for i := 1; i <= 4; i++ {
		cohorts = append(cohorts, Cohort{
			Name:               fmt.Sprintf("hot%d", i),
			Sessions:           per,
			Paths:              msplayer.BothPaths,
			Scheduler:          SchedulerSpec{Kind: "harmonic"},
			Arrival:            ArrivalSpec{Kind: ArrivalSpread, Window: 5 * time.Second},
			StopAfterPreBuffer: true,
			Edge:               i,
		})
	}
	churn := sessions - 4*per
	for i := 1; i <= 4; i++ {
		n := churn / 4
		if i == 4 {
			n = churn - 3*(churn/4)
		}
		if n < 1 {
			n = 1
		}
		cohorts = append(cohorts, Cohort{
			Name:      fmt.Sprintf("churn%d", i),
			Sessions:  n,
			Paths:     msplayer.BothPaths,
			Scheduler: SchedulerSpec{Kind: "harmonic"},
			Arrival:   ArrivalSpec{Kind: ArrivalPoisson, Start: 10 * time.Second, Window: 2 * time.Second},
			Video:     "shortclip01",
			Itag:      18,
			Buffer:    shortPlayBuffer,
			Edge:      i,
		})
	}
	tight := EdgeSpec{ByteBudget: 4 << 20}
	return Scenario{
		Name:        "edgemesh",
		Description: "four tight-budget edges, LRU vs LFU, hot HD set plus SD churn",
		Seed:        seed,
		Cohorts:     cohorts,
		EdgeTier: &EdgeTierSpec{
			Edges: []EdgeSpec{
				tight,
				tight,
				{ByteBudget: 4 << 20, Policy: "lfu"},
				{ByteBudget: 4 << 20, Policy: "lfu"},
			},
		},
	}
}

// OriginStorm is the failure-storm robustness study: a FlashCrowd-style
// Poisson burst of pre-buffering sessions, then the fault plan sweeps
// through the origin replicas mid-crowd — the first WiFi replica
// crashes (and restarts ten seconds later), the first LTE replica
// wedges into a blackhole (accepting connections, never answering) and
// the second LTE replica crashes while the first is still wedged. The
// cohort runs with a request deadline, so blackholed requests surface
// as timeouts at exact virtual instants; the robustness block counts
// the resulting failovers, timeouts and re-bootstraps, and the fault
// windows publish each replica's downtime and time-to-recovery.
func OriginStorm(sessions int, seed int64) Scenario {
	if sessions <= 0 {
		sessions = 200
	}
	return Scenario{
		Name:        "originstorm",
		Description: "replica crash + blackhole storm under a pre-buffering crowd",
		Seed:        seed,
		Cohorts: []Cohort{{
			Name:               "storm",
			Sessions:           sessions,
			Paths:              msplayer.BothPaths,
			Scheduler:          SchedulerSpec{Kind: "harmonic"},
			Arrival:            ArrivalSpec{Kind: ArrivalPoisson, Window: 2 * time.Second},
			StopAfterPreBuffer: true,
			RequestTimeout:     1500 * time.Millisecond,
			Resilience:         stormResilience,
		}},
		Faults: []Fault{
			{Kind: FaultOriginKill, At: 3 * time.Second, Duration: 10 * time.Second, Network: "wifi", Replica: 1},
			{Kind: FaultOriginBlackhole, At: 4 * time.Second, Duration: 8 * time.Second, Network: "lte", Replica: 1},
			{Kind: FaultOriginKill, At: 6 * time.Second, Duration: 6 * time.Second, Network: "lte", Replica: 2},
		},
	}
}

// EdgeFlap is the edge-tier robustness study: the ColdEdge crowd (a
// coalescing edge and a stampeding edge, each serving half the
// sessions) with a flapping tier — both edges suffer an outage
// mid-crowd and cold-restart with wiped stores, so the tier re-fills
// under load (single-flight on edge1, stampeding on edge2; cumulative
// fills exceeding resident pages is the re-fill signature). A deep
// backhaul degradation then slows edge2's fills to a crawl, which the
// cohorts' request deadline converts into timeouts and jittered
// backoff instead of wedged sessions.
func EdgeFlap(sessions int, seed int64) Scenario {
	if sessions <= 0 {
		sessions = 200
	}
	half := sessions / 2
	if half < 1 {
		half = 1
	}
	cohort := func(name string, n, edge int) Cohort {
		return Cohort{
			Name:               name,
			Sessions:           n,
			Paths:              msplayer.BothPaths,
			Scheduler:          SchedulerSpec{Kind: "harmonic"},
			Arrival:            ArrivalSpec{Kind: ArrivalPoisson, Window: 2 * time.Second},
			StopAfterPreBuffer: true,
			RequestTimeout:     2 * time.Second,
			Resilience:         stormResilience,
			Edge:               edge,
		}
	}
	return Scenario{
		Name:        "edgeflap",
		Description: "edge outages with cold restarts plus a backhaul collapse under a flash crowd",
		Seed:        seed,
		Cohorts: []Cohort{
			cohort("coalesced", half, 1),
			cohort("stampede", sessions-half, 2),
		},
		EdgeTier: &EdgeTierSpec{
			Edges: []EdgeSpec{
				{ByteBudget: 32 << 20},
				{ByteBudget: 32 << 20, Stampede: true},
			},
		},
		Faults: []Fault{
			{Kind: FaultEdgeOutage, At: 2500 * time.Millisecond, Duration: 1500 * time.Millisecond, Edge: 1},
			{Kind: FaultEdgeOutage, At: 3 * time.Second, Duration: 1500 * time.Millisecond, Edge: 2},
			{Kind: FaultBackhaulDegrade, At: 6 * time.Second, Duration: 4 * time.Second, Edge: 2, Factor: 0.02},
		},
	}
}

// ChaosFleet is the seeded chaos study: a Poisson burst of resilient
// pre-buffering sessions while a randomized fault plan — replica kills
// and blackholes, network partitions, packet-loss storms and flapping
// partitions — fires at splitmix64-drawn instants. The plan expands
// deterministically from the scenario seed, so every seed is a distinct
// but exactly reproducible storm; CheckInvariants verifies the run's
// structural invariants afterwards whatever the plan injected.
func ChaosFleet(sessions int, seed int64) Scenario {
	if sessions <= 0 {
		sessions = 150
	}
	return Scenario{
		Name:        "chaosfleet",
		Description: "seeded randomized fault storm under a resilient pre-buffering crowd",
		Seed:        seed,
		Cohorts: []Cohort{{
			Name:               "chaos",
			Sessions:           sessions,
			Paths:              msplayer.BothPaths,
			Scheduler:          SchedulerSpec{Kind: "harmonic"},
			Arrival:            ArrivalSpec{Kind: ArrivalPoisson, Window: 2 * time.Second},
			StopAfterPreBuffer: true,
			RequestTimeout:     1500 * time.Millisecond,
			Resilience:         stormResilience,
		}},
		Chaos: &ChaosPlan{Seed: mix(seed, 777), Intensity: 2, Horizon: 20 * time.Second},
	}
}

// LoadRamp is a steady-state load ramp: three cohorts of full plays of
// the short reference clip arrive in successive ten-second waves
// (quarter, half, quarter of the population), exercising ON/OFF playout
// cycling and cross-session fairness as origin load rises and falls.
func LoadRamp(sessions int, seed int64) Scenario {
	if sessions <= 0 {
		sessions = 60
	}
	quarter := sessions / 4
	if quarter < 1 {
		quarter = 1
	}
	mid := sessions - 2*quarter
	cohort := func(name string, n int, start time.Duration) Cohort {
		return Cohort{
			Name:      name,
			Sessions:  n,
			Paths:     msplayer.BothPaths,
			Scheduler: SchedulerSpec{Kind: "harmonic"},
			Arrival:   ArrivalSpec{Kind: ArrivalSpread, Start: start, Window: 10 * time.Second},
			Video:     "shortclip01",
			Buffer:    shortPlayBuffer,
		}
	}
	return Scenario{
		Name:        "ramp",
		Description: "three arrival waves of full short-clip plays (load ramp)",
		Seed:        seed,
		Cohorts: []Cohort{
			cohort("wave1", quarter, 0),
			cohort("wave2", mid, 10*time.Second),
			cohort("wave3", quarter, 20*time.Second),
		},
	}
}

// WiFiWave is a degradation wave: full plays of the short clip arrive
// over five seconds, then a WiFi rate collapse (to 8% of nominal for
// twelve seconds) sweeps through 60% of the population, one session
// every 250 ms — the cohort must shift traffic to LTE to keep playing.
func WiFiWave(sessions int, seed int64) Scenario {
	if sessions <= 0 {
		sessions = 60
	}
	return Scenario{
		Name:        "wifiwave",
		Description: "WiFi degradation wave sweeping 60% of full-play sessions",
		Seed:        seed,
		Cohorts: []Cohort{{
			Name:      "wave",
			Sessions:  sessions,
			Paths:     msplayer.BothPaths,
			Scheduler: SchedulerSpec{Kind: "harmonic"},
			Arrival:   ArrivalSpec{Kind: ArrivalSpread, Window: 5 * time.Second},
			Video:     "shortclip01",
			Buffer:    shortPlayBuffer,
			Events: []Event{{
				Kind:     EventWiFiDegrade,
				At:       8 * time.Second,
				Duration: 12 * time.Second,
				Factor:   0.08,
				Fraction: 0.6,
				Stagger:  250 * time.Millisecond,
			}},
		}},
	}
}

// SchedulerAB is a mixed-scheduler A/B study: two same-size cohorts
// start together under identical links, one on the paper's harmonic
// dynamic scheduler and one on a fixed 256 KB commercial-player-style
// scheduler, comparing start-up latency distributions head to head.
func SchedulerAB(sessions int, seed int64) Scenario {
	if sessions <= 0 {
		sessions = 40
	}
	half := sessions / 2
	if half < 1 {
		half = 1
	}
	cohort := func(name string, spec SchedulerSpec, n int) Cohort {
		return Cohort{
			Name:               name,
			Sessions:           n,
			Paths:              msplayer.BothPaths,
			Scheduler:          spec,
			Arrival:            ArrivalSpec{Kind: ArrivalSpread, Window: time.Second},
			StopAfterPreBuffer: true,
		}
	}
	return Scenario{
		Name:        "abtest",
		Description: "harmonic vs fixed-256KB schedulers, same links, same arrivals",
		Seed:        seed,
		Cohorts: []Cohort{
			cohort("harmonic", SchedulerSpec{Kind: "harmonic"}, half),
			cohort("fixed256", SchedulerSpec{Kind: "fixed", Chunk: 256 << 10}, sessions-half),
		},
	}
}

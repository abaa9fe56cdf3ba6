package main

import (
	"fmt"
	"time"

	msplayer "repro"
	"repro/internal/fleet"
)

// A workload is one named set of inputs: a pure function from the seed
// to the scenarios one rep runs back to back through fleet.Run. Every
// scenario is written out literally here rather than taken from
// fleet.Builtin, so retuning a builtin never moves the benchmark.
type workload struct {
	name string
	// why is the one-line reason BENCHMARK.json records.
	why string
	// scenarios builds the rep's inputs. sessions overrides the
	// population when non-zero; only a workload with a smallPopulation
	// honours it.
	scenarios func(seed int64, sessions int) []fleet.Scenario
	// smallPopulation, when non-zero, is the population of the extra rep
	// fleet.session_cost_ratio compares the full one against.
	smallPopulation int
	// focus names the cohort the simulated metrics are computed over;
	// empty means every session of the run.
	focus string
	// baselines names the single-path cohorts core.multipath_gain_pct
	// compares the focus cohort against.
	baselines []string
	// faulty marks workloads with a fault plan: only there may a session
	// legitimately fail.
	faulty bool
}

var workloads = []workload{
	{
		name: "crowd_scale",
		why:  "10000 light SD pre-buffer sessions: wheel-resident deadlines, connection set-up, head parsing and GC dominate; almost no bytes move",
		scenarios: func(seed int64, sessions int) []fleet.Scenario {
			if sessions == 0 {
				sessions = 10000
			}
			return []fleet.Scenario{crowdScale(seed, sessions)}
		},
		smallPopulation: 2000,
	},
	{
		name:      "bulk_play",
		why:       "2000 full 720p plays under a WiFi collapse wave: pipe segments, ReadBuf/Release, ON/OFF refills and Alg. 1 shifting traffic to LTE; the only workload where stalls occur",
		scenarios: func(seed int64, _ int) []fleet.Scenario { return []fleet.Scenario{bulkPlay(seed)} },
	},
	{
		name:      "edge_churn",
		why:       "1000 sessions behind four edge caches (fit, stampede, tight LRU, tight LFU): goroutine-served handlers parking on Cond, backhaul client, store fills and evictions beside hits",
		scenarios: func(seed int64, _ int) []fleet.Scenario { return []fleet.Scenario{edgeChurn(seed)} },
	},
	{
		name:      "fault_storm",
		why:       "eight 300-session crowds under seeded kill/blackhole/partition/loss/flap timelines: request deadlines, AbortAt, breakers, hedges, failover and re-bootstrap, the client's slow path",
		scenarios: func(seed int64, _ int) []fleet.Scenario { return faultStorm(seed) },
		faulty:    true,
	},
	{
		name:      "solo_paths",
		why:       "the paper's Fig. 2/4 experiment: 1600 never-overlapping sessions each of MSPlayer, WiFi-only and LTE-only; empty wheel, so jitter draws and trace.Lognormal dominate",
		scenarios: func(seed int64, _ int) []fleet.Scenario { return []fleet.Scenario{soloPaths(seed)} },
		focus:     "msplayer",
		baselines: []string{"wifi", "lte"},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// shortPlayBuffer is the playout configuration for full plays of the
// 30-second clip: a 10 s start-up goal and small refills, so ON/OFF
// cycling happens within the clip.
var shortPlayBuffer = msplayer.BufferConfig{
	PreBufferTarget: 10 * time.Second,
	LowWater:        4 * time.Second,
	RefillSize:      4 * time.Second,
	StallRecovery:   2 * time.Second,
}

func crowdScale(seed int64, sessions int) fleet.Scenario {
	return fleet.Scenario{
		Name:        "crowd_scale",
		Description: "light SD pre-buffering sessions against one origin, 30 s Poisson window",
		Seed:        seed,
		Cohorts: []fleet.Cohort{{
			Name:      "crowd",
			Sessions:  sessions,
			Paths:     msplayer.BothPaths,
			Scheduler: fleet.SchedulerSpec{Kind: "harmonic"},
			Arrival:   fleet.ArrivalSpec{Kind: fleet.ArrivalPoisson, Window: 30 * time.Second},
			Itag:      18,
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

func bulkPlay(seed int64) fleet.Scenario {
	return fleet.Scenario{
		Name:        "bulk_play",
		Description: "full short-clip plays; WiFi collapses to 8% for 12 s across 60% of sessions",
		Seed:        seed,
		Cohorts: []fleet.Cohort{{
			Name:      "wave",
			Sessions:  2000,
			Paths:     msplayer.BothPaths,
			Scheduler: fleet.SchedulerSpec{Kind: "harmonic"},
			Arrival:   fleet.ArrivalSpec{Kind: fleet.ArrivalSpread, Window: 5 * time.Second},
			Video:     "shortclip01",
			Buffer:    shortPlayBuffer,
			Events: []fleet.Event{{
				Kind:     fleet.EventWiFiDegrade,
				At:       8 * time.Second,
				Duration: 12 * time.Second,
				Factor:   0.08,
				Fraction: 0.6,
				Stagger:  250 * time.Millisecond,
			}},
		}},
	}
}

// edgeNames labels the four edge_churn edges in metric names, in
// deployment order (the report calls them edge1..edge4).
var edgeNames = []string{"fit", "stampede", "tight_lru", "tight_lfu"}

func edgeChurn(seed int64) fleet.Scenario {
	const per = 125 // 8 cohorts × 125 = 1000 sessions
	var cohorts []fleet.Cohort
	for i := range edgeNames {
		cohorts = append(cohorts, fleet.Cohort{
			Name:               "hot_" + edgeNames[i],
			Sessions:           per,
			Paths:              msplayer.BothPaths,
			Scheduler:          fleet.SchedulerSpec{Kind: "harmonic"},
			Arrival:            fleet.ArrivalSpec{Kind: fleet.ArrivalSpread, Window: 5 * time.Second},
			StopAfterPreBuffer: true,
			Edge:               i + 1,
		})
	}
	for i := range edgeNames {
		cohorts = append(cohorts, fleet.Cohort{
			Name:      "churn_" + edgeNames[i],
			Sessions:  per,
			Paths:     msplayer.BothPaths,
			Scheduler: fleet.SchedulerSpec{Kind: "harmonic"},
			Arrival:   fleet.ArrivalSpec{Kind: fleet.ArrivalPoisson, Start: 10 * time.Second, Window: 2 * time.Second},
			Video:     "shortclip01",
			Itag:      18,
			Buffer:    shortPlayBuffer,
			Edge:      i + 1,
		})
	}
	return fleet.Scenario{
		Name:        "edge_churn",
		Description: "four edges (fit, stampede, tight LRU, tight LFU), hot HD set plus SD churn",
		Seed:        seed,
		Cohorts:     cohorts,
		EdgeTier: &fleet.EdgeTierSpec{
			Edges: []fleet.EdgeSpec{
				{ByteBudget: 32 << 20},
				{ByteBudget: 32 << 20, Stampede: true},
				{ByteBudget: 4 << 20},
				{ByteBudget: 4 << 20, Policy: "lfu"},
			},
		},
	}
}

// stormResilience is the fault-plan builtins' resilience configuration
// at the commit this benchmark was defined on, copied so that retuning
// the builtins leaves fault_storm's inputs alone.
var stormResilience = msplayer.Resilience{
	BreakerThreshold: 2,
	BreakerCooldown:  400 * time.Millisecond,
	HedgeEnabled:     true,
	HedgeMinSamples:  2,
	HedgeMultiplier:  1.25,
}

const (
	storms        = 8
	stormSessions = 300
	// Every storm injects one fault of each kind, each in an onset slot
	// of its own. The slots [stormFirst + i×stormSlot, +stormSlot) cover
	// the span in which the crowd is active: arrivals take 2 s, a
	// pre-buffer about 9 s more.
	stormFirst = time.Second
	stormSlot  = 2 * time.Second
)

// stormKinds are the fault kinds of a storm, one of each per storm.
var stormKinds = []string{fleet.FaultOriginKill, fleet.FaultOriginBlackhole, fleet.FaultPartition, fleet.FaultLossStorm, fleet.FaultFlap}

func faultStorm(seed int64) []fleet.Scenario {
	scs := make([]fleet.Scenario, storms)
	for i := range scs {
		scs[i] = fleet.Scenario{
			Name:        fmt.Sprintf("fault_storm_%d", i+1),
			Description: "seeded fault timeline under a resilient pre-buffering crowd",
			Seed:        int64(splitmix(uint64(seed), uint64(i))),
			Cohorts: []fleet.Cohort{{
				Name:               "storm",
				Sessions:           stormSessions,
				Paths:              msplayer.BothPaths,
				Scheduler:          fleet.SchedulerSpec{Kind: "harmonic"},
				Arrival:            fleet.ArrivalSpec{Kind: fleet.ArrivalPoisson, Window: 2 * time.Second},
				StopAfterPreBuffer: true,
				RequestTimeout:     1500 * time.Millisecond,
				Resilience:         stormResilience,
			}},
			Faults: stormTimeline(seed, i),
		}
	}
	return scs
}

// splitmix is one splitmix64 finalisation of seed advanced by part.
func splitmix(seed, part uint64) uint64 {
	z := seed + (part+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// stormTimeline is storm number storm's fault plan: a pure function of
// (seed, storm), drawn from the benchmark's own splitmix64 stream so
// that the program receives explicit Scenario.Faults and its chaos
// expander is not part of the input generator.
//
// The plan is balanced rather than independent draws, so that seeds
// differ in detail and not in load (independent draws made seeds differ
// by 13% in median start-up time, far more than any change the
// benchmark is meant to detect). Across a rep's storms every kind
// visits every onset slot, both networks and both replicas about
// equally often; the seed rotates that design and decides where in its
// slot each fault starts, how long it lasts, and how hard it hits.
func stormTimeline(seed int64, storm int) []fleet.Fault {
	rot := splitmix(uint64(seed), 0xFA17)
	slotRot, netRot, replicaRot := int(rot%5), int(rot>>8&1), int(rot>>9&1)
	state := splitmix(uint64(seed), uint64(storm)) ^ 0x8AC7230489E7FFD9
	next := func(n int64) int64 {
		state = splitmix(state, 0)
		return int64(state % uint64(n))
	}
	between := func(lo, hi time.Duration) time.Duration { return lo + time.Duration(next(int64(hi-lo))) }
	networks := []string{"wifi", "lte"}
	faults := make([]fleet.Fault, len(stormKinds))
	for k, kind := range stormKinds {
		slot := (k + storm + slotRot) % len(stormKinds)
		f := fleet.Fault{
			Kind:     kind,
			At:       stormFirst + time.Duration(slot)*stormSlot + between(0, stormSlot),
			Duration: between(2*time.Second, 4*time.Second),
			Network:  networks[(k+storm+netRot)%2],
		}
		switch kind {
		case fleet.FaultLossStorm:
			f.Factor = float64(10+next(10)) / 100
		default:
			f.Replica = 1 + (k+storm/2+replicaRot)%2 // TestbedProfile deploys two replicas per network
			if kind == fleet.FaultFlap {
				f.Period = between(400*time.Millisecond, 1200*time.Millisecond)
			}
		}
		faults[k] = f
	}
	return faults
}

const soloSessions = 1600

func soloPaths(seed int64) fleet.Scenario {
	profile := msplayer.YouTubeProfile(seed)
	// One session starts every 60 s of virtual time and none lasts that
	// long, so no two sessions ever share the origin or the wheel.
	cohort := func(name string, paths msplayer.PathSelection, kind string, start time.Duration) fleet.Cohort {
		return fleet.Cohort{
			Name:               name,
			Sessions:           soloSessions,
			Paths:              paths,
			Scheduler:          fleet.SchedulerSpec{Kind: kind},
			Arrival:            fleet.ArrivalSpec{Kind: fleet.ArrivalSpread, Start: start, Window: soloSessions * 180 * time.Second},
			StopAfterPreBuffer: true,
		}
	}
	return fleet.Scenario{
		Name:        "solo_paths",
		Description: "isolated 40 s pre-buffers: MSPlayer vs single-path WiFi and LTE (paper Fig. 2/4)",
		Seed:        seed,
		Profile:     &profile,
		Cohorts: []fleet.Cohort{
			cohort("msplayer", msplayer.BothPaths, "harmonic", 0),
			cohort("wifi", msplayer.WiFiOnly, "bulk", 60*time.Second),
			cohort("lte", msplayer.LTEOnly, "bulk", 120*time.Second),
		},
	}
}

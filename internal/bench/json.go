package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/fleet"
)

// Experiment is one benchmarked experiment in a BENCH_*.json artifact:
// its headline metrics plus the wall time and allocation cost of
// producing them, so successive PRs can track the perf trajectory of
// the reproduction alongside its scientific outputs.
type Experiment struct {
	Name       string  `json:"name"`
	WallSecs   float64 `json:"wall_secs"`
	Allocs     uint64  `json:"allocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	// PeakGoroutines and PeakHeapBytes are sampled over the run by a
	// wall-clock poller: the highest live-goroutine count and heap-alloc
	// size observed: the footprint the event-loop design exists to
	// bound.
	PeakGoroutines int64              `json:"peak_goroutines,omitempty"`
	PeakHeapBytes  uint64             `json:"peak_heap_bytes,omitempty"`
	Metrics        map[string]float64 `json:"metrics"`
}

// Artifact is the top-level BENCH_*.json document. GoVersion, NumCPU
// and GOMAXPROCS describe the machine and runtime configuration that
// produced the numbers: wall-time comparisons against an artifact from
// a different configuration are noise, and the guard warns on them.
type Artifact struct {
	Kind        string       `json:"kind"` // "fleet" or "figs"
	GoVersion   string       `json:"go_version"`
	NumCPU      int          `json:"num_cpu"`
	GoMaxProcs  int          `json:"gomaxprocs,omitempty"`
	Seed        int64        `json:"seed"`
	Experiments []Experiment `json:"experiments"`
}

// newArtifact stamps an artifact with the current runtime environment.
func newArtifact(kind string, seed int64) *Artifact {
	return &Artifact{
		Kind:       kind,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       seed,
	}
}

// measure runs fn and captures its wall time and allocation cost.
// Allocation counts include everything the process does concurrently,
// so run measured experiments sequentially.
func measure(name string, metrics map[string]float64, fn func() error) (Experiment, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// Peak sampler: a real-time poller alongside the experiment,
	// recording the highest goroutine count and heap size it sees. The
	// 5ms period keeps ReadMemStats' stop-the-world pauses to well under
	// 1% of the run; a sampler necessarily reads between the peaks, so
	// the recorded values are floors on the true maxima — comparable
	// across runs, which is all the trajectory needs. The sampler itself
	// is one of the goroutines it counts.
	var peakG int64
	var peakHeap uint64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() { //detlint:allow baredgo -- footprint sampler lives outside the emulation; joined via channels before the measurement returns
		defer close(sampled)
		var ms runtime.MemStats
		for {
			if n := int64(runtime.NumGoroutine()); n > peakG {
				peakG = n
			}
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peakHeap {
				peakHeap = ms.HeapAlloc
			}
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond): //detlint:allow wallclock -- footprint sampler polls in real time, outside the emulation
			}
		}
	}()
	start := time.Now() //detlint:allow wallclock -- harness records wall-clock duration for the report
	err := fn()
	wall := time.Since(start) //detlint:allow wallclock -- harness records wall-clock duration for the report
	close(stop)
	<-sampled
	runtime.ReadMemStats(&after)
	return Experiment{
		Name:           name,
		WallSecs:       wall.Seconds(),
		Allocs:         after.Mallocs - before.Mallocs,
		AllocBytes:     after.TotalAlloc - before.TotalAlloc,
		PeakGoroutines: peakG,
		PeakHeapBytes:  peakHeap,
		Metrics:        metrics,
	}, err
}

// fleetMetrics extracts the headline QoE numbers of a fleet report,
// plus the edge tier's aggregate books when the scenario has one.
func fleetMetrics(rep *fleet.Report) map[string]float64 {
	a := &rep.Fleet
	m := map[string]float64{
		"sessions":        float64(a.Sessions),
		"completed":       float64(a.Completed),
		"virtual_elapsed": rep.Elapsed.Seconds(),
		"prebuffer_p50_s": a.PreBuffer.Quantile(0.50),
		"prebuffer_p95_s": a.PreBuffer.Quantile(0.95),
		"prebuffer_p99_s": a.PreBuffer.Quantile(0.99),
		"stall_rate":      a.StallRate(),
		"goodput_mean":    a.Goodput.Mean(),
		"fairness_jain":   a.Fairness(),
		"wifi_share":      a.WiFiShare(),
	}
	if len(rep.Edges) > 0 {
		var hits, misses, fills, evictions, backhaul int64
		for _, e := range rep.Edges {
			hits += e.Hits
			misses += e.Misses
			fills += e.Fills
			evictions += e.Evictions
			backhaul += e.BackhaulBytes
		}
		if hits+misses > 0 {
			m["edge_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		m["edge_fills"] = float64(fills)
		m["edge_evictions"] = float64(evictions)
		m["edge_backhaul_bytes"] = float64(backhaul)
	}
	if len(rep.Faults) > 0 {
		recovered := 0
		for _, w := range rep.Faults {
			if w.Recovered {
				recovered++
			}
		}
		m["faults"] = float64(len(rep.Faults))
		m["faults_recovered"] = float64(recovered)
		m["failovers"] = float64(a.Failovers)
		m["timeouts"] = float64(a.Timeouts)
		m["rebootstraps"] = float64(a.Rebootstraps)
		m["breaker_opens"] = float64(a.BreakerOpens)
		m["half_open_probes"] = float64(a.HalfOpenProbes)
		m["hedges"] = float64(a.Hedges)
		m["hedges_won"] = float64(a.HedgesWon)
		m["hedge_wasted_bytes"] = float64(a.HedgeWastedBytes)
		m["fault_downtime_seconds"] = rep.FaultDowntimeSeconds()
		m["fault_stall_seconds"] = rep.FaultStallSeconds()
	}
	return m
}

// FleetArtifact runs the fleet-scale benchmarks — the flashcrowd
// start-up study, the densecrowd population stress, the megacrowd
// 20k-session scale proof, the coldedge cache-stampede study, the
// originstorm/edgeflap fault-plan studies, and the chaosfleet
// randomized-storm sweep — at the given session counts (a count of 0
// skips that experiment; chaosSeeds counts chaos seeds, not sessions)
// and returns the artifact for BENCH_fleet.json.
func FleetArtifact(w io.Writer, opt Options, flashSessions, denseSessions, megaSessions, coldEdgeSessions, stormSessions, flapSessions, chaosSeeds int) (*Artifact, error) {
	opt = opt.withDefaults()
	art := newArtifact("fleet", opt.Seed)
	for _, c := range []struct {
		scenario string
		sessions int
	}{
		{"flashcrowd", flashSessions},
		{"densecrowd", denseSessions},
		{"megacrowd", megaSessions},
		{"coldedge", coldEdgeSessions},
		{"originstorm", stormSessions},
		{"edgeflap", flapSessions},
	} {
		if c.sessions <= 0 {
			continue
		}
		// Return the previous experiment's garbage to the OS before
		// measuring the next one: at GOGC=400 a mega-scale run leaves a
		// multi-GB collection ceiling behind, and on a memory-tight
		// runner the retained RSS turns every later experiment's wall
		// time into a paging benchmark. Freeing between experiments
		// makes wall, alloc and peak_* numbers attributable to their own
		// experiment (virtual-time metrics are unaffected either way).
		debug.FreeOSMemory()
		sc, err := fleet.Builtin(c.scenario, c.sessions, opt.Seed)
		if err != nil {
			return nil, err
		}
		var rep *fleet.Report
		exp, err := measure(fmt.Sprintf("%s_%d", c.scenario, c.sessions), nil, func() error {
			var rerr error
			rep, rerr = fleet.Run(context.Background(), sc)
			return rerr
		})
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", c.scenario, err)
		}
		exp.Metrics = fleetMetrics(rep)
		fmt.Fprintf(w, "  %-18s wall=%6.2fs allocs=%d  p50=%.3fs sessions=%d  peak_goroutines=%d peak_heap=%.1fMB\n",
			exp.Name, exp.WallSecs, exp.Allocs, exp.Metrics["prebuffer_p50_s"], int(exp.Metrics["sessions"]),
			exp.PeakGoroutines, float64(exp.PeakHeapBytes)/(1<<20))
		art.Experiments = append(art.Experiments, exp)
	}
	if chaosSeeds > 0 {
		exp, err := chaosExperiment(opt, chaosSeeds)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "  %-18s wall=%6.2fs allocs=%d  p99=%.3fs seeds=%d  hedges=%d breaker_opens=%d\n",
			exp.Name, exp.WallSecs, exp.Allocs, exp.Metrics["prebuffer_p99_s"], chaosSeeds,
			int(exp.Metrics["hedges"]), int(exp.Metrics["breaker_opens"]))
		art.Experiments = append(art.Experiments, exp)
	}
	return art, nil
}

// chaosExperiment runs the chaosfleet randomized-storm sweep: the base
// seed's run is the measured experiment (its name, chaosfleet_150,
// parses for the wall-regression guard, which re-runs exactly that base
// configuration), and the remaining seeds of the sweep run unmeasured —
// every run passes fleet.CheckInvariants, and the sweep's resilience
// totals (hedges, breaker opens, worst p99 pre-buffer under chaos) ride
// along in the metrics block.
func chaosExperiment(opt Options, chaosSeeds int) (Experiment, error) {
	const sessions = 150
	run := func(seed int64) (*fleet.Report, error) {
		sc, err := fleet.Builtin("chaosfleet", sessions, seed)
		if err != nil {
			return nil, err
		}
		rep, err := fleet.Run(context.Background(), sc)
		if err != nil {
			return nil, err
		}
		if err := fleet.CheckInvariants(rep); err != nil {
			return nil, fmt.Errorf("bench: chaosfleet seed %d: %w", seed, err)
		}
		return rep, nil
	}
	debug.FreeOSMemory()
	var rep *fleet.Report
	exp, err := measure(fmt.Sprintf("chaosfleet_%d", sessions), nil, func() error {
		var rerr error
		rep, rerr = run(opt.Seed)
		return rerr
	})
	if err != nil {
		return exp, fmt.Errorf("bench: chaosfleet: %w", err)
	}
	exp.Metrics = fleetMetrics(rep)
	hedges, opens, worstP99 := rep.Fleet.Hedges, rep.Fleet.BreakerOpens, rep.Fleet.PreBuffer.Quantile(0.99)
	for i := 1; i < chaosSeeds; i++ {
		debug.FreeOSMemory()
		r, err := run(opt.Seed + int64(i))
		if err != nil {
			return exp, err
		}
		hedges += r.Fleet.Hedges
		opens += r.Fleet.BreakerOpens
		if p := r.Fleet.PreBuffer.Quantile(0.99); p > worstP99 {
			worstP99 = p
		}
	}
	exp.Metrics["chaos_seeds"] = float64(chaosSeeds)
	exp.Metrics["hedges"] = float64(hedges)
	exp.Metrics["breaker_opens"] = float64(opens)
	exp.Metrics["prebuffer_p99_worst_s"] = worstP99
	return exp, nil
}

// FigsArtifact runs the paper-figure experiments at the given
// repetition count and returns the artifact for BENCH_figs.json.
func FigsArtifact(w io.Writer, opt Options) (*Artifact, error) {
	opt = opt.withDefaults()
	art := newArtifact("figs", opt.Seed)
	add := func(name string, fn func() map[string]float64) {
		var metrics map[string]float64
		exp, _ := measure(name, nil, func() error {
			metrics = fn()
			return nil
		})
		exp.Metrics = metrics
		fmt.Fprintf(w, "  %-18s wall=%6.2fs allocs=%d\n", exp.Name, exp.WallSecs, exp.Allocs)
		art.Experiments = append(art.Experiments, exp)
	}
	add("fig1_handshake", func() map[string]float64 {
		rows := Fig1(io.Discard, opt)
		m := map[string]float64{}
		for _, r := range rows {
			m[fmt.Sprintf("eta_theta%.0f_ms", r.Theta)] = r.EtaMeasured.Seconds() * 1000
			m[fmt.Sprintf("psi_theta%.0f_ms", r.Theta)] = r.PsiMeasured.Seconds() * 1000
		}
		return m
	})
	add("fig2_prebuffer", func() map[string]float64 {
		s := Fig2(io.Discard, opt)
		m := map[string]float64{}
		for _, row := range s {
			m[row.Label+"_med_s"] = row.Summary.Median
		}
		return m
	})
	add("fig4_youtube", func() map[string]float64 {
		rows := Fig4(io.Discard, opt)
		m := map[string]float64{}
		for _, r := range rows {
			m[fmt.Sprintf("reduction_%ds_pct", int(r.PreBuffer.Seconds()))] = r.Reduction * 100
		}
		return m
	})
	add("table1_share", func() map[string]float64 {
		rows := Table1(io.Discard, opt)
		m := map[string]float64{}
		for _, r := range rows {
			m[fmt.Sprintf("wifi_pre_%ds_pct", int(r.Size.Seconds()))] = r.PreMean * 100
		}
		return m
	})
	return art, nil
}

// WriteArtifact marshals art to path as indented JSON.
func WriteArtifact(path string, art *Artifact) error {
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

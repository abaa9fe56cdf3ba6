package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	msplayer "repro"
	"repro/internal/fleet"
	"repro/internal/stats"
	"repro/internal/videostore"
)

// repResult is what one child process reports about one rep: one
// workload's scenarios run once through fleet.Run in a fresh process.
type repResult struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// SetupS is child exec to entering the first fleet.Run.
	SetupS float64 `json:"setup_s"`
	// WallS is host seconds inside fleet.Run, summed over the rep's
	// scenarios; Sessions is how many sessions they ran.
	WallS    float64 `json:"wall_s"`
	Sessions int     `json:"sessions"`
	// Mallocs and AllocBytes are runtime.MemStats deltas across WallS.
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// ReportSHA256 is over the rendered report text of every scenario.
	ReportSHA256 string `json:"report_sha256"`
	// Sim holds the simulated end-to-end metrics, Counts the per-layer
	// count metrics read off the reports. Both are exact per seed.
	Sim    map[string]float64 `json:"sim"`
	Counts map[string]float64 `json:"counts"`
	// Samples is how many sessions the pre-buffer percentiles are over.
	Samples int `json:"samples"`
	// DeliveredMB is the bytes delivered to players, Runs the number of
	// fleet.Run calls (scenarios) in the rep.
	DeliveredMB float64 `json:"delivered_mb"`
	Runs        int     `json:"runs"`
	// Runtime readings. GC cycles and pause come from MemStats deltas;
	// the peaks are sampled, so only a traced rep fills them.
	GCCycles       uint32  `json:"gc_cycles"`
	GCPauseMs      float64 `json:"gc_pause_ms"`
	PeakHeapMB     float64 `json:"peak_heap_mb"`
	PeakGoroutines int     `json:"peak_goroutines"`
	// Filled in by the parent from the child's rusage.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	CPUS      float64 `json:"cpu_s"`
}

// childMain runs one rep and writes its repResult as JSON to -out. Any
// correctness violation is an error: the parent turns it into a failed
// run and a non-zero exit.
func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload name")
		seed      = fs.Int64("seed", 1, "workload seed")
		traced    = fs.Bool("trace", false, "take a CPU profile, sample runtime/metrics and write spans")
		sessions  = fs.Int("sessions", 0, "population override, for workloads with a small population")
		execNs    = fs.Int64("exec-ns", 0, "parent's wall clock at exec, unix nanoseconds")
		out       = fs.String("out", "", "result file")
		dir       = fs.String("dir", "", "directory for trace and profile files")
		setupOnly = fs.Bool("setup-only", false, "stop before the first fleet.Run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	tr := newTracer(fmt.Sprintf("%s/seed%d/pid%d", w.name, *seed, os.Getpid()))
	rep := tr.beginAt("rep", nil, time.Unix(0, *execNs))
	setup := tr.beginAt("setup", rep, rep.Start)
	build := tr.begin("scenario.build", setup)
	scs := w.scenarios(*seed, *sessions)
	for i := range scs {
		selectEventLoop(&scs[i])
	}
	build.end()
	setup.end()
	res := repResult{Workload: w.name, Seed: *seed}
	if !*setupOnly {
		var obs *observers
		if *traced {
			obs = &observers{profilePath: filepath.Join(*dir, w.name+".cpu.pb.gz")}
		}
		if res, err = runRep(w, *seed, scs, tr, obs); err != nil {
			return err
		}
	}
	res.SetupS = setup.End.Sub(setup.Start).Seconds()
	rep.end()
	if *traced {
		if err := tr.write(filepath.Join(*dir, w.name+".trace.jsonl")); err != nil {
			return err
		}
	}
	return writeJSON(*out, res)
}

// runRep runs scs, workload w's scenarios for seed, back to back
// through fleet.Run, checks the outputs and summarises them. obs, when
// non-nil, observes the fleet.Run calls (a traced rep).
func runRep(w workload, seed int64, scs []fleet.Scenario, tr *tracer, obs *observers) (repResult, error) {
	res := repResult{Workload: w.name, Seed: seed, Traced: obs != nil,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Runs: len(scs)}
	if obs != nil {
		if err := obs.start(); err != nil {
			return res, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reports := make([]*fleet.Report, len(scs))
	for i, sc := range scs {
		sp := tr.begin("fleet.Run", nil)
		rep, err := fleet.Run(context.Background(), sc)
		sp.end()
		if err != nil {
			return res, fmt.Errorf("%s: fleet.Run: %w", sc.Name, err)
		}
		res.WallS += sp.End.Sub(sp.Start).Seconds()
		reports[i] = rep
	}
	runtime.ReadMemStats(&after)
	if obs != nil {
		if err := obs.stop(&res); err != nil {
			return res, err
		}
	}
	res.Mallocs = after.Mallocs - before.Mallocs
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	res.GCCycles = after.NumGC - before.NumGC
	res.GCPauseMs = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6

	sum := sha256.New()
	for i, rep := range reports {
		sp := tr.begin("report.render", nil)
		text := rep.String()
		sp.end()
		sum.Write([]byte(text))
		sp = tr.begin("invariants", nil)
		err := checkRun(w, &scs[i], rep)
		sp.end()
		if err != nil {
			return res, fmt.Errorf("%s: %w", scs[i].Name, err)
		}
	}
	res.ReportSHA256 = hex.EncodeToString(sum.Sum(nil))
	return res, summarize(w, scs, reports, &res)
}

// observers is what only a traced rep carries: the CPU profile and a
// 10 ms sampler of heap and goroutine peaks.
type observers struct {
	profilePath string

	file                     *os.File
	quit                     chan struct{}
	done                     sync.WaitGroup
	peakHeap, peakGoroutines uint64
}

func (o *observers) start() error {
	f, err := os.Create(o.profilePath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	o.file = f
	o.quit = make(chan struct{})
	o.done.Add(1)
	go func() {
		defer o.done.Done()
		samples := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/sched/goroutines:goroutines"},
		}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			o.peakHeap = max(o.peakHeap, samples[0].Value.Uint64())
			o.peakGoroutines = max(o.peakGoroutines, samples[1].Value.Uint64())
			select {
			case <-o.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return nil
}

// stop ends the sampler, flushes the profile and stores the peaks.
func (o *observers) stop(res *repResult) error {
	close(o.quit)
	o.done.Wait()
	pprof.StopCPUProfile()
	res.PeakHeapMB = float64(o.peakHeap) / (1 << 20)
	res.PeakGoroutines = int(o.peakGoroutines)
	return o.file.Close()
}

// checkRun is the benchmark's output check for one scenario: the
// program's own structural invariants, then every session terminal,
// error-free and delivered up to its goal.
func checkRun(w workload, sc *fleet.Scenario, rep *fleet.Report) error {
	if err := fleet.CheckInvariants(rep); err != nil {
		return err
	}
	goals, err := cohortGoals(sc)
	if err != nil {
		return err
	}
	for ci, cohort := range rep.Results {
		co := &sc.Cohorts[ci]
		for i, r := range cohort {
			if failed(r, co, goals[ci]) && !w.faulty {
				return fmt.Errorf("cohort %q session %d did not complete (err=%v)", co.Name, i, r.Err)
			}
		}
	}
	return nil
}

// cohortGoals is, per cohort, the byte count a full play of its clip
// delivers; pre-buffer-only cohorts are judged on PreBufferDone instead.
func cohortGoals(sc *fleet.Scenario) ([]int64, error) {
	catalog := videostore.DefaultCatalog()
	profile := msplayer.TestbedProfile(sc.Seed)
	if sc.Profile != nil {
		profile = *sc.Profile
	}
	goals := make([]int64, len(sc.Cohorts))
	for ci, co := range sc.Cohorts {
		id, itag := co.Video, co.Itag
		if id == "" {
			id = profile.Video
		}
		if itag == 0 {
			itag = profile.Itag
		}
		v, err := catalog.Get(id)
		if err != nil {
			return nil, err
		}
		f, err := v.Format(itag)
		if err != nil {
			return nil, err
		}
		goals[ci] = v.Size(f)
	}
	return goals, nil
}

// failed reports whether a session errored or ended short of its goal.
func failed(r fleet.SessionResult, co *fleet.Cohort, goal int64) bool {
	if r.Err != nil || r.Metrics == nil {
		return true
	}
	if co.StopAfterPreBuffer {
		return !r.Metrics.PreBufferDone
	}
	return r.Metrics.TotalBytes < goal
}

// summarize folds the rep's reports into the simulated end-to-end
// metrics (over the workload's focus cohort, or every session) and the
// per-layer counts (always over every session).
func summarize(w workload, scs []fleet.Scenario, reports []*fleet.Report, res *repResult) error {
	var (
		prebuffer, goodput        []float64                // focus sessions
		cohortPrebuffer           = map[string][]float64{} // by cohort name
		focusSessions, stalled    int
		focusRequests, timeouts   int
		failedSessions            int
		requests, refills         int
		delivered, wifiBytes      int64
		originBytes, edgeRequests int64
		virtual                   time.Duration
		c                         = map[string]float64{}
	)
	for ri, rep := range reports {
		sc := &scs[ri]
		goals, err := cohortGoals(sc)
		if err != nil {
			return err
		}
		virtual += rep.Elapsed
		for ci, cohort := range rep.Results {
			co := &sc.Cohorts[ci]
			focus := w.focus == "" || w.focus == co.Name
			for _, r := range cohort {
				res.Sessions++
				if failed(r, co, goals[ci]) {
					failedSessions++
				}
				m := r.Metrics
				if m == nil {
					continue
				}
				delivered += m.TotalBytes
				refills += len(m.Refills)
				if m.PreBufferDone {
					cohortPrebuffer[co.Name] = append(cohortPrebuffer[co.Name], m.PreBufferTime.Seconds())
				}
				for _, p := range m.Paths {
					requests += p.Requests
					if p.Network == "wifi" {
						wifiBytes += p.Bytes
					}
					c["core.timeouts"] += float64(p.Timeouts)
					c["core.failovers"] += float64(p.Failovers)
					c["core.rebootstraps"] += float64(p.Rebootstraps)
					c["core.breaker_opens"] += float64(p.BreakerOpens)
					c["core.half_open_probes"] += float64(p.HalfOpenProbes)
					c["core.hedges"] += float64(p.Hedges)
					c["core.hedges_won"] += float64(p.HedgesWon)
					c["core.hedge_wasted_mb"] += float64(p.HedgeWastedBytes) / 1e6
					if focus {
						focusRequests += p.Requests
						timeouts += p.Timeouts
					}
				}
				if !focus {
					continue
				}
				focusSessions++
				if m.PreBufferDone {
					prebuffer = append(prebuffer, m.PreBufferTime.Seconds())
				}
				if len(m.Stalls) > 0 {
					stalled++
				}
				if m.Elapsed > 0 {
					goodput = append(goodput, float64(m.TotalBytes)*8/1e6/m.Elapsed.Seconds())
				}
			}
		}
		for _, l := range rep.Loads {
			c["origin.requests"] += float64(l.Total)
			c["origin.aborted"] += float64(l.Aborted)
			originBytes += l.Bytes
		}
		for ei, e := range rep.Edges {
			edgeRequests += e.Hits + e.Misses
			c["edge.hit_ratio"] += float64(e.Hits) // divided by edgeRequests below
			c["edge.fills"] += float64(e.Fills)
			c["edge.evictions"] += float64(e.Evictions)
			c["edge.backhaul_mb"] += float64(e.BackhaulBytes) / 1e6
			c["edge."+edgeNames[ei]+".hit_ratio"] = e.HitRatio()
			c["edge."+edgeNames[ei]+".fills"] = float64(e.Fills)
			c["edge."+edgeNames[ei]+".evictions"] = float64(e.Evictions)
		}
	}
	n := float64(res.Sessions)
	res.Samples = len(prebuffer)
	res.DeliveredMB = float64(delivered) / 1e6

	var gpSum, gpSumSq float64
	for _, g := range goodput {
		gpSum += g
		gpSumSq += g * g
	}
	res.Sim = map[string]float64{
		"prebuffer_p50_s":      stats.Quantile(prebuffer, 0.50),
		"prebuffer_p99_s":      stats.Quantile(prebuffer, 0.99),
		"stall_free_share":     1 - float64(stalled)/float64(focusSessions),
		"goodput_mbps_mean":    gpSum / float64(len(goodput)),
		"fairness_jain":        gpSum * gpSum / (float64(len(goodput)) * gpSumSq),
		"timely_request_share": 1 - float64(timeouts)/float64(focusRequests),
		"completed_share":      1 - float64(failedSessions)/n,
		"origin_amplification": float64(originBytes) / float64(delivered),
	}
	if len(w.baselines) > 0 {
		best := math.Inf(1)
		for _, name := range w.baselines {
			best = math.Min(best, stats.Quantile(cohortPrebuffer[name], 0.50))
		}
		c[multipathGain.Name] = 100 * (1 - res.Sim["prebuffer_p50_s"]/best)
	}
	c["core.stalled_sessions"] = float64(stalled)
	c["core.failed_sessions"] = float64(failedSessions)
	c["core.requests_per_session"] = float64(requests) / n
	c["core.refills_per_session"] = float64(refills) / n
	c["core.wifi_share"] = float64(wifiBytes) / float64(delivered)
	c["origin.body_mb"] = float64(originBytes) / 1e6
	if edgeRequests > 0 {
		c["edge.hit_ratio"] /= float64(edgeRequests)
	}
	c["fleet.virtual_s"] = virtual.Seconds()
	res.Counts = c
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

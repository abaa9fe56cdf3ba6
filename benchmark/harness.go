package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/stats"
)

// setupSamples is how many set-up-only children a measurement adds to
// its reps' own set-ups. Set-up is a few milliseconds, so one sample is
// mostly exec jitter; the median of twenty-odd is steady, and they cost
// a tenth of a second together.
const setupSamples = 19

// harness runs reps of workloads as child processes of this binary:
// every (workload, rep) gets a fresh process, because a run that
// follows another in one process is up to 45% slower (warm heap, grown
// pools) and no cmd/fleet user ever sees that state.
type harness struct {
	exe    string
	outDir string
	seed   int64
}

func newHarness(seed int64) (*harness, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return nil, err
	}
	return &harness{exe: exe, outDir: "out", seed: seed}, nil
}

// child runs this binary once more with args plus "-out <file>", waits
// for it and decodes the JSON it wrote to that file into result. env is
// appended to this process's environment plus GOGC=400 (what cmd/fleet
// runs with). beforeStart, when non-nil, may append last-instant
// arguments.
func (h *harness) child(result any, env []string, beforeStart func(*exec.Cmd), args ...string) (*os.ProcessState, error) {
	f, err := os.CreateTemp(h.outDir, "child-*.json")
	if err != nil {
		return nil, err
	}
	f.Close()
	defer os.Remove(f.Name())
	cmd := exec.Command(h.exe, append(args, "-out", f.Name())...)
	cmd.Env = append(append(os.Environ(), "GOGC=400"), env...)
	cmd.Stdout = os.Stderr // the parent's stdout carries only results
	cmd.Stderr = os.Stderr
	if beforeStart != nil {
		beforeStart(cmd)
	}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", args[0], err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, result); err != nil {
		return nil, fmt.Errorf("%s child result: %w", args[0], err)
	}
	return cmd.ProcessState, nil
}

// spawn runs one rep of w in a child and returns its result. GOMAXPROCS
// is left at the runtime default unless env sets it.
func (h *harness) spawn(w workload, env []string, args ...string) (repResult, error) {
	var res repResult
	state, err := h.child(&res, env, func(cmd *exec.Cmd) {
		// Stamped as late as possible: set-up time is measured from here.
		cmd.Args = append(cmd.Args, "-exec-ns", strconv.FormatInt(time.Now().UnixNano(), 10))
	}, append([]string{"child", "-workload", w.name, "-seed", strconv.FormatInt(h.seed, 10), "-dir", h.outDir}, args...)...)
	if err != nil {
		return res, fmt.Errorf("%s: %w", w.name, err)
	}
	if ru, ok := state.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		res.CPUS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	return res, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// stat is one reported metric: the median over reps, their range, and
// their spread as a share of the median: the interquartile distance
// from four reps up, the full range below that.
type stat struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Spread float64 `json:"spread"`
	Reps   int     `json:"reps"`
}

// workloadResult is everything measured about one workload.
type workloadResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Correct is false when reps of one seed disagreed on report_sha256.
	Correct      bool   `json:"correct"`
	ReportSHA256 string `json:"report_sha256"`
	// Sessions and Failed count over all untraced reps.
	Sessions int `json:"sessions"`
	Failed   int `json:"failed"`
	// Samples is the session count behind the pre-buffer percentiles.
	Samples    int             `json:"samples"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	EndToEnd   map[string]stat `json:"end_to_end"`
	PerLayer   map[string]stat `json:"per_layer,omitempty"`

	reps []repResult
}

// endToEndValues is one rep's end-to-end metrics by name.
func endToEndValues(r repResult) map[string]float64 {
	n := float64(r.Sessions)
	v := map[string]float64{
		"setup_s":              r.SetupS,
		"sessions_per_s":       n / r.WallS,
		"allocs_per_session":   float64(r.Mallocs) / n,
		"alloc_kb_per_session": float64(r.AllocBytes) / 1e3 / n,
		"peak_rss_mb":          r.PeakRSSMB,
	}
	for k, x := range r.Sim {
		v[k] = x
	}
	return v
}

// measureEndToEnd runs untraced reps of w, each in a fresh process,
// until at least minReps have run and seconds have been spent inside
// fleet.Run, and reports the median of every end-to-end metric.
func (h *harness) measureEndToEnd(w workload, minReps int, seconds float64) (*workloadResult, error) {
	res := &workloadResult{Workload: w.name, Seed: h.seed, Correct: true, EndToEnd: map[string]stat{}}
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		r, err := h.spawn(w, nil, "-setup-only")
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.SetupS)
	}
	var measured float64
	for len(res.reps) < minReps || measured < seconds {
		r, err := h.spawn(w, nil)
		if err != nil {
			return nil, err
		}
		measured += r.WallS
		res.reps = append(res.reps, r)
		setups = append(setups, r.SetupS)
		res.Sessions += r.Sessions
		res.Failed += int(r.Counts["core.failed_sessions"])
		if r.ReportSHA256 != res.reps[0].ReportSHA256 {
			res.Correct = false
		}
	}
	first := res.reps[0]
	res.ReportSHA256, res.Samples, res.GOMAXPROCS = first.ReportSHA256, first.Samples, first.GOMAXPROCS
	byMetric := map[string][]float64{}
	for _, r := range res.reps {
		for k, x := range endToEndValues(r) {
			byMetric[k] = append(byMetric[k], x)
		}
	}
	byMetric["setup_s"] = setups
	for _, d := range endToEnd {
		res.EndToEnd[d.Name] = summarizeReps(byMetric[d.Name], d.Unit)
	}
	return res, nil
}

func summarizeReps(xs []float64, unit string) stat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	st := stat{Value: stats.Median(s), Unit: unit, Min: s[0], Max: s[len(s)-1], Reps: len(s)}
	lo, hi := st.Min, st.Max
	if len(s) >= 4 {
		lo, hi = stats.Quantile(s, 0.25), stats.Quantile(s, 0.75)
	}
	if st.Value != 0 {
		st.Spread = (hi - lo) / st.Value
	}
	return st
}

// measurePerLayer adds the per-layer metrics to res: one traced rep
// (CPU profile bucketed by layer, runtime samples, report counts), the
// probe suite, and the extra reps the derived fleet metrics need. The
// untraced reps already in res are the baseline the traced rep's
// overhead and the one-core rep's speed are taken against.
func (h *harness) measurePerLayer(w workload, res *workloadResult) error {
	base := res.EndToEnd["sessions_per_s"].Value
	tracePath := filepath.Join(h.outDir, w.name+".trace.jsonl")
	if err := os.Remove(tracePath); err != nil && !os.IsNotExist(err) {
		return err
	}
	traced, err := h.spawn(w, nil, "-trace")
	if err != nil {
		return err
	}
	if traced.ReportSHA256 != res.ReportSHA256 {
		res.Correct = false
	}
	samples, err := readProfile(filepath.Join(h.outDir, w.name+".cpu.pb.gz"))
	if err != nil {
		return err
	}
	oneCore, err := h.spawn(w, []string{"GOMAXPROCS=1"})
	if err != nil {
		return err
	}
	if oneCore.ReportSHA256 != res.ReportSHA256 {
		res.Correct = false
	}
	probes, err := h.runProbes(tracePath)
	if err != nil {
		return err
	}

	v := cpuShares(samples)
	for k, x := range probes {
		v[k] = x
	}
	for k, x := range traced.Counts {
		v[k] = x
	}
	v["runtime.gc_cycles"] = float64(traced.GCCycles)
	v["runtime.gc_pause_ms"] = traced.GCPauseMs
	v["runtime.peak_heap_mb"] = traced.PeakHeapMB
	v["runtime.peak_goroutines"] = float64(traced.PeakGoroutines)
	v["fleet.virtual_s_per_wall_s"] = traced.Counts["fleet.virtual_s"] * base / float64(traced.Sessions)
	v["fleet.cores_speedup"] = base / (float64(oneCore.Sessions) / oneCore.WallS)
	if w.smallPopulation > 0 {
		small, err := h.spawn(w, nil, "-sessions", strconv.Itoa(w.smallPopulation))
		if err != nil {
			return err
		}
		v["fleet.session_cost_ratio"] = (1 / base) / (small.WallS / float64(small.Sessions))
	}
	tracedRate := float64(traced.Sessions) / traced.WallS
	v["harness.trace_overhead_pct"] = 100 * (base/tracedRate - 1)
	v["harness.build_s"], _ = strconv.ParseFloat(os.Getenv("MSBENCH_BUILD_S"), 64)
	v["harness.model_coverage"] = modelCoverage(v, traced)

	res.PerLayer = map[string]stat{}
	for _, d := range perLayer {
		x := v[d.Name]
		res.PerLayer[d.Name] = summarizeReps([]float64{x}, d.Unit)
	}
	return nil
}

// modelCoverage is how much of a run's CPU time the probes explain:
// the report's counts times the probes' unit costs, over the CPU
// seconds the traced rep used. Requests are charged their fixed cost
// (req_1k) plus their bytes at the bulk rate (req_1m), sessions one
// client attachment each, scenarios one testbed each.
func modelCoverage(v map[string]float64, traced repResult) float64 {
	if traced.CPUS == 0 {
		return 0
	}
	const mib = 1 << 20
	model := v["origin.requests"]*v["httpx.req_1k_ns"] +
		traced.DeliveredMB*1e6/mib*v["httpx.req_1m_ns_per_mib"] +
		float64(traced.Sessions)*v["testbed.new_client_us"]*1e3 +
		float64(traced.Runs)*v["testbed.new_close_ms"]*1e6
	return model / (traced.CPUS * 1e9)
}

// runProbes runs the probe suite in a fresh child and returns its
// metrics; the child appends one span per probe to tracePath.
func (h *harness) runProbes(tracePath string) (map[string]float64, error) {
	var m map[string]float64
	_, err := h.child(&m, nil, nil, "probes", "-trace", tracePath)
	return m, err
}

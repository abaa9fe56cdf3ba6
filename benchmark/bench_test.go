package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/fleet"
)

// shrunk returns w's scenarios with every cohort cut to n sessions, so
// a test exercises the workload's shape in a fraction of a second.
func shrunk(w workload, seed int64, n int) []fleet.Scenario {
	scs := w.scenarios(seed, 0)
	for i := range scs {
		selectEventLoop(&scs[i])
		for j := range scs[i].Cohorts {
			scs[i].Cohorts[j].Sessions = n
		}
	}
	return scs
}

func runShrunk(t *testing.T, w workload, seed int64, n int) repResult {
	t.Helper()
	res, err := runRep(w, seed, shrunk(w, seed, n), newTracer(t.Name()), nil)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

func TestNamesAndLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check("metric", d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Errorf("end-to-end metrics lack setup_s in s, lower is better")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
}

// TestManifestMatchesTables pins BENCHMARK.json to the metric and
// workload tables it is printed from.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(buildManifest()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want.Bytes()) {
		t.Errorf("BENCHMARK.json differs from `go run . manifest`; regenerate it")
	}
}

func TestEveryEndToEndMetricOnEveryWorkload(t *testing.T) {
	perLayerNames := map[string]bool{}
	for _, d := range perLayer {
		perLayerNames[d.Name] = true
	}
	for _, w := range workloads {
		res := runShrunk(t, w, 1, 12)
		res.SetupS, res.PeakRSSMB = 1, 1 // measured around the child process, not in runRep
		got := endToEndValues(res)
		for _, d := range endToEnd {
			v, ok := got[d.Name]
			if !ok {
				t.Errorf("%s: %s not emitted", w.name, d.Name)
			} else if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a finite non-zero value", w.name, d.Name, v)
			}
		}
		_, gain := res.Counts[multipathGain.Name]
		if want := w.name == "solo_paths"; gain != want {
			t.Errorf("%s: %s emitted = %v, want %v", w.name, multipathGain.Name, gain, want)
		}
		for k := range res.Counts {
			if !perLayerNames[k] {
				t.Errorf("%s: count %s is not a per-layer metric", w.name, k)
			}
		}
	}
}

func TestSeedDecidesReport(t *testing.T) {
	w, err := findWorkload("fault_storm")
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := runShrunk(t, w, 1, 10), runShrunk(t, w, 1, 10), runShrunk(t, w, 2, 10)
	if a.ReportSHA256 != b.ReportSHA256 {
		t.Errorf("same seed, different report_sha256: %s vs %s", a.ReportSHA256, b.ReportSHA256)
	}
	if a.ReportSHA256 == c.ReportSHA256 {
		t.Errorf("seeds 1 and 2 rendered the same report")
	}
	if !reflect.DeepEqual(a.Sim, b.Sim) || !reflect.DeepEqual(a.Counts, b.Counts) {
		t.Errorf("same seed, different simulated metrics or counts")
	}
}

func TestStormTimelineIsPure(t *testing.T) {
	a, b := stormTimeline(7, 3), stormTimeline(7, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("stormTimeline(7, 3) differs between calls")
	}
	if len(a) != len(stormKinds) {
		t.Fatalf("%d faults, want one of each of the %d kinds", len(a), len(stormKinds))
	}
	if reflect.DeepEqual(a, stormTimeline(8, 3)) || reflect.DeepEqual(a, stormTimeline(7, 4)) {
		t.Errorf("timeline does not depend on both seed and storm")
	}
	for seed := int64(1); seed <= 50; seed++ {
		for storm := 0; storm < storms; storm++ {
			kinds, slots := map[string]bool{}, map[time.Duration]bool{}
			for k, f := range stormTimeline(seed, storm) {
				kinds[f.Kind] = true
				slots[(f.At-stormFirst)/stormSlot] = true
				if f.At < stormFirst || f.At >= stormFirst+time.Duration(len(stormKinds))*stormSlot || f.Duration <= 0 {
					t.Fatalf("seed %d storm %d: fault %d %+v starts outside the onset slots", seed, storm, k, f)
				}
				if f.Kind == fleet.FaultLossStorm {
					if f.Factor <= 0 || f.Factor > 1 {
						t.Fatalf("seed %d storm %d: loss probability %v", seed, storm, f.Factor)
					}
				} else if f.Replica < 1 || f.Replica > 2 {
					t.Fatalf("seed %d storm %d: replica %d", seed, storm, f.Replica)
				}
			}
			if len(kinds) != len(stormKinds) || len(slots) != len(stormKinds) {
				t.Fatalf("seed %d storm %d: %d kinds in %d slots, want %d of each", seed, storm, len(kinds), len(slots), len(stormKinds))
			}
		}
	}
}

func TestBucket(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string
		want  string
	}{
		{"innermost repo frame wins", []string{
			"runtime.memmove", "repro/internal/netem.(*direction).pushSegmentLocked",
			"repro/internal/httpx.(*eventConn).pumpResponse", "repro/internal/netem.(*Clock).tryAdvance"}, "netem.cpu_share"},
		{"subpackage before parent", []string{
			"math/rand.seedrand", "repro/internal/netem/trace.Lognormal.func1",
			"repro/internal/netem.(*direction).ssRate"}, "trace.cpu_share"},
		{"inlined trace closure in root package", []string{
			"math/rand.(*rngSource).Seed", "repro.(*Testbed).makeInterface.func1.Lognormal.2",
			"repro/internal/netem.(*LinkParams).rateAt"}, "trace.cpu_share"},
		{"root package is testbed", []string{
			"runtime.mallocgc", "repro.(*Testbed).NewClient", "repro/internal/fleet.(*eventedRun).arm.func2"}, "testbed.cpu_share"},
		{"type arguments do not confuse the package", []string{
			"repro/internal/netem.(*ring[go.shape.struct { repro/internal/netem.data []uint8 }]).push"}, "netem.cpu_share"},
		{"estimator belongs to core", []string{"repro/internal/core/estimator.(*Harmonic).Observe"}, "core.cpu_share"},
		{"handshake belongs to httpx", []string{"repro/internal/handshake.Script"}, "httpx.cpu_share"},
		{"benchmark's own frames", []string{"crypto/sha256.block", "main.runRep", "main.main"}, "harness.cpu_share"},
		{"GC-only stack", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime.gc_share"},
		{"sweeper", []string{"runtime.(*sweepLocked).sweep", "runtime.bgsweep"}, "runtime.gc_share"},
		{"scheduler", []string{"runtime.futex", "runtime.notesleep", "runtime.findRunnable", "runtime.schedule"}, "runtime.sched_share"},
		{"GC assist inside a layer stays with the layer", []string{
			"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/httpx.(*evReq).parseHead"}, "httpx.cpu_share"},
	} {
		if got := bucket(tc.stack); got != tc.want {
			t.Errorf("%s: bucket = %q, want %q", tc.name, got, tc.want)
		}
	}
	shares := cpuShares([]profSample{
		{stack: []string{"repro/internal/netem.(*Loop).Do"}, value: 30},
		{stack: []string{"runtime.gcDrain"}, value: 10},
	})
	if shares["netem.cpu_share"] != 0.75 || shares["runtime.gc_share"] != 0.25 {
		t.Errorf("shares = %v, want netem 0.75 and gc 0.25", shares)
	}
}

// TestReadProfile decodes a real CPU profile of this test spinning.
func TestReadProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pb.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.value
		for _, fn := range s.stack {
			if fn == "repro/benchmark.spin" || fn == "main.spin" {
				inSpin += s.value
				break
			}
		}
	}
	if total < int64(100*time.Millisecond) {
		t.Fatalf("profile holds %v of CPU time, want at least 100ms", time.Duration(total))
	}
	// Race instrumentation hides the caller of most leaf frames, so the
	// test asks only that some stacks resolve down to spin by name.
	if inSpin == 0 {
		t.Errorf("no sample of %v names spin in its stack", time.Duration(total))
	}
}

var spinSink uint64

func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		for i := uint64(0); i < 1<<16; i++ {
			spinSink = splitmix(spinSink, i)
		}
	}
}

func TestJudge(t *testing.T) {
	host := metricDef{Name: "sessions_per_s", Better: "higher", sameSeed: 0.08}
	sim := metricDef{Name: "prebuffer_p50_s", Better: "lower"}
	setup := metricDef{Name: "setup_s", Better: "lower", sameSeed: 0.10, floor: 0.050}
	st := func(v, min, max float64) stat { return stat{Value: v, Min: min, Max: max, Spread: (max - min) / v} }
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b stat
		want string
	}{
		{"within bound", host, st(1000, 990, 1010), st(960, 950, 970), "ok"},
		{"beyond bound", host, st(1000, 990, 1010), st(900, 890, 910), "FAIL: regression beyond bound"},
		{"noisy reps", host, st(1000, 900, 1100), st(990, 980, 1000), "unresolved"},
		{"noisy but every rep better", host, st(1000, 900, 1050), st(1200, 1100, 1300), "ok"},
		{"small metric under its floor", setup, st(0.003, 0.003, 0.003), st(0.004, 0.004, 0.004), "ok"},
		{"small metric past its floor", setup, st(0.003, 0.003, 0.003), st(0.060, 0.060, 0.060), "FAIL: regression beyond bound"},
		{"simulated equal", sim, st(2.5, 2.5, 2.5), st(2.5, 2.5, 2.5), "ok"},
		{"simulated differs", sim, st(2.5, 2.5, 2.5), st(2.4, 2.4, 2.4), "FAIL: model change (simulated metric differs at equal seed)"},
	} {
		if got := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: judge = %q, want %q", tc.name, got, tc.want)
		}
	}
}

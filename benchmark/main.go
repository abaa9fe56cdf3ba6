// Command benchmark is the repository's benchmark: five fleet workloads
// run through fleet.Run on the event-loop engine, every (workload, rep)
// in a fresh child process, reporting end-to-end metrics from untraced
// reps and per-layer metrics from one traced rep plus a probe suite.
// See README.md for the metric and workload definitions.
//
// Usage (from this directory; run.sh builds and forwards its arguments):
//
//	go run .                         # whole suite, writes out/results.json
//	go run . -seed 2                 # same on another seed
//	go run . --workload bulk_play --seed 1 --seconds 12 --trace 0
//	                                 # one driver run; last line is the result
//	go run . compare a.json b.json   # per-(metric, workload) delta against bounds
//	go run . manifest                # print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "child":
			return childMain(args[1:])
		case "probes":
			return probesMain(args[1:])
		case "compare":
			return compareMain(args[1:])
		case "manifest":
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(buildManifest())
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run this one workload and print a driver result line (default: the whole suite)")
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", runSeconds, "with -workload: start reps until this long has been spent inside fleet.Run (two reps at least)")
		trace   = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	h, err := newHarness(*seed)
	if err != nil {
		return err
	}
	if *name == "" {
		return h.suite()
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	return h.driverRun(w, *seconds, *trace == 1)
}

// driverResult is the one JSON object a driver run prints last.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun is one run under the driver's contract: end-to-end metrics
// from untraced reps with trace off; with trace on, one untraced rep as
// the baseline, then the traced rep, the one-core rep and the probes.
func (h *harness) driverRun(w workload, seconds float64, traced bool) error {
	minReps := 2
	if traced {
		minReps, seconds = 1, 0
	}
	res, err := h.measureEndToEnd(w, minReps, seconds)
	if err != nil {
		return err
	}
	reported := res.EndToEnd
	if traced {
		if err := h.measurePerLayer(w, res); err != nil {
			return err
		}
		reported = res.PerLayer
	}
	out := driverResult{Correct: res.Correct, Attempted: res.Sessions, Failed: res.Failed, Metrics: map[string]driverValue{}}
	for k, s := range reported {
		out.Metrics[k] = driverValue{Value: s.Value, Unit: s.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: report_sha256 differs between reps of seed %d", w.name, h.seed)
	}
	return nil
}

// results is out/results.json: what `compare` reads.
type results struct {
	Machine   machine           `json:"machine"`
	Workloads []*workloadResult `json:"workloads"`
}

// machine records what the numbers were taken on.
type machine struct {
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	Seed       int64  `json:"seed"`
}

// suite runs every workload: three untraced reps, then the traced rep,
// the probes and the derived runs. It prints every metric by name and
// unit and writes out/results.json.
func (h *harness) suite() error {
	all := results{Machine: machine{
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       400,
		Seed:       h.seed,
	}}
	failed := false
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "running %s...\n", w.name)
		res, err := h.measureEndToEnd(w, 3, 0)
		if err != nil {
			return err
		}
		if err := h.measurePerLayer(w, res); err != nil {
			return err
		}
		all.Workloads = append(all.Workloads, res)
		printWorkload(res)
		if !res.Correct {
			failed = true
			fmt.Printf("  FAIL: report_sha256 differs between reps\n")
		}
	}
	if err := writeJSON(filepath.Join(h.outDir, "results.json"), all); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("outputs differ between reps of one seed")
	}
	return nil
}

func printWorkload(res *workloadResult) {
	fmt.Printf("\n== %s  seed=%d gomaxprocs=%d sessions/rep=%d failed=%d prebuffer-samples=%d\n",
		res.Workload, res.Seed, res.GOMAXPROCS, res.Sessions/len(res.reps), res.Failed, res.Samples)
	fmt.Printf("   report_sha256 %s\n", res.ReportSHA256)
	fmt.Printf(" end to end (median of %d reps, min..max)\n", len(res.reps))
	for _, d := range endToEnd {
		s := res.EndToEnd[d.Name]
		fmt.Printf("  %-34s %14.6g %-10s [%.6g .. %.6g] n=%d\n", d.Name, s.Value, s.Unit, s.Min, s.Max, s.Reps)
	}
	fmt.Printf(" per layer (traced rep, probes, report counts)\n")
	for _, d := range perLayer {
		fmt.Printf("  %-34s %14.6g %s\n", d.Name, res.PerLayer[d.Name].Value, d.Unit)
	}
}

package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
)

// Guard re-runs the fleet experiments recorded in a committed
// BENCH_fleet.json baseline (at the baseline's own session counts) and
// fails when any experiment's headline wall time regresses beyond
// maxFactor (e.g. 1.25 = +25%). Each experiment runs reps times and the
// fastest repetition is compared, filtering out one-off scheduler and
// GC noise; the guard measures wall time only — metric drift is the
// determinism tests' job.
func Guard(w io.Writer, baselinePath string, maxFactor float64, opt Options) error {
	// Deliberately not opt.withDefaults(): the experiment suite's
	// 20-rep default would turn the CI gate into a multi-minute run;
	// two reps suffice for a best-of wall measurement.
	reps := opt.Reps
	if reps <= 0 {
		reps = 2
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("bench: reading baseline: %w", err)
	}
	var base Artifact
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("bench: parsing baseline %s: %w", baselinePath, err)
	}
	if base.Kind != "fleet" {
		return fmt.Errorf("bench: baseline %s has kind %q, want \"fleet\"", baselinePath, base.Kind)
	}
	// Wall seconds only transfer between matching environments: a
	// baseline from a different machine class or toolchain makes the
	// factor comparison noise. Warn loudly instead of silently
	// comparing, so a guard trip (or pass) on a mismatched runner is
	// read with the right scepticism.
	if base.GoVersion != runtime.Version() {
		fmt.Fprintf(w, "  WARNING: baseline was recorded with %s, running %s — wall-time comparison is unreliable\n",
			base.GoVersion, runtime.Version())
	}
	if base.NumCPU != runtime.NumCPU() {
		fmt.Fprintf(w, "  WARNING: baseline was recorded on %d CPUs, running on %d — wall-time comparison is unreliable\n",
			base.NumCPU, runtime.NumCPU())
	}
	if base.GoMaxProcs != 0 && base.GoMaxProcs != runtime.GOMAXPROCS(0) {
		fmt.Fprintf(w, "  WARNING: baseline was recorded at GOMAXPROCS=%d, running at %d — wall-time comparison is unreliable\n",
			base.GoMaxProcs, runtime.GOMAXPROCS(0))
	}
	var failures []string
	for _, exp := range base.Experiments {
		scenario, sessions, err := parseExperimentName(exp.Name)
		if err != nil {
			return err
		}
		sc, err := fleet.Builtin(scenario, sessions, base.Seed)
		if err != nil {
			return err
		}
		// Mega-scale experiments get one repetition: a 20k-session run
		// is long enough that best-of-N would turn the CI gate into a
		// multi-minute step, and proportionally far less noisy than the
		// small runs best-of filtering exists for.
		expReps := reps
		if sessions >= 10000 {
			expReps = 1
		}
		best := time.Duration(0)
		for r := 0; r < expReps; r++ {
			// Attributable wall times, matching FleetArtifact: free the
			// previous run's garbage so a mega-scale predecessor's
			// retained RSS cannot page-thrash this measurement.
			debug.FreeOSMemory()
			start := time.Now() //detlint:allow wallclock -- guard times the benchmark run in real wall time
			if _, err := fleet.Run(context.Background(), sc); err != nil {
				return fmt.Errorf("bench: %s: %w", exp.Name, err)
			}
			if wall := time.Since(start); r == 0 || wall < best { //detlint:allow wallclock -- guard times the benchmark run in real wall time
				best = wall
			}
		}
		limit := exp.WallSecs * maxFactor
		status := "ok"
		if best.Seconds() > limit {
			status = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%s: wall %.2fs > limit %.2fs (baseline %.2fs × %.2f)",
				exp.Name, best.Seconds(), limit, exp.WallSecs, maxFactor))
		}
		fmt.Fprintf(w, "  %-18s wall=%6.2fs baseline=%6.2fs limit=%6.2fs  %s\n",
			exp.Name, best.Seconds(), exp.WallSecs, limit, status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench: wall-time regression vs %s:\n  %s",
			baselinePath, strings.Join(failures, "\n  "))
	}
	return nil
}

// parseExperimentName splits a fleet experiment name like
// "flashcrowd_200" into its scenario and session count.
func parseExperimentName(name string) (scenario string, sessions int, err error) {
	i := strings.LastIndexByte(name, '_')
	if i < 0 {
		return "", 0, fmt.Errorf("bench: experiment name %q is not <scenario>_<sessions>", name)
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return "", 0, fmt.Errorf("bench: experiment name %q has no session count", name)
	}
	return name[:i], n, nil
}

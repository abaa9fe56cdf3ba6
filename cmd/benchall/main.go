// Command benchall regenerates every figure and table of the MSPlayer
// paper's evaluation on the emulated testbed and prints paper-style
// rows.
//
// Usage:
//
//	benchall                  # run everything with default repetitions
//	benchall -fig 3 -reps 20  # one experiment, custom repetition count
//	benchall -table 1
//	benchall -ablation        # delta/alpha/out-of-order/head-start sweeps
//	benchall -mobility        # WiFi-outage robustness experiment
//
// Performance is measured by benchmark/ (bash benchmark/run.sh); the
// figures' values at seed 1, 3 reps are pinned in
// internal/bench/testdata/figures.golden.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "run only figure N (1, 2, 3, 4 or 5)")
		table    = flag.Int("table", 0, "run only table N (1)")
		ablation = flag.Bool("ablation", false, "run the ablation sweeps")
		mobility = flag.Bool("mobility", false, "run the WiFi-outage robustness experiment")
		reps     = flag.Int("reps", 0, "repetitions per configuration (default: per-experiment)")
		seed     = flag.Int64("seed", 1, "base random seed")
		parallel = flag.Int("parallel", 0, "concurrent testbeds (default min(4, NumCPU))")
	)
	flag.Parse()

	opt := bench.Options{Reps: *reps, Seed: *seed, Parallel: *parallel}
	w := os.Stdout
	start := time.Now() //detlint:allow wallclock -- benchall reports wall-clock run time by design

	// Default repetition counts chosen so a full run finishes in
	// reasonable wall time; pass -reps 20 to match the paper exactly.
	withReps := func(def int) bench.Options {
		o := opt
		if o.Reps == 0 {
			o.Reps = def
		}
		return o
	}

	all := *fig == 0 && *table == 0 && !*ablation && !*mobility
	if all || *fig == 1 {
		bench.Fig1(w, withReps(3))
	}
	if all || *fig == 2 {
		bench.Fig2(w, withReps(10))
	}
	if all || *fig == 3 {
		bench.Fig3(w, withReps(5))
	}
	if all || *fig == 4 {
		bench.Fig4(w, withReps(10))
	}
	if all || *fig == 5 {
		bench.Fig5(w, withReps(4))
	}
	if all || *table == 1 {
		bench.Table1(w, withReps(6))
	}
	if all || *mobility {
		bench.Mobility(w, withReps(3))
	}
	if all || *ablation {
		bench.AblationDelta(w, withReps(5))
		bench.AblationAlpha(w, withReps(5))
		bench.AblationOutOfOrder(w, withReps(5))
		bench.AblationHeadStart(w, withReps(5))
		bench.AblationEnergy(w, withReps(5))
	}
	fmt.Fprintf(w, "\ncompleted in %v (wall time)\n", time.Since(start).Round(time.Second)) //detlint:allow wallclock -- benchall reports wall-clock run time by design
}

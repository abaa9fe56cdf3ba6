// Command fleet runs a scenario-driven multi-session simulation: N
// concurrent MSPlayer sessions, organised into cohorts, against one
// emulated origin cluster in one virtual-time world, reporting cohort-
// and fleet-level QoE (pre-buffer percentiles, stall rate, re-buffer
// cycles, traffic split, Jain fairness). Runs are deterministic per
// seed: the same scenario and seed print a byte-identical report.
//
// Usage:
//
//	fleet -list
//	fleet -scenario flashcrowd -sessions 200 -seed 1
//	fleet -scenario densecrowd -sessions 2000
//	fleet -scenario megacrowd           # 20k light sessions, the scale proof
//	fleet -scenario wifiwave -sessions 60
//	fleet -scenario coldedge -sessions 200  # edge caches: single-flight vs stampede
//	fleet -scenario edgemesh -sessions 80   # four tight edges, LRU vs LFU
//	fleet -scenario flashcrowd -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"

	"repro/internal/fleet"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, runs the scenario and writes its report to w. A
// report that breaks an invariant is written, then returned as an
// error beside it.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	var (
		name       = fs.String("scenario", "flashcrowd", "built-in scenario name (see -list)")
		sessions   = fs.Int("sessions", 0, "total session count (0 = scenario default)")
		seed       = fs.Int64("seed", 1, "scenario seed; all randomness derives from it")
		list       = fs.Bool("list", false, "list built-in scenarios and exit")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile (taken after the run) to this file")
		gogc       = fs.Int("gogc", 400, "GC target percentage; fleet runs churn pooled buffers, so a higher target than Go's default 100 trades heap for fewer collection cycles")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, n := range fleet.BuiltinNames() {
			sc, _ := fleet.Builtin(n, 0, 1)
			fmt.Fprintf(w, "  %-12s %s (default %d sessions)\n", n, sc.Description, sc.TotalSessions())
		}
		return nil
	}
	if *gogc > 0 {
		debug.SetGCPercent(*gogc)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		// Deferred, so a failing run — exactly the one worth
		// profiling — still leaves a readable profile.
		defer pprof.StopCPUProfile()
	}

	sc, err := fleet.Builtin(*name, *sessions, *seed)
	if err != nil {
		return err
	}
	report, err := fleet.Run(context.Background(), sc)
	if report != nil {
		fmt.Fprint(w, report)
	}
	if err != nil {
		return err
	}
	pprof.StopCPUProfile()

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	return nil
}

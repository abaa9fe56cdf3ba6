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
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"

	"repro/internal/fleet"
)

func main() {
	var (
		name       = flag.String("scenario", "flashcrowd", "built-in scenario name (see -list)")
		sessions   = flag.Int("sessions", 0, "total session count (0 = scenario default)")
		seed       = flag.Int64("seed", 1, "scenario seed; all randomness derives from it")
		list       = flag.Bool("list", false, "list built-in scenarios and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
		gogc       = flag.Int("gogc", 400, "GC target percentage; fleet runs churn pooled buffers, so a higher target than Go's default 100 trades heap for fewer collection cycles")
	)
	flag.Parse()

	if *list {
		for _, n := range fleet.BuiltinNames() {
			sc, _ := fleet.Builtin(n, 0, 1)
			fmt.Printf("  %-12s %s (default %d sessions)\n", n, sc.Description, sc.TotalSessions())
		}
		return
	}
	if *gogc > 0 {
		debug.SetGCPercent(*gogc)
	}
	// log.Fatal / os.Exit skip deferred functions, which would leave an
	// unflushed (unreadable) CPU profile behind — and a failing run is
	// exactly the one worth profiling. Flush explicitly before every
	// exit path instead of deferring.
	stopProfile := func() {}
	fail := func(format string, args ...any) {
		stopProfile()
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		os.Exit(1)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("fleet: -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			log.Fatalf("fleet: -cpuprofile: %v", err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}

	sc, err := fleet.Builtin(*name, *sessions, *seed)
	if err != nil {
		fail("fleet: %v", err)
	}
	report, err := fleet.Run(context.Background(), sc)
	if err != nil {
		fail("fleet: %v", err)
	}
	fmt.Print(report)
	if err := fleet.CheckInvariants(report); err != nil {
		fail("fleet: invariants violated: %v", err)
	}
	stopProfile()

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("fleet: -memprofile: %v", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("fleet: -memprofile: %v", err)
		}
	}
}

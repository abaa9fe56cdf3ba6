// Schedulers: compare the three MSPlayer chunk schedulers (Ratio
// baseline, EWMA, Harmonic) under oscillating LTE bandwidth — the
// conditions where dynamic chunk-size adjustment pays off.
//
//	go run ./examples/schedulers
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, _ []string) error {
	const reps = 5
	fmt.Fprintln(w, "40s pre-buffer under oscillating LTE bandwidth (5 runs each):")
	for _, name := range []string{"ratio", "ewma", "harmonic"} {
		var xs []float64
		for rep := 0; rep < reps; rep++ {
			x, err := runOnce(name, int64(rep))
			if err != nil {
				return err
			}
			xs = append(xs, x)
		}
		s := stats.Summarize(xs)
		fmt.Fprintf(w, "  %-9s median %5.2fs  (min %5.2fs  max %5.2fs  std %4.2fs)\n",
			name, s.Median, s.Min, s.Max, s.Std)
	}
	fmt.Fprintln(w, "\nthe dynamic schedulers shrink the slow path's chunks when its")
	fmt.Fprintln(w, "bandwidth dips, so both transfers keep finishing together; the")
	fmt.Fprintln(w, "Ratio baseline reacts to single samples and swings wildly.")
	return nil
}

func runOnce(scheduler string, seed int64) (float64, error) {
	p := msplayer.TestbedProfile(seed*17 + 5)
	// Strong oscillation on LTE: ±60% swings every few seconds.
	p.LTE.Sigma = 0.6
	p.LTE.VaryEvery = 2 * time.Second
	tb, err := msplayer.NewTestbed(p)
	if err != nil {
		return 0, err
	}
	defer tb.Close()

	var sched msplayer.Scheduler
	switch scheduler {
	case "ratio":
		sched = msplayer.NewRatioScheduler(msplayer.DefaultBaseChunk)
	case "ewma":
		sched = msplayer.NewEWMAScheduler(msplayer.DefaultBaseChunk, msplayer.DefaultDelta, msplayer.DefaultAlpha)
	case "harmonic":
		sched = msplayer.NewHarmonicScheduler(msplayer.DefaultBaseChunk, msplayer.DefaultDelta)
	}
	m, err := tb.Stream(context.Background(), msplayer.SessionConfig{
		Scheduler:          sched,
		Paths:              msplayer.BothPaths,
		StopAfterPreBuffer: true,
	})
	if err != nil {
		return 0, err
	}
	return m.PreBufferTime.Seconds(), nil
}

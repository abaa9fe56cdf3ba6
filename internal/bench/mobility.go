package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro"
	"repro/internal/stats"
)

// MobilityResult summarises the robustness experiment (§2 "Robust Data
// Transport", unreported in the paper): a WiFi outage mid-stream with
// MSPlayer versus a single-path WiFi player.
type MobilityResult struct {
	Label          string
	Completed      int // runs that delivered the whole clip
	Runs           int
	MeanStallSecs  float64
	TotalStallSecs []float64
}

// Mobility streams a full clip while WiFi drops out for a fixed window
// and returns stall statistics for MSPlayer and the WiFi-only baseline.
func Mobility(w io.Writer, opt Options) []MobilityResult {
	opt = opt.withDefaults()
	header(w, "Robustness: 45s WiFi outage during playback (MSPlayer vs single-path WiFi)")
	configs := []struct {
		label string
		sel   msplayer.PathSelection
	}{
		{"MSPlayer", msplayer.BothPaths},
		{"WiFi-only", msplayer.WiFiOnly},
	}
	var out []MobilityResult
	for _, c := range configs {
		c := c
		res := MobilityResult{Label: c.label, Runs: opt.Reps}
		type one struct {
			stall float64
			done  bool
		}
		results := make([]one, opt.Reps)
		for rep := 0; rep < opt.Reps; rep++ {
			stall, done, err := mobilityRun(opt.Seed+int64(rep)*13, c.sel)
			if err != nil {
				fmt.Fprintf(w, "  ! rep %d failed: %v\n", rep, err)
				continue
			}
			results[rep] = one{stall, done}
		}
		for _, r := range results {
			if r.done {
				res.Completed++
			}
			res.TotalStallSecs = append(res.TotalStallSecs, r.stall)
		}
		res.MeanStallSecs = stats.Mean(res.TotalStallSecs)
		fmt.Fprintf(w, "  %-10s completed %d/%d runs, mean stall %.1fs\n",
			res.Label, res.Completed, res.Runs, res.MeanStallSecs)
		out = append(out, res)
	}
	return out
}

func mobilityRun(seed int64, sel msplayer.PathSelection) (stallSecs float64, completed bool, err error) {
	p := msplayer.TestbedProfile(seed)
	tb, err := msplayer.NewTestbed(p)
	if err != nil {
		return 0, false, err
	}
	defer tb.Close()

	// WiFi drops 30 s into the session and returns 45 s later.
	tb.At(30*time.Second, func() { tb.WiFi().SetAlive(false) })
	tb.At(75*time.Second, func() { tb.WiFi().SetAlive(true) })

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	m, err := tb.Stream(ctx, msplayer.SessionConfig{
		Scheduler: msplayer.NewHarmonicScheduler(256<<10, msplayer.DefaultDelta),
		Paths:     sel,
		Video:     "qjT4T2gU9sM",
	})
	if m == nil {
		return 0, false, err
	}
	var stall time.Duration
	for _, s := range m.Stalls {
		stall += s.Duration
	}
	return stall.Seconds(), err == nil && m.TotalBytes > 0 && m.PreBufferDone, nil
}

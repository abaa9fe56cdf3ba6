// Mobility: the robustness story of the paper's §2 — a user walks out
// of WiFi range mid-stream. MSPlayer keeps playing over LTE while the
// single-path WiFi player stalls until connectivity returns.
//
//	go run ./examples/mobility
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, _ []string) error {
	fmt.Fprintln(w, "50s WiFi outage during a 5-minute stream:")
	if err := stream(w, "MSPlayer", msplayer.BothPaths); err != nil {
		return err
	}
	return stream(w, "WiFi-only", msplayer.WiFiOnly)
}

func stream(w io.Writer, label string, sel msplayer.PathSelection) error {
	tb, err := msplayer.NewTestbed(msplayer.TestbedProfile(3))
	if err != nil {
		return err
	}
	defer tb.Close()

	// 60 s into the session, WiFi disappears for 50 s: long enough to
	// drain a full playout buffer. Testbed.At makes the outage land at a
	// deterministic virtual instant.
	tb.At(60*time.Second, func() { tb.WiFi().SetAlive(false) })
	tb.At(110*time.Second, func() { tb.WiFi().SetAlive(true) })

	m, err := tb.Stream(context.Background(), msplayer.SessionConfig{
		Scheduler: msplayer.NewHarmonicScheduler(msplayer.DefaultBaseChunk, msplayer.DefaultDelta),
		Paths:     sel,
	})
	if err != nil {
		fmt.Fprintf(w, "%-10s stream error: %v\n", label, err)
		return nil
	}
	var stall time.Duration
	for _, s := range m.Stalls {
		stall += s.Duration
	}
	fmt.Fprintf(w, "%-10s delivered %5.1f MB, %d stall(s) totalling %5.1fs",
		label, float64(m.TotalBytes)/1e6, len(m.Stalls), stall.Seconds())
	if wifi := m.Paths[0]; wifi.Failures > 0 || wifi.Rebootstraps > 0 {
		fmt.Fprintf(w, "  (wifi: %d failed requests, %d re-bootstraps)", wifi.Failures, wifi.Rebootstraps)
	}
	fmt.Fprintln(w)
	return nil
}

// Quickstart: stream one HD video with MSPlayer over an emulated
// WiFi+LTE testbed and print the start-up metrics.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"repro"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, _ []string) error {
	// A testbed is a fully emulated environment: two access networks
	// (WiFi ~9.5 Mb/s / 25 ms RTT, LTE ~8 Mb/s / 70 ms RTT) and a
	// YouTube-like origin with two video-server replicas per network.
	// It runs in virtual time: emulated seconds cost milliseconds.
	tb, err := msplayer.NewTestbed(msplayer.TestbedProfile(1))
	if err != nil {
		return err
	}
	defer tb.Close()

	// Stream with MSPlayer's default configuration: the Harmonic
	// dynamic chunk scheduler (Alg. 1 with the Eq. 2 harmonic-mean
	// estimator), 256 KB initial chunks, both paths.
	m, err := tb.Stream(context.Background(), msplayer.SessionConfig{
		Scheduler:          msplayer.NewHarmonicScheduler(msplayer.DefaultBaseChunk, msplayer.DefaultDelta),
		Paths:              msplayer.BothPaths,
		StopAfterPreBuffer: true, // measure start-up latency only
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "pre-buffered 40s of 720p video in %.2fs\n", m.PreBufferTime.Seconds())
	for _, p := range m.Paths {
		fmt.Fprintf(w, "  %-4s fetched %5.1f MB in %d chunks, first video byte after %.2fs\n",
			p.Network, float64(p.Bytes)/1e6, p.Chunks, p.FirstVideoByte.Seconds())
	}
	fmt.Fprintf(w, "  wifi carried %.0f%% of pre-buffering traffic\n",
		m.Share("wifi", msplayer.PhasePreBuffer)*100)
	return nil
}

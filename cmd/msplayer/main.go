// Command msplayer streams a video over the emulated two-path testbed
// and prints QoE metrics, exercising the full MSPlayer pipeline:
// per-network JSON bootstrap, multi-source chunk scheduling, ON/OFF
// playout buffering, and failover.
//
// Usage:
//
//	msplayer                          # defaults: harmonic, 256KB, both paths
//	msplayer -scheduler ratio -chunk 1048576
//	msplayer -paths wifi              # single-path baseline
//	msplayer -profile youtube -prebuffer 60s
//	msplayer -outage 30s              # drop WiFi mid-stream for 30s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro"
	"repro/internal/bench"
)

func main() {
	var (
		schedName = flag.String("scheduler", "harmonic", "chunk scheduler: harmonic, ewma, ratio, fixed, bulk")
		chunk     = flag.Int64("chunk", 256<<10, "initial (or fixed) chunk size in bytes")
		pathsFlag = flag.String("paths", "both", "paths to use: both, wifi, lte")
		profile   = flag.String("profile", "testbed", "environment: testbed or youtube")
		video     = flag.String("video", "qjT4T2gU9sM", "video ID from the built-in catalog")
		prebuffer = flag.Duration("prebuffer", 40*time.Second, "pre-buffering target")
		refill    = flag.Duration("refill", 10*time.Second, "refill size per re-buffering cycle")
		outage    = flag.Duration("outage", 0, "drop WiFi for this long, 30s into the stream")
		seed      = flag.Int64("seed", 1, "random seed")
		preOnly   = flag.Bool("pre-only", false, "stop after the pre-buffering phase")
	)
	flag.Parse()

	var prof msplayer.Profile
	switch *profile {
	case "testbed":
		prof = msplayer.TestbedProfile(*seed)
	case "youtube":
		prof = msplayer.YouTubeProfile(*seed)
	default:
		log.Fatalf("unknown profile %q", *profile)
	}
	tb, err := msplayer.NewTestbed(prof)
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()

	var sched msplayer.Scheduler
	switch *schedName {
	case "harmonic", "ewma", "ratio":
		sched = bench.NewSchedulerByName(*schedName, *chunk)
	case "fixed":
		sched = msplayer.NewFixedScheduler(*chunk)
	case "bulk":
		sched = msplayer.NewBulkScheduler()
	default:
		log.Fatalf("unknown scheduler %q", *schedName)
	}

	var sel msplayer.PathSelection
	switch *pathsFlag {
	case "both":
		sel = msplayer.BothPaths
	case "wifi":
		sel = msplayer.WiFiOnly
	case "lte":
		sel = msplayer.LTEOnly
	default:
		log.Fatalf("unknown path selection %q", *pathsFlag)
	}

	if *outage > 0 {
		tb.At(30*time.Second, func() {
			fmt.Println("-- WiFi interface down")
			tb.WiFi().SetAlive(false)
		})
		tb.At(30*time.Second+*outage, func() {
			fmt.Println("-- WiFi interface back up")
			tb.WiFi().SetAlive(true)
		})
	}

	fmt.Printf("streaming %s (%s scheduler, %s paths, %s profile)\n",
		*video, *schedName, *pathsFlag, *profile)
	m, err := tb.Stream(context.Background(), msplayer.SessionConfig{
		Scheduler:          sched,
		Paths:              sel,
		Video:              *video,
		Buffer:             msplayer.BufferConfig{PreBufferTarget: *prebuffer, RefillSize: *refill},
		StopAfterPreBuffer: *preOnly,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "stream error: %v\n", err)
	}
	if m == nil {
		os.Exit(1)
	}

	fmt.Printf("\nsession summary (%s scheduler)\n", m.Scheduler)
	if m.PreBufferDone {
		fmt.Printf("  pre-buffering (%v of video): %.2fs\n", *prebuffer, m.PreBufferTime.Seconds())
	}
	fmt.Printf("  delivered: %.1f MB in %.1fs emulated\n",
		float64(m.TotalBytes)/1e6, m.Elapsed.Seconds())
	for _, p := range m.Paths {
		fmt.Printf("  path %-5s %6.1f MB in %3d chunks (%d requests, %d failures, %d failovers); first video byte after %.2fs\n",
			p.Network, float64(p.Bytes)/1e6, p.Chunks, p.Requests, p.Failures, p.Failovers,
			p.FirstVideoByte.Seconds())
	}
	if len(m.Paths) == 2 {
		fmt.Printf("  wifi traffic share: pre %.1f%%  re %.1f%%\n",
			m.Share("wifi", msplayer.PhasePreBuffer)*100,
			m.Share("wifi", msplayer.PhaseReBuffer)*100)
	}
	total, perPath := msplayer.SessionEnergy(m, msplayer.DefaultRadios())
	fmt.Printf("  radio energy: %.1f J total", total)
	for i, p := range m.Paths {
		fmt.Printf("  (%s %.1f J)", p.Network, perPath[i])
	}
	fmt.Println()
	fmt.Printf("  re-buffering cycles: %d", len(m.Refills))
	for _, r := range m.Refills {
		fmt.Printf("  %.2fs", r.Duration.Seconds())
	}
	fmt.Println()
	if len(m.Stalls) > 0 {
		fmt.Printf("  stalls: %d", len(m.Stalls))
		for _, s := range m.Stalls {
			fmt.Printf("  %.1fs", s.Duration.Seconds())
		}
		fmt.Println()
	} else {
		fmt.Println("  stalls: none")
	}
}

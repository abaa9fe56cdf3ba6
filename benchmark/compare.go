package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// compareMain implements `compare parent.json change.json`: for every
// pairing of end-to-end metric and workload it prints how much worse
// the change's median is than the parent's, as a share of the parent's,
// against the metric's same-seed bound. Both files must be suite
// results of the same seed, so simulated metrics and report_sha256 must
// be identical; a host metric whose rep spread exceeds its bound is
// "unresolved", not "ok", unless every rep of the change beats every
// rep of the parent.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare parent.json change.json")
	}
	parent, err := readResults(args[0])
	if err != nil {
		return err
	}
	change, err := readResults(args[1])
	if err != nil {
		return err
	}
	if parent.Machine.Seed != change.Machine.Seed {
		return fmt.Errorf("seeds differ (%d vs %d): simulated metrics are only comparable at one seed",
			parent.Machine.Seed, change.Machine.Seed)
	}
	byName := map[string]*workloadResult{}
	for _, w := range change.Workloads {
		byName[w.Workload] = w
	}
	failures := 0
	fmt.Printf("%-14s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "parent", "change", "worse", "bound", "verdict")
	for _, p := range parent.Workloads {
		c, ok := byName[p.Workload]
		if !ok {
			fmt.Printf("%-14s missing from %s\n", p.Workload, args[1])
			failures++
			continue
		}
		if p.ReportSHA256 != c.ReportSHA256 {
			fmt.Printf("%-14s %-24s %14.12s %14.12s %9s %7s  FAIL: outputs differ\n",
				p.Workload, "report_sha256", p.ReportSHA256, c.ReportSHA256, "", "")
			failures++
		}
		row := func(d metricDef, a, b stat) {
			verdict := judge(d, a, b)
			if verdict != "ok" && verdict != "unresolved" {
				failures++
			}
			fmt.Printf("%-14s %-24s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				p.Workload, d.Name, a.Value, b.Value, 100*worsening(d, a.Value, b.Value), 100*d.sameSeed, verdict)
		}
		for _, d := range endToEnd {
			row(d, p.EndToEnd[d.Name], c.EndToEnd[d.Name])
		}
		// Non-zero only where the workload has single-path cohorts.
		if gain := p.PerLayer[multipathGain.Name]; gain.Value != 0 {
			row(multipathGain, gain, c.PerLayer[multipathGain.Name])
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d failing pairs", failures)
	}
	return nil
}

// worsening is how much worse b is than a, as a share of a; negative
// when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func judge(d metricDef, a, b stat) string {
	if d.sameSeed == 0 {
		if a.Value != b.Value {
			return "FAIL: model change (simulated metric differs at equal seed)"
		}
		return "ok"
	}
	// limit is the bound in the metric's own unit.
	limit := math.Max(d.sameSeed*a.Value, d.floor)
	if a.Spread*a.Value > limit || b.Spread*b.Value > limit {
		// Reps too scattered to resolve a difference of one bound, in
		// either direction, unless the two sides do not even overlap.
		allBetter := b.Max < a.Min
		if d.Better == "higher" {
			allBetter = b.Min > a.Max
		}
		if allBetter {
			return "ok"
		}
		return "unresolved"
	}
	if worsening(d, a.Value, b.Value)*a.Value > limit {
		return "FAIL: regression beyond bound"
	}
	return "ok"
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

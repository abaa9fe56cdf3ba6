package fleet

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// runBuiltin runs a builtin scenario and returns its rendered report.
func runBuiltin(t *testing.T, name string, sessions int, seed int64) string {
	t.Helper()
	sc, err := Builtin(name, sessions, seed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return rep.String()
}

// diffReports fails the test with the first differing lines of two
// reports that were expected to be byte-identical.
func diffReports(t *testing.T, label, want, got string) {
	t.Helper()
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Errorf("%s: line %d differs\n  want: %s\n  got:  %s", label, i+1, wl[i], gl[i])
			return
		}
	}
	t.Errorf("%s: reports differ in length (%d vs %d lines)", label, len(wl), len(gl))
}

// TestBuiltinsDeterministic is the same-seed fence over every
// behavioural regime — pre-buffer-only crowds, full plays with
// steady-state gate cycles, edge tiers, fault plans, mid-session link
// events and mixed-scheduler cohorts: each builtin scenario, run twice
// with one seed, must render byte-identical reports. It runs under
// -race too, where the double run also shakes out loop-confinement
// violations.
func TestBuiltinsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sessions int
	}{
		{"flashcrowd", 24},
		{"densecrowd", 100},
		{"megacrowd", 500},
		{"coldedge", 40},
		{"edgemesh", 40},
		{"originstorm", 24},
		// edgeflap used to be pinned at a tie-free population: the
		// single-flight fill opener's network named the upstream origin
		// server, so at populations where misses from both networks
		// reached the store at one virtual instant the per-origin books
		// depended on mutex arrival order. Fill sources are now a pure
		// hash of the page key (edge.Cache.fillSource), so the CI-smoke
		// population works here too.
		{"edgeflap", 24},
		// chaosfleet exercises the full resilience surface at once:
		// breakers, hedges, partitions, loss storms and flapping from a
		// seeded randomized plan.
		{"chaosfleet", 16},
		{"ramp", 30},
		{"wifiwave", 30},
		{"abtest", 30},
	} {
		a := runBuiltin(t, tc.name, tc.sessions, 7)
		b := runBuiltin(t, tc.name, tc.sessions, 7)
		if a != b {
			diffReports(t, tc.name, a, b)
		}
	}
}

// TestGoldens re-runs the committed 200-session seed-1 golden scenarios
// and compares byte-for-byte against the files on disk.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("200-session golden runs in -short mode")
	}
	for _, name := range []string{"flashcrowd", "originstorm", "edgeflap"} {
		want, err := os.ReadFile(filepath.Join("testdata", name+"_200_seed1.txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got := runBuiltin(t, name, 200, 1); got != string(want) {
			diffReports(t, name+" vs golden", string(want), got)
		}
	}
}

// TestDeterministic is the scale smoke: a 2000-session megacrowd run
// twice with the same seed must render byte-identical reports. CI runs
// this under -race, where the double run also shakes out
// loop-confinement violations.
func TestDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("2000-session double run in -short mode")
	}
	a := runBuiltin(t, "megacrowd", 2000, 59)
	b := runBuiltin(t, "megacrowd", 2000, 59)
	if a != b {
		t.Fatalf("same-seed megacrowd reports differ:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
}

// TestGoroutineCeiling asserts the point of the event-loop design: a
// fleet must run on a goroutine count bounded by a small constant —
// O(cores + servers), independent of the session count — on the origin
// alone (2000-session megacrowd) and behind edge caches, whose handlers
// wait for fills and whose backhaul fills run as connection machines
// too (200-session coldedge and edgeflap). A wall-clock sampler records
// the peak goroutine count over each whole run (spawn ramp, steady
// state and teardown alike).
func TestGoroutineCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("2000-session run in -short mode")
	}
	const ceiling = 64
	for _, tc := range []struct {
		name     string
		sessions int
	}{{"megacrowd", 2000}, {"coldedge", 200}, {"edgeflap", 200}} {
		var peak atomic.Int64
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				if n := int64(runtime.NumGoroutine()); n > peak.Load() {
					peak.Store(n)
				}
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond): //detlint:allow wallclock -- goroutine-count sampler polls in real time, outside the emulation
				}
			}
		}()
		runBuiltin(t, tc.name, tc.sessions, 7)
		close(stop)
		<-done
		if p := peak.Load(); p > ceiling {
			t.Errorf("%d-session %s peaked at %d goroutines, want <= %d", tc.sessions, tc.name, p, ceiling)
		} else {
			t.Logf("%d-session %s peaked at %d goroutines", tc.sessions, tc.name, p)
		}
	}
}

package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
)

// fleetOutput runs the command with args and returns what it writes.
// run sets the GC percent (-gogc), so the test binary's is restored.
func fleetOutput(t *testing.T, args ...string) string {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	var out bytes.Buffer
	if err := run(&out, args); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

var flashcrowd200 = []string{"-scenario", "flashcrowd", "-sessions", "200", "-seed", "1"}

// TestFlashcrowdGolden diffs the 200-session flashcrowd report at
// seed 1 against the fleet package's golden file.
func TestFlashcrowdGolden(t *testing.T) {
	want, err := os.ReadFile("../../internal/fleet/testdata/flashcrowd_200_seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := fleetOutput(t, flashcrowd200...); got != string(want) {
		t.Errorf("report differs from flashcrowd_200_seed1.txt\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestReportIndependentOfCoreCount runs the same fleet at GOMAXPROCS 1
// and 4 in one process: the report may not depend on the core count.
func TestReportIndependentOfCoreCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	one := fleetOutput(t, flashcrowd200...)
	runtime.GOMAXPROCS(4)
	four := fleetOutput(t, flashcrowd200...)
	if one != four {
		t.Errorf("report differs between GOMAXPROCS 1 and 4\n--- 1\n%s--- 4\n%s", one, four)
	}
}

package fleet

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// ledgerRuns are the scenarios the allocation ledger measures, at seed 1.
var ledgerRuns = []struct {
	name     string
	sessions int
}{
	{"flashcrowd", 200},
	{"chaosfleet", 150},
}

// TestAllocLedger pins allocations per session, layer by layer, against
// testdata/allocs.txt ("scenario layer allocs/session" rows). Each run
// is profiled with runtime.MemProfileRate = 1 and the GC off, and every
// allocation is charged to the first repo frame on its stack: the
// package under internal/ ("httpx", "netem/trace"), "root" for the
// module's root package, "other" when none of the recorded frames is
// the repo's (runtime-started stacks excepted, see layerOf). The
// "total" row is MemStats.Mallocs over the run. The test fails when a
// layer grows by more than 2% or the total by more than 1%; lowering a
// row is a reviewed diff, like digests.txt. A warm-up run first fills
// the process-wide content pages and buffer pools, so the rows do not
// depend on which tests ran before. The rows
// count the standard library's allocations too, so they hold for the
// toolchain named in the file's "# toolchain" line; under any other the
// test logs what it would have failed on instead.
func TestAllocLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("profiled fleet runs in -short mode")
	}
	if raceEnabled {
		t.Skip("the race detector's pool drops change allocation counts")
	}
	want, toolchain := readLedger(t)
	report := t.Errorf
	if v := runtime.Version(); v != toolchain {
		t.Logf("rows were measured with %q, this is %s: logging deviations, not failing", toolchain, v)
		report = t.Logf
	}
	var got []string
	for _, run := range ledgerRuns {
		rows := measureLedger(t, run.name, run.sessions)
		layers := make([]string, 0, len(rows))
		for layer := range rows {
			layers = append(layers, layer)
		}
		sort.Strings(layers)
		for _, layer := range layers {
			got = append(got, fmt.Sprintf("%s %s %.1f", run.name, layer, rows[layer]))
			key := run.name + " " + layer
			limit := 1.02
			if layer == "total" {
				limit = 1.01
			}
			w, ok := want[key]
			switch {
			case !ok:
				report("%s: %.1f allocs/session, no row in testdata/allocs.txt", key, rows[layer])
			case rows[layer] > w*limit+0.05: // rows are rounded to 0.1
				report("%s: %.1f allocs/session, row says %.1f (+%.1f%%, limit +%.0f%%)",
					key, rows[layer], w, 100*(rows[layer]/w-1), 100*(limit-1))
			case rows[layer] < w/limit-0.05:
				t.Logf("%s: %.1f allocs/session, row says %.1f: lower the row", key, rows[layer], w)
			}
		}
	}
	if t.Failed() || testing.Verbose() {
		t.Logf("measured ledger:\n%s", strings.Join(got, "\n"))
	}
}

// readLedger reads testdata/allocs.txt into "scenario layer" → value,
// and the toolchain named by its "# toolchain <version>" line.
func readLedger(t *testing.T) (rows map[string]float64, toolchain string) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "allocs.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows = make(map[string]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if v, ok := strings.CutPrefix(line, "# toolchain "); ok {
			toolchain = v
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("allocs.txt: malformed row %q", line)
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			t.Fatalf("allocs.txt: %q: %v", line, err)
		}
		rows[fields[0]+" "+fields[1]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if toolchain == "" {
		t.Fatal(`allocs.txt: no "# toolchain" line`)
	}
	return rows, toolchain
}

// measureLedger runs a builtin scenario at seed 1 under the allocation
// profiler and returns allocations per session by layer, plus "total".
func measureLedger(t *testing.T, name string, sessions int) map[string]float64 {
	t.Helper()
	sc, err := Builtin(name, sessions, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The GC stays off from the warm-up on: a collection clears the
	// buffer pools, and one landing late in the warm-up would leave the
	// measured run a timing-dependent number of pool misses to refill.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, err := Run(context.Background(), sc); err != nil { // warm-up
		t.Fatal(err)
	}
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = rate }()

	runtime.GC() // publish every allocation so far to the profile
	before := layerAllocs()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := Run(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	after := layerAllocs()

	rows := map[string]float64{"total": float64(m1.Mallocs-m0.Mallocs) / float64(sessions)}
	for layer, n := range after {
		if d := n - before[layer]; d > 0 && layer != "test" && layer != "runtime" {
			rows[layer] = float64(d) / float64(sessions)
		}
	}
	return rows
}

// layerAllocs sums the allocation profile's object counts by layer.
// Allocations whose first repo frame lies in a test file (this
// harness's own bookkeeping) go to "test"; see layerOf for "runtime".
// Neither has a row.
func layerAllocs() map[string]int64 {
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	layers := make(map[string]int64)
	for i := range recs {
		layers[layerOf(recs[i].Stack())] += recs[i].AllocObjects
	}
	return layers
}

// layerOf names the layer of the first repo frame in stack. A stack
// with none whose outermost frame is the runtime's own — a thread the
// scheduler starts, a cleanup goroutine a collection wakes — is
// "runtime": its count follows the host's timing, not the code.
func layerOf(stack []uintptr) string {
	frames := runtime.CallersFrames(stack)
	outer := ""
	for {
		f, more := frames.Next()
		fn := f.Function
		if fn != "runtime.goexit" {
			outer = fn
		}
		if strings.HasPrefix(fn, "repro/") || strings.HasPrefix(fn, "repro.") {
			if strings.HasSuffix(f.File, "_test.go") {
				return "test"
			}
			pkg := fn[:strings.LastIndexByte(fn, '/')+1]
			rest := fn[len(pkg):]
			pkg += rest[:strings.IndexByte(rest, '.')]
			if pkg == "repro" {
				return "root"
			}
			return strings.TrimPrefix(strings.TrimPrefix(pkg, "repro/"), "internal/")
		}
		if !more {
			if strings.HasPrefix(outer, "runtime.") {
				return "runtime"
			}
			return "other"
		}
	}
}

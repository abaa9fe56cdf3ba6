package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// digestRow is one line of testdata/digests.txt: the SHA-256 of the
// rendered report of builtin scenario name at the given population and
// seed.
type digestRow struct {
	name     string
	sessions int
	seed     int64
	digest   string
}

// shortDigestSessions is the largest population TestBuiltinDigests runs
// in -short mode: every builtin's CI population fits, the 2000-session
// megacrowd scale row does not.
const shortDigestSessions = 500

func readDigests(t *testing.T) []digestRow {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []digestRow
	for i, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("digests.txt:%d: want `scenario sessions seed sha256`, got %q", i+1, line)
		}
		sessions, err1 := strconv.Atoi(f[1])
		seed, err2 := strconv.ParseInt(f[2], 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("digests.txt:%d: bad sessions or seed in %q", i+1, line)
		}
		rows = append(rows, digestRow{f[0], sessions, seed, f[3]})
	}
	return rows
}

// TestBuiltinDigests is the determinism fence over every behavioural
// regime — pre-buffer-only crowds, full plays with steady-state gate
// cycles, edge tiers, fault plans, chaos storms, mid-session link
// events and mixed-scheduler cohorts. Each row of testdata/digests.txt
// names a builtin, a population and a seed; the run's rendered report
// must hash to the committed SHA-256, on any core count and under
// -race, where the run also shakes out loop-confinement violations.
// Run checks the structural invariants of every report on the way
// (sessions terminal, books settled and balanced, faults recovered).
// Rows sharing a scenario and population must have distinct
// digests: the seed reaches the report. On a mismatch the rendered
// report is logged so it can be diffed against a run of the parent.
func TestBuiltinDigests(t *testing.T) {
	rows := readDigests(t)
	covered := map[string]bool{}
	seen := map[string]string{}
	for _, r := range rows {
		covered[r.name] = true
		group := fmt.Sprintf("%s/%d", r.name, r.sessions)
		if prev, dup := seen[group+"/"+r.digest]; dup {
			t.Errorf("%s seeds %s and %d share digest %s", group, prev, r.seed, r.digest)
		}
		seen[group+"/"+r.digest] = strconv.FormatInt(r.seed, 10)
	}
	for _, n := range BuiltinNames() {
		if !covered[n] {
			t.Errorf("builtin %s has no digest row", n)
		}
	}
	for _, r := range rows {
		t.Run(fmt.Sprintf("%s_%d_seed%d", r.name, r.sessions, r.seed), func(t *testing.T) {
			if testing.Short() && r.sessions > shortDigestSessions {
				t.Skipf("%d-session run in -short mode", r.sessions)
			}
			rep := runBuiltin(t, r.name, r.sessions, r.seed)
			sum := sha256.Sum256([]byte(rep))
			if got := hex.EncodeToString(sum[:]); got != r.digest {
				t.Errorf("digest %s, pinned %s; rendered report:\n%s", got, r.digest, rep)
			}
		})
	}
}

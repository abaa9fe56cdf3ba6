package detlint

import (
	"go/token"
	"testing"
)

func TestParseDirective(t *testing.T) {
	pos := token.Position{Filename: "x.go", Line: 1}
	cases := []struct {
		text      string
		analyzers []string
		reason    string
		malformed bool
	}{
		{"//detlint:allow wallclock -- benchmark wall time", []string{"wallclock"}, "benchmark wall time", false},
		{"//detlint:allow wallclock,baredgo -- two at once", []string{"wallclock", "baredgo"}, "two at once", false},
		{"//detlint:allow wallclock", nil, "", true},          // no reason separator
		{"//detlint:allow wallclock --   ", nil, "", true},    // blank reason
		{"//detlint:allow nosuch -- reason", nil, "", true},   // unknown analyzer
		{"//detlint:allow -- reason", nil, "", true},          // no analyzer names
		{"//detlint:allowwallclock -- reason", nil, "", true}, // missing space after marker
	}
	for _, c := range cases {
		d := parseDirective(pos, c.text)
		if (d.Malformed != "") != c.malformed {
			t.Errorf("%q: malformed=%q, want malformed=%v", c.text, d.Malformed, c.malformed)
			continue
		}
		if c.malformed {
			continue
		}
		if d.Reason != c.reason {
			t.Errorf("%q: reason %q, want %q", c.text, d.Reason, c.reason)
		}
		if len(d.Analyzers) != len(c.analyzers) {
			t.Errorf("%q: analyzers %v, want %v", c.text, d.Analyzers, c.analyzers)
			continue
		}
		for i := range c.analyzers {
			if d.Analyzers[i] != c.analyzers[i] {
				t.Errorf("%q: analyzers %v, want %v", c.text, d.Analyzers, c.analyzers)
				break
			}
		}
	}
}

// wantSuppressions pins the tree's escape-hatch surface: the exact
// number of //detlint:allow directives cmd/detlint -suppressions lists.
// Adding or removing one must update this constant, so every new escape
// hatch shows up in review as a deliberate diff, not a silent drift.
// 67 → 60 when the goroutine session engine went: its context-cancel
// relay (baredgo) and the six wall-clock waits its blocking
// chunk-manager tests needed. 60 → 57 when the goroutine server went:
// the stage's stable-view alias lost its WriteStable name (borrowck),
// and two clock tests wait for parked waiters instead of sleeping.
// 57 → 32 when the blocking client, the transient clock parks and
// scaled real time went: the client's context watcher and map ranges,
// the scaled clock's wall anchors, timers and goroutine, the scaled
// clock tests, and the real sleeps that let unregistered goroutines
// park (registered tests wait for parked waiters instead). 32 → 25
// when the JSON bench harness went: its footprint sampler and wall
// timers (json.go, guard.go) and benchall's -json/-guard timings, −8;
// and +1 when Load stopped letting a variant compiled for another
// package's tests ("fleet [repro.test]") shadow a package's own test
// files, which brought the fleet goroutine-ceiling sampler into view.
// 25 → 17 when netem's blocking conn path went: the wall-clock
// watchdogs around blocking reads and writes in the netem pipe,
// network, alloc and rand-audit tests and the handshake test, −8.
// 17 → 9 when the clock became one driver draining a queue: Clock.Go's
// own bare spawn (baredgo), and the clock, queue and httpx tests'
// wall-clock deadlock watchdogs, wall-clock wait and stagger sleep,
// which nothing can hang or race any more, −8.
const wantSuppressions = 9

// TestTreeCleanAndSuppressionCount runs the full suite over the whole
// module, exactly as the CI detlint step does: zero unsuppressed
// findings, zero malformed or stale directives, and the pinned count.
func TestTreeCleanAndSuppressionCount(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.PkgPath, e)
		}
	}
	diags, err := RunAnalyzers(pkgs, Analyzers())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	dirs := CollectDirectives(pkgs)
	for _, d := range dirs {
		if d.Malformed != "" {
			t.Errorf("%s:%d: malformed directive: %s", d.Pos.Filename, d.Pos.Line, d.Malformed)
		}
	}
	kept, suppressed := FilterSuppressed(diags, dirs)
	for _, d := range kept {
		t.Errorf("unsuppressed finding: %s", d)
	}
	if len(suppressed) == 0 {
		t.Error("no suppressed findings at all; the suite does not seem to have run")
	}
	if len(dirs) != wantSuppressions {
		t.Errorf("suppression directives: got %d, want %d (update wantSuppressions so the new escape hatch is a reviewed diff)", len(dirs), wantSuppressions)
	}
	for _, d := range Unused(dirs) {
		t.Errorf("%s:%d: stale suppression directive (suppresses nothing)", d.Pos.Filename, d.Pos.Line)
	}
}

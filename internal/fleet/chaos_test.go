package fleet

import (
	"context"
	"fmt"
	"testing"
)

// runChaos runs one chaosfleet configuration and returns the report.
func runChaos(t *testing.T, sessions int, seed int64) *Report {
	t.Helper()
	sc, err := Builtin("chaosfleet", sessions, seed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestChaosSweepDeterminism is the chaos fence: across a sweep of chaos
// seeds — each a distinct splitmix64-expanded storm of replica kills,
// blackholes, partitions, loss storms and flapping — every chaosfleet
// run must (1) double-run byte-identically and (2) pass the structural
// invariant checker Run applies to every report: all sessions terminal, origin books settled and
// balanced, every windowed fault recovered. The full 25-seed sweep runs
// in long mode; CI's -short pass (which carries -race) keeps a 4-seed
// subset so loop-confinement violations under chaos still get shaken
// out on every push.
func TestChaosSweepDeterminism(t *testing.T) {
	const sessions = 30
	seeds := make([]int64, 25)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if testing.Short() {
		seeds = seeds[:4]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			a := runChaos(t, sessions, seed)
			b := runChaos(t, sessions, seed)
			if as, bs := a.String(), b.String(); as != bs {
				diffReports(t, fmt.Sprintf("seed %d double-run", seed), as, bs)
			}
		})
	}
}

// TestChaosPlanShapes: distinct seeds must expand into distinct fault
// timelines (the generator is not collapsing), every expanded plan must
// stay inside its horizon with recovery for every windowed fault, and
// expansion must be a pure function of the plan parameters.
func TestChaosPlanShapes(t *testing.T) {
	shapes := map[string]int64{}
	for seed := int64(1); seed <= 25; seed++ {
		p := ChaosPlan{Seed: seed, Intensity: 2, Horizon: 20e9}
		a := p.Expand(2, 0)
		b := p.Expand(2, 0)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("seed %d: expansion is not a pure function of the plan", seed)
		}
		if len(a) == 0 {
			t.Fatalf("seed %d: empty fault plan at intensity 2", seed)
		}
		for _, f := range a {
			if f.At < 0 || f.At+f.Duration > p.Horizon {
				t.Errorf("seed %d: fault %+v escapes the horizon", seed, f)
			}
		}
		if prev, dup := shapes[fmt.Sprint(a)]; dup {
			t.Errorf("seeds %d and %d expanded into identical storms", prev, seed)
		}
		shapes[fmt.Sprint(a)] = seed
	}
}

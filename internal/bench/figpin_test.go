package bench

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
)

// TestFigureMetricsPinned is the value fence around the paper figures:
// FigsArtifact at the configuration the committed BENCH_figs.json was
// recorded with (seed 1, 3 reps) must reproduce every experiment's
// Metrics block exactly. Virtual time makes the figure metrics a pure
// function of the seed, so any drift means the session engine, the
// emulator or the origin changed behaviour. Wall time and allocation
// fields are host-dependent and ignored.
func TestFigureMetricsPinned(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_figs.json")
	if err != nil {
		t.Fatal(err)
	}
	var want Artifact
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got, err := FigsArtifact(io.Discard, Options{Seed: want.Seed, Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Experiments) != len(want.Experiments) {
		t.Fatalf("%d experiments, committed artifact has %d", len(got.Experiments), len(want.Experiments))
	}
	for i, w := range want.Experiments {
		g := got.Experiments[i]
		if g.Name != w.Name {
			t.Errorf("experiment %d is %q, committed artifact has %q", i, g.Name, w.Name)
			continue
		}
		if !reflect.DeepEqual(g.Metrics, w.Metrics) {
			t.Errorf("%s metrics drifted from BENCH_figs.json:\n  got  %v\n  want %v", w.Name, g.Metrics, w.Metrics)
		}
	}
}

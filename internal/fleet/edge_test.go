package fleet

import (
	"context"
	"strings"
	"testing"
)

// TestColdEdgeSingleFlightVsStampede is the edge tier's end-to-end
// guarantee: two same-seed runs render byte-identical reports, the
// single-flight edge fetched every page exactly once (fills == resident
// pages, zero evictions), and the stampede edge paid for coalescing's
// absence with strictly more fills for the same working set.
func TestColdEdgeSingleFlightVsStampede(t *testing.T) {
	run := func() *Report {
		sc, err := Builtin("coldedge", 24, 7)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Fleet.Errored != 0 {
			t.Fatalf("%d sessions errored", rep.Fleet.Errored)
		}
		if !rep.LoadsSettled {
			t.Fatal("books did not settle")
		}
		return rep
	}
	a, b := run(), run()
	if a.String() != b.String() {
		t.Fatalf("same-seed coldedge reports differ:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
	if len(a.Edges) != 2 {
		t.Fatalf("edges = %d, want 2", len(a.Edges))
	}
	sf, st := a.Edges[0], a.Edges[1]
	if sf.HitRatio() <= 0 {
		t.Errorf("single-flight edge hit ratio = %v, want > 0", sf.HitRatio())
	}
	if sf.Evictions != 0 {
		t.Errorf("single-flight edge evicted %d pages; budget is sized for zero", sf.Evictions)
	}
	// With coalescing on and no evictions, every (video, page) fills
	// exactly once: the fill count IS the resident page count.
	if sf.Fills != sf.Pages {
		t.Errorf("single-flight edge fills = %d, resident pages = %d; want equal", sf.Fills, sf.Pages)
	}
	if st.Fills <= st.Pages {
		t.Errorf("stampede edge fills = %d <= pages = %d; storm should refetch", st.Fills, st.Pages)
	}
	if st.BackhaulBytes <= sf.BackhaulBytes {
		t.Errorf("stampede backhaul %d <= single-flight %d; coalescing saved nothing?",
			st.BackhaulBytes, sf.BackhaulBytes)
	}
	if !strings.Contains(a.String(), "edge tier: 2 edges") {
		t.Error("report missing edge tier table")
	}
}

// TestEdgeMeshPoliciesDiverge checks the LRU/LFU axis end to end: under
// identical offered load, paired edges running different policies keep
// different books, and every edge under a tight budget actually evicts.
func TestEdgeMeshPoliciesDiverge(t *testing.T) {
	sc, err := Builtin("edgemesh", 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Edges) != 4 {
		t.Fatalf("edges = %d, want 4", len(rep.Edges))
	}
	for _, e := range rep.Edges {
		if e.Evictions == 0 {
			t.Errorf("edge %s never evicted under a tight budget", e.Name)
		}
		if e.Hits+e.Misses == 0 {
			t.Errorf("edge %s saw no traffic", e.Name)
		}
	}
	if rep.Edges[0].Policy != "lru" || rep.Edges[2].Policy != "lfu" {
		t.Fatalf("policies = %s/%s, want lru/lfu", rep.Edges[0].Policy, rep.Edges[2].Policy)
	}
}

// TestNoEdgeTierReportUnchanged pins backward compatibility in-process:
// scenarios without an edge tier render no edge lines at all.
func TestNoEdgeTierReportUnchanged(t *testing.T) {
	sc, err := Builtin("flashcrowd", 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Edges) != 0 {
		t.Fatalf("legacy scenario grew %d edges", len(rep.Edges))
	}
	if strings.Contains(rep.String(), "edge") {
		t.Fatal("legacy report mentions the edge tier")
	}
}

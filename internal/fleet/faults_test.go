package fleet

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestFaultValidation(t *testing.T) {
	co := []Cohort{{Name: "c", Sessions: 1}}
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"unknown kind", Scenario{Cohorts: co, Faults: []Fault{{Kind: "meteor"}}}},
		{"origin fault without network", Scenario{Cohorts: co,
			Faults: []Fault{{Kind: FaultOriginKill, Replica: 1}}}},
		{"origin fault replica 0", Scenario{Cohorts: co,
			Faults: []Fault{{Kind: FaultOriginKill, Network: "wifi"}}}},
		{"blackhole without duration", Scenario{Cohorts: co,
			Faults: []Fault{{Kind: FaultOriginBlackhole, Network: "wifi", Replica: 1}}}},
		{"edge fault without tier", Scenario{Cohorts: co,
			Faults: []Fault{{Kind: FaultEdgeOutage, Edge: 1, Duration: time.Second}}}},
		{"edge fault out of range", Scenario{Cohorts: co,
			EdgeTier: &EdgeTierSpec{Edges: []EdgeSpec{{}}},
			Faults:   []Fault{{Kind: FaultEdgeOutage, Edge: 2, Duration: time.Second}}}},
		{"negative onset", Scenario{Cohorts: co,
			Faults: []Fault{{Kind: FaultOriginKill, Network: "wifi", Replica: 1, At: -time.Second}}}},
		{"negative degrade factor", Scenario{Cohorts: co,
			EdgeTier: &EdgeTierSpec{Edges: []EdgeSpec{{}}},
			Faults:   []Fault{{Kind: FaultBackhaulDegrade, Edge: 1, Duration: time.Second, Factor: -1}}}},
	}
	for _, tc := range cases {
		if err := tc.sc.validate(); err == nil {
			t.Errorf("%s: scenario validated", tc.name)
		}
	}
}

// TestOriginStormDeterministicAndRecovers runs the origin failure storm
// twice at a small scale: the two reports must render byte-identically,
// every fault window must have closed (finite time-to-recovery), and
// the robustness counters must show the machinery actually engaged —
// deadline expiries against the blackholed replica, failovers and
// rebootstraps away from the killed ones — with zero errored sessions.
func TestOriginStormDeterministicAndRecovers(t *testing.T) {
	run := func() *Report {
		sc, err := Builtin("originstorm", 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.String() != b.String() {
		t.Fatalf("originstorm not deterministic:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
	if a.Fleet.Errored != 0 {
		t.Errorf("%d sessions errored", a.Fleet.Errored)
	}
	if !a.LoadsSettled {
		t.Error("origin books did not settle")
	}
	if a.Fleet.Timeouts == 0 {
		t.Error("no request-deadline expiries despite the blackholed replica")
	}
	if a.Fleet.Failovers == 0 {
		t.Error("no failovers despite the killed replicas")
	}
	if a.Fleet.Rebootstraps == 0 {
		t.Error("no rebootstraps despite exhausted replica lists")
	}
	if len(a.Faults) != 3 {
		t.Fatalf("fault plan executed %d windows, want 3", len(a.Faults))
	}
	for i, w := range a.Faults {
		if !w.Recovered {
			t.Errorf("fault %d (%s %s) never recovered", i+1, w.Kind, w.Target)
		}
		if w.End <= w.Start {
			t.Errorf("fault %d has no finite time-to-recovery (start %v end %v)", i+1, w.Start, w.End)
		}
	}
}

// TestEdgeFlapDeterministicAndRefills: the edge outages must cold-wipe
// the stores (fills exceeding resident pages prove the re-fill) and the
// degraded backhaul plus the request deadline must produce timeouts,
// all byte-identically across runs.
func TestEdgeFlapDeterministicAndRefills(t *testing.T) {
	run := func() *Report {
		sc, err := Builtin("edgeflap", 12, 1)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.String() != b.String() {
		t.Fatalf("edgeflap not deterministic:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
	if a.Fleet.Errored != 0 {
		t.Errorf("%d sessions errored", a.Fleet.Errored)
	}
	if a.Fleet.Timeouts == 0 {
		t.Error("no request-deadline expiries despite the degraded backhaul")
	}
	if a.Fleet.Rebootstraps == 0 {
		t.Error("no rebootstraps despite the edge outages")
	}
	if len(a.Edges) != 2 {
		t.Fatalf("edge tier has %d edges, want 2", len(a.Edges))
	}
	for _, e := range a.Edges {
		if e.Fills <= e.Pages {
			t.Errorf("%s: fills=%d <= resident pages=%d — no cold-restart re-fill visible",
				e.Name, e.Fills, e.Pages)
		}
	}
	for i, w := range a.Faults {
		if !w.Recovered {
			t.Errorf("fault %d (%s %s) never recovered", i+1, w.Kind, w.Target)
		}
	}
}

// TestNoFaultPlanReportUnchanged pins backward compatibility in-process:
// scenarios without a fault plan render no fault or robustness lines at
// all (the full byte-for-byte fence is TestGoldens).
func TestNoFaultPlanReportUnchanged(t *testing.T) {
	sc, err := Builtin("flashcrowd", 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Faults) != 0 {
		t.Fatalf("legacy scenario grew %d fault windows", len(rep.Faults))
	}
	out := rep.String()
	if strings.Contains(out, "fault") || strings.Contains(out, "robustness") {
		t.Fatal("legacy report mentions the fault plan")
	}
}

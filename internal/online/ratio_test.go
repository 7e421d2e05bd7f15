package online_test

import (
	"testing"

	busytime "repro"
	"repro/internal/online"
	"repro/internal/workload"
)

// TestCompareReports checks the Report baselines and ratios that the
// facade's CompareOnline fills in: the exact optimum on small instances,
// the offline auto-dispatch cost and the Observation 2.1 bound, ordered
// LowerBound ≤ ExactCost ≤ OfflineCost.
func TestCompareReports(t *testing.T) {
	in := workload.Arrivals(3, workload.Config{N: 12, G: 2, MaxTime: 80, MaxLen: 25})
	reports, err := busytime.CompareOnline(in, online.Naive(), online.FirstFit(), online.Buckets())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("%d reports, want 3", len(reports))
	}
	for _, r := range reports {
		if !r.HasExact {
			t.Fatalf("%s: exact oracle skipped on n=12", r.Strategy)
		}
		if r.VsExact() < 1.0 {
			t.Errorf("%s: online beat the optimum: ratio %.3f", r.Strategy, r.VsExact())
		}
		if r.VsOffline() <= 0 || r.VsLowerBound() < 1.0 {
			t.Errorf("%s: degenerate ratios %+v", r.Strategy, r)
		}
		if r.ExactCost < r.LowerBound || r.OfflineCost < r.ExactCost {
			t.Errorf("%s: inconsistent baselines %+v", r.Strategy, r)
		}
	}
	// Larger instances skip the exact oracle but still report.
	big := workload.Arrivals(3, workload.Config{N: 40, G: 2, MaxTime: 200, MaxLen: 25})
	reports, err = busytime.CompareOnline(big, online.FirstFit())
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].HasExact || reports[0].VsExact() != 0 {
		t.Errorf("exact oracle claimed on n=40: %+v", reports[0])
	}
}

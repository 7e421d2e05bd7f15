package dhop

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/igraph"
	"repro/internal/job"
	"repro/internal/registry"
	"repro/internal/workload"
)

// autoSolve runs MinBusy auto dispatch sequentially.
func autoSolve(t *testing.T, in job.Instance) core.Schedule {
	t.Helper()
	s, _, err := registry.DispatchMinBusy(context.Background(), in, igraph.Classify(in.Jobs), 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSegmentCost(t *testing.T) {
	cases := []struct {
		length, d, want int64
	}{
		{0, 3, 0},
		{2, 3, 0}, // shorter than range: endpoints suffice
		{3, 3, 1}, // one regenerator after 3 hops
		{7, 3, 2}, // at hops 3 and 6
		{9, 3, 3}, // exact multiple: hops 3, 6, 9
		{10, 1, 10},
		{5, 100, 0},
	}
	for _, c := range cases {
		if got := SegmentCost(c.length, c.d); got != c.want {
			t.Errorf("SegmentCost(%d, %d) = %d, want %d", c.length, c.d, got, c.want)
		}
	}
}

func TestSegmentCostPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("d=0 accepted")
		}
	}()
	SegmentCost(5, 0)
}

func TestCostSumsSegments(t *testing.T) {
	// One machine with two busy segments of lengths 7 and 4, d = 3:
	// floor(7/3) + floor(4/3) = 2 + 1.
	in := job.NewInstance(1, [2]int64{0, 7}, [2]int64{100, 104})
	s := core.NewSchedule(in)
	s.Assign(0, 0)
	s.Assign(1, 0)
	if got := Cost(s, 3); got != 3 {
		t.Errorf("Cost = %d, want 3", got)
	}
}

func TestCostD1EqualsBusyTime(t *testing.T) {
	in := workload.General(3, workload.Config{N: 15, G: 3, MaxTime: 100, MaxLen: 30})
	s := autoSolve(t, in)
	if Cost(s, 1) != s.Cost() {
		t.Errorf("d=1 cost %d != busy time %d", Cost(s, 1), s.Cost())
	}
}

func TestCostMonotoneInD(t *testing.T) {
	in := workload.Lightpaths(5, workload.Config{N: 20, G: 4, MaxTime: 300, MaxLen: 80})
	s := autoSolve(t, in)
	prev := int64(1 << 62)
	for _, d := range []int64{1, 2, 5, 10, 100} {
		c := Cost(s, d)
		if c > prev {
			t.Fatalf("cost increased with larger range d=%d: %d > %d", d, c, prev)
		}
		prev = c
	}
}

func TestSolveAndLowerBound(t *testing.T) {
	in := workload.Lightpaths(7, workload.Config{N: 25, G: 4, MaxTime: 400, MaxLen: 100})
	s := autoSolve(t, in)
	busy, regen := s.Cost(), Cost(s, 10)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if regen < LowerBound(in, 10) {
		t.Errorf("regenerators %d below lower bound %d", regen, LowerBound(in, 10))
	}
	// d-hop cost is bounded by busy time scaled down by d.
	if regen > busy {
		t.Errorf("regen %d exceeds busy %d at d=10", regen, busy)
	}
}

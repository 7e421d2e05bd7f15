// Package dhop implements the final Section 5 extension: regenerator
// placement where a signal needs regeneration only every d hops rather
// than at every node. Busy time generalizes to regenerator count: a
// machine (color group) busy along a segment of length L on the unit-hop
// line needs ⌊L/d⌋ interior regenerators (one after each d consecutive
// hops, none at the terminal node), so the objective becomes
// Σ over machines Σ over busy segments ⌊len(segment)/d⌋.
//
// With d = 1 this counts every interior hop boundary; the classic
// busy-time objective is recovered as d → the cost measured in units of
// d-spans. The package provides the costing, so any MinBusy schedule can
// be re-evaluated under d-hop costing.
package dhop

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/job"
)

// SegmentCost returns the regenerators needed along one contiguous busy
// segment of the given length with regeneration range d.
func SegmentCost(length, d int64) int64 {
	if d < 1 {
		panic(fmt.Sprintf("dhop: regeneration range %d < 1", d))
	}
	if length <= 0 {
		return 0
	}
	return length / d
}

// Cost returns the total d-hop regenerator count of a schedule: the sum
// over machines and busy segments of SegmentCost.
func Cost(s core.Schedule, d int64) int64 {
	var total int64
	for _, positions := range s.MachineJobs() {
		ivs := make([]interval.Interval, len(positions))
		for k, p := range positions {
			ivs[k] = s.Instance.Jobs[p].Interval
		}
		for _, seg := range interval.Union(ivs) {
			total += SegmentCost(seg.Len(), d)
		}
	}
	return total
}

// LowerBound returns a parallelism-style lower bound on the d-hop cost of
// any valid schedule: a busy segment places regenerators on a grid of
// spacing d, any job of length L lies under at least ⌊L/d⌋ grid points of
// its machine, and each grid point serves at most g jobs — so cost ≥
// ⌈Σ_j ⌊len_j/d⌋ / g⌉. (The span bound does not carry over: splitting a
// span across machines can avoid regenerators entirely, since
// ⌊a/d⌋+⌊b/d⌋ ≤ ⌊(a+b)/d⌋.)
func LowerBound(in job.Instance, d int64) int64 {
	var demand int64
	for _, j := range in.Jobs {
		demand += SegmentCost(j.Len(), d)
	}
	g := int64(in.G)
	return (demand + g - 1) / g
}

package registry

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/igraph"
	"repro/internal/job"
	"repro/internal/parallel"
)

// DispatchMinBusy is auto dispatch for MinBusy. MinBusy decomposes over
// connected components (Section 2), so each component is solved on its
// own by the first entry of its class's ForAll chain that accepts it,
// and the pieces are merged on disjoint machine ranges by
// core.MergeComponents. class must be igraph.Classify(in.Jobs): a
// connected instance is its own single component and reuses it, while
// the components of a disconnected instance are classified one by one.
// Components run on up to workers goroutines (0 selects GOMAXPROCS);
// the result does not depend on the worker count. The returned name is
// the chain entry's, or "components:a+b" for a disconnected instance.
func DispatchMinBusy(ctx context.Context, in job.Instance, class igraph.Class, workers int) (core.Schedule, string, error) {
	comps := igraph.SplitComponents(in)
	if len(comps) <= 1 {
		return minBusyChain(ctx, in, class)
	}
	subs := make([]core.Schedule, len(comps))
	names := make([]string, len(comps))
	errs := make([]error, len(comps))
	parallel.ForEach(len(comps), workers, func(i int) {
		subs[i], names[i], errs[i] = minBusyChain(ctx, comps[i], igraph.Classify(comps[i].Jobs))
	})
	for _, err := range errs {
		if err != nil {
			return core.Schedule{}, "", err
		}
	}
	merged, name := core.MergeComponents(in, comps, subs, names)
	return merged, name, nil
}

// minBusyChain returns the schedule of the first algorithm in the
// class's ForAll chain that accepts the instance, stopping between
// attempts once ctx fires.
func minBusyChain(ctx context.Context, in job.Instance, class igraph.Class) (core.Schedule, string, error) {
	for _, alg := range ForAll(MinBusy, class) {
		if err := ctx.Err(); err != nil {
			return core.Schedule{}, "", err
		}
		if sch, err := alg.SolveMinBusy(ctx, in); err == nil {
			return sch, alg.Name, nil
		}
	}
	return core.Schedule{}, "", fmt.Errorf("registry: no %s algorithm accepted the instance (class %s)", MinBusy, class)
}

// DispatchThroughput is auto dispatch for MaxThroughput: the first
// algorithm of the ForAll chain for class (igraph.Classify(in.Jobs))
// that accepts the instance, stopping between attempts once ctx fires.
// The budget couples all jobs, so unlike MinBusy the instance is not
// split into components.
func DispatchThroughput(ctx context.Context, in job.Instance, budget int64, class igraph.Class) (core.Schedule, string, error) {
	for _, alg := range ForAll(MaxThroughput, class) {
		if err := ctx.Err(); err != nil {
			return core.Schedule{}, "", err
		}
		if sch, err := alg.SolveThroughput(ctx, in, budget); err == nil {
			return sch, alg.Name, nil
		}
	}
	return core.Schedule{}, "", fmt.Errorf("registry: no %s algorithm accepted the instance (class %s)", MaxThroughput, class)
}

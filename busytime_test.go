package busytime_test

import (
	"context"
	"reflect"
	"testing"

	busytime "repro"
	"repro/internal/registry"
)

func TestQuickstartFlow(t *testing.T) {
	in := busytime.NewInstance(2,
		[2]int64{0, 10}, [2]int64{5, 15}, [2]int64{8, 20}, [2]int64{12, 25})
	res, err := busytime.NewSolver().Solve(context.Background(), busytime.Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Schedule
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Throughput() != 4 {
		t.Fatalf("MinBusy left jobs unscheduled")
	}
	if res.Algorithm == "" {
		t.Fatal("no algorithm name reported")
	}
	if s.Cost() < in.LowerBound() || s.Cost() > in.TotalLen() {
		t.Fatalf("cost %d outside Observation 2.1 bounds", s.Cost())
	}
}

func TestMaxThroughputDispatch(t *testing.T) {
	cases := []struct {
		in   busytime.Instance
		want string
	}{
		{busytime.GenerateOneSided(1, busytime.WorkloadConfig{N: 6, G: 2, MaxTime: 50, MaxLen: 20}, true), "one-sided-throughput"},
		{busytime.GenerateProperClique(1, busytime.WorkloadConfig{N: 6, G: 2, MaxTime: 50, MaxLen: 20}), "most-throughput-consecutive"},
		{busytime.NewInstance(2, [2]int64{0, 20}, [2]int64{1, 8}, [2]int64{2, 9}), "clique-throughput"},
		{busytime.NewInstance(2, [2]int64{0, 10}, [2]int64{2, 5}, [2]int64{40, 50}), "greedy-throughput"},
	}
	solver := busytime.NewSolver()
	for i, c := range cases {
		res, err := solver.Solve(context.Background(),
			busytime.Request{Instance: c.in, Kind: busytime.KindMaxThroughput, Budget: 1000})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if res.Algorithm != c.want {
			t.Errorf("case %d: dispatched to %q, want %q", i, res.Algorithm, c.want)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

func TestGreedyThroughputRespectsBudget(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		in := busytime.GenerateGeneral(seed, busytime.WorkloadConfig{N: 15, G: 2, MaxTime: 80, MaxLen: 25})
		for _, budget := range []int64{0, 10, 50, 200, 10000} {
			s := busytime.GreedyThroughput(in, budget)
			if err := s.Validate(); err != nil {
				t.Fatalf("seed %d budget %d: %v", seed, budget, err)
			}
			if s.Cost() > budget {
				t.Fatalf("seed %d: cost %d over budget %d", seed, s.Cost(), budget)
			}
		}
		// Generous budget must schedule everything.
		s := busytime.GreedyThroughput(in, in.TotalLen())
		if s.Throughput() != len(in.Jobs) {
			t.Errorf("seed %d: full budget scheduled %d/%d", seed, s.Throughput(), len(in.Jobs))
		}
	}
}

func TestClassifyExported(t *testing.T) {
	in := busytime.NewInstance(2, [2]int64{0, 10}, [2]int64{5, 15})
	if c := busytime.Classify(in.Jobs); c != busytime.ClassProperClique {
		t.Errorf("Classify = %v", c)
	}
}

func TestExactOracleExported(t *testing.T) {
	in := busytime.NewInstance(2, [2]int64{0, 10}, [2]int64{0, 10}, [2]int64{0, 10})
	s, err := busytime.ExactMinBusy(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost() != 20 {
		t.Errorf("exact cost = %d, want 20", s.Cost())
	}
	ts, err := busytime.ExactMaxThroughput(in, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Throughput() != 2 {
		t.Errorf("exact throughput = %d, want 2", ts.Throughput())
	}
}

func TestOnlineFacade(t *testing.T) {
	in := busytime.GenerateArrivals(1, busytime.WorkloadConfig{N: 14, G: 2, MaxTime: 80, MaxLen: 25})
	for _, st := range []busytime.OnlineStrategy{
		busytime.OnlineNaive(), busytime.OnlineFirstFit(), busytime.OnlineBuckets(),
	} {
		res, err := busytime.ReplayOnline(in, st)
		if err != nil {
			t.Fatalf("%s: %v", st.Name(), err)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("%s: %v", st.Name(), err)
		}
		if res.Schedule.Throughput() != len(in.Jobs) {
			t.Fatalf("%s: left jobs unscheduled", st.Name())
		}
	}
	reports, err := busytime.CompareOnline(in, busytime.OnlineFirstFit())
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].HasExact || reports[0].VsExact() < 1 {
		t.Errorf("bad report %+v", reports[0])
	}

	flex := []busytime.FlexJob{
		busytime.NewFlexJob(0, 0, 30, 10),
		busytime.NewFlexJob(1, 5, 40, 8),
	}
	res, err := busytime.ReplayFlexible(2, flex, busytime.StartAligned(), busytime.OnlineFirstFit())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}

	adv, err := busytime.GenerateAdversarialOnline(3, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := adv.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRectFacade(t *testing.T) {
	in, err := busytime.GenerateFigure3(4, 1, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := busytime.FirstFit2D(in)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := busytime.BucketFirstFitAuto(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDeprecatedFacadeByteIdentical locks the migration path from the
// removed facade wrappers (MinBusy, MaxThroughput) to the Solver: the
// wrappers ran the auto dispatch that now lives in the registry, so
// Solver.Solve must produce byte-identical machine assignments (not
// merely equal costs) and the same reported algorithm as
// registry.DispatchMinBusy and registry.DispatchThroughput, across every
// instance class and including disconnected instances that exercise the
// component-merge path.
func TestDeprecatedFacadeByteIdentical(t *testing.T) {
	ctx := context.Background()
	solver := busytime.NewSolver()
	gens := map[string]func(seed int64, cfg busytime.WorkloadConfig) busytime.Instance{
		"general":       busytime.GenerateGeneral,
		"proper":        busytime.GenerateProper,
		"clique":        busytime.GenerateClique,
		"proper-clique": busytime.GenerateProperClique,
		"one-sided": func(seed int64, cfg busytime.WorkloadConfig) busytime.Instance {
			return busytime.GenerateOneSided(seed, cfg, seed%2 == 0)
		},
		"cloud": busytime.GenerateCloud,
	}
	for name, gen := range gens {
		for _, g := range []int{2, 3} {
			for seed := int64(0); seed < 6; seed++ {
				in := gen(seed, busytime.WorkloadConfig{N: 14, G: g, MaxTime: 120, MaxLen: 30})
				class := busytime.Classify(in.Jobs)

				wantSched, wantAlg, err := registry.DispatchMinBusy(ctx, in, class, 1)
				if err != nil {
					t.Fatalf("%s g=%d seed=%d: dispatch: %v", name, g, seed, err)
				}
				res, err := solver.Solve(ctx, busytime.Request{Instance: in})
				if err != nil {
					t.Fatalf("%s g=%d seed=%d: %v", name, g, seed, err)
				}
				if res.Algorithm != wantAlg {
					t.Errorf("%s g=%d seed=%d: dispatcher ran %q, Solver ran %q", name, g, seed, wantAlg, res.Algorithm)
				}
				if !reflect.DeepEqual(wantSched.Machine, res.Schedule.Machine) {
					t.Errorf("%s g=%d seed=%d: min-busy assignments diverge\ndispatcher: %v\nsolver:     %v",
						name, g, seed, wantSched.Machine, res.Schedule.Machine)
				}

				budget := in.TotalLen() / 2
				wantTS, wantTAlg, err := registry.DispatchThroughput(ctx, in, budget, class)
				if err != nil {
					t.Fatalf("%s g=%d seed=%d: throughput dispatch: %v", name, g, seed, err)
				}
				tres, err := solver.Solve(ctx, busytime.Request{Instance: in, Kind: busytime.KindMaxThroughput, Budget: budget})
				if err != nil {
					t.Fatalf("%s g=%d seed=%d throughput: %v", name, g, seed, err)
				}
				if tres.Algorithm != wantTAlg {
					t.Errorf("%s g=%d seed=%d: throughput dispatcher ran %q, Solver ran %q", name, g, seed, wantTAlg, tres.Algorithm)
				}
				if !reflect.DeepEqual(wantTS.Machine, tres.Schedule.Machine) {
					t.Errorf("%s g=%d seed=%d: max-throughput assignments diverge\ndispatcher: %v\nsolver:     %v",
						name, g, seed, wantTS.Machine, tres.Schedule.Machine)
				}
			}
		}
	}
}

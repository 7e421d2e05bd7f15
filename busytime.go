// Package busytime is a library for interval scheduling on parallel
// machines with bounded parallelism, minimizing total machine busy time or
// maximizing throughput under a busy-time budget.
//
// It reproduces the algorithms of Mertzios, Shalom, Voloshin, Wong and
// Zaks, "Optimizing Busy Time on Parallel Machines" (IEEE IPDPS 2012;
// Theoretical Computer Science 562, 2015):
//
//   - MinBusy: schedule all jobs on capacity-g machines minimizing the sum
//     of machine busy times. Exact polynomial algorithms for one-sided
//     cliques, proper cliques, and cliques with g = 2; a (2−1/g)-
//     approximation for proper instances; a g·H_g/(H_g+g−1)-approximation
//     for cliques; FirstFit baselines for everything else.
//   - MaxThroughput: schedule a maximum subset of jobs within busy-time
//     budget T. Exact algorithms for one-sided cliques and proper cliques
//     (including a weighted variant), a 4-approximation for cliques.
//   - Two-dimensional jobs (time × day rectangles): FirstFit2D and
//     BucketFirstFit with the paper's logarithmic guarantee.
//   - Online scheduling (beyond-paper): jobs arrive over time and are
//     committed irrevocably; strategies OnlineNaive, OnlineFirstFit and
//     OnlineBuckets replay rigid or flexible-window streams and report
//     empirical competitive ratios against the offline algorithms.
//
// The package is a facade over internal implementation packages; all
// functionality is reachable from here. The primary entry point is the
// Solver: a Request names an instance and a problem kind, Solve is
// context-cancellable, and the structured Result carries the schedule,
// the algorithm used, the detected class, cost and machine statistics,
// the Observation 2.1 lower bound with the achieved ratio, and a
// Certificate() feasibility check. Quick start:
//
//	in := busytime.NewInstance(2, [2]int64{0, 10}, [2]int64{5, 15})
//	res, err := busytime.NewSolver().Solve(context.Background(),
//		busytime.Request{Instance: in})
//	fmt.Println(res.Algorithm, res.Cost, res.Certificate())
//
// Every algorithm is registered in a central registry (Algorithms,
// LookupAlgorithm, AlgorithmFor) with its name, problem kind, applicable
// instance classes and approximation guarantee; auto dispatch and the
// CLI -algo flags resolve through it. The named algorithm variables
// below call one algorithm directly, bypassing dispatch.
package busytime

import (
	"context"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/igraph"
	"repro/internal/interval"
	"repro/internal/job"
	"repro/internal/localsearch"
	"repro/internal/online"
	"repro/internal/rect"
	"repro/internal/reopt"
	"repro/internal/workload"
)

// Core model types, aliased from the internal packages so values flow
// freely between the facade and internal APIs.
type (
	// Interval is a half-open time interval [Start, End) on int64 ticks.
	Interval = interval.Interval
	// Job is an interval job with optional Weight and Demand extensions.
	Job = job.Job
	// Instance is a MinBusy input (J, g).
	Instance = job.Instance
	// Schedule is a (possibly partial) job-to-machine assignment.
	Schedule = core.Schedule
	// Rect is an axis-aligned rectangle, the 2-D job shape of Section 3.4.
	Rect = rect.Rect
	// RectJob is a two-dimensional job.
	RectJob = job.RectJob
	// RectInstance is a 2-D MinBusy input.
	RectInstance = job.RectInstance
	// RectSchedule is a 2-D schedule.
	RectSchedule = core.RectSchedule
	// Class is the detected instance class used for dispatch.
	Class = igraph.Class
)

// Instance classes, from most general to most structured.
const (
	ClassGeneral        = igraph.General
	ClassProper         = igraph.Proper
	ClassClique         = igraph.Clique
	ClassProperClique   = igraph.ProperClique
	ClassOneSidedClique = igraph.OneSidedClique
)

// Unscheduled marks a job left out of a partial schedule.
const Unscheduled = core.Unscheduled

// NewJob returns a unit-weight, unit-demand job over [start, end).
func NewJob(id int, start, end int64) Job { return job.New(id, start, end) }

// NewInstance builds an instance from (start, end) pairs with capacity g.
func NewInstance(g int, spans ...[2]int64) Instance { return job.NewInstance(g, spans...) }

// Classify returns the most specific instance class of the job set.
func Classify(jobs []Job) Class { return igraph.Classify(jobs) }

// Named MinBusy algorithms (see the paper references on each).
var (
	// NaivePerJob assigns each job its own machine (Prop 2.1 baseline).
	NaivePerJob = core.NaivePerJob
	// FirstFit is the 4-approximation baseline of [13].
	FirstFit = core.FirstFit
	// OneSidedGreedy solves one-sided cliques exactly (Observation 3.1).
	OneSidedGreedy = core.OneSidedGreedy
	// CliqueMatching solves cliques with g = 2 exactly (Lemma 3.1).
	CliqueMatching = core.CliqueMatching
	// CliqueSetCover approximates cliques within g·H_g/(H_g+g−1) (Lemma 3.2).
	CliqueSetCover = core.CliqueSetCover
	// BestCut is the (2−1/g)-approximation for proper instances (Thm 3.1).
	BestCut = core.BestCut
	// FindBestConsecutive solves proper cliques exactly (Theorem 3.2).
	FindBestConsecutive = core.FindBestConsecutive
)

// Named MaxThroughput algorithms.
var (
	// OneSidedThroughput solves one-sided cliques exactly (Prop 4.1).
	OneSidedThroughput = core.OneSidedThroughput
	// CliqueThroughput is the 4-approximation for cliques (Theorem 4.1).
	CliqueThroughput = core.CliqueThroughput
	// MostThroughputConsecutive solves proper cliques exactly (Thm 4.2).
	MostThroughputConsecutive = core.MostThroughputConsecutive
	// MostWeightConsecutive is the weighted extension (Section 5).
	MostWeightConsecutive = core.MostWeightConsecutive
	// OneSidedWeightThroughput is the weighted extension on one-sided
	// cliques (Section 5).
	OneSidedWeightThroughput = core.OneSidedWeightThroughput
	// GreedyThroughput is the general-instance heuristic fallback.
	GreedyThroughput = core.GreedyThroughput
	// MinBusyViaThroughput is the Proposition 2.2 reduction.
	MinBusyViaThroughput = core.MinBusyViaThroughput
)

// Two-dimensional algorithms (Section 3.4).
var (
	// FirstFit2D is Algorithm 3 (ratio between 6γ₁+3 and 6γ₁+4, Lemma 3.5).
	FirstFit2D = core.FirstFit2D
	// BucketFirstFit is Algorithm 4 with explicit bucket base β.
	BucketFirstFit = core.BucketFirstFit
	// BucketFirstFitAuto normalizes γ₁ ≤ γ₂ and uses the paper's β = 3.3.
	BucketFirstFitAuto = core.BucketFirstFitAuto
	// NaivePerJob2D is the per-job baseline in two dimensions.
	NaivePerJob2D = core.NaivePerJob2D
)

// Exact exponential-time oracles for small instances (n ≤ 18), used to
// measure approximation quality.
var (
	// ExactMinBusy computes an optimal total schedule.
	ExactMinBusy = exact.MinBusy
	// ExactMaxThroughput computes an optimal budgeted partial schedule.
	ExactMaxThroughput = exact.MaxThroughput
	// ExactMaxWeightThroughput is the weighted oracle.
	ExactMaxWeightThroughput = exact.MaxWeightThroughput
)

// Post-optimization.
var (
	// ImproveSchedule hill-climbs a valid schedule to a local optimum of
	// no greater cost (beyond-paper addition, experiment E15).
	ImproveSchedule = localsearch.Improve
)

// Reoptimization (beyond paper, after "Optimization and Reoptimization
// in Scheduling Problems", arXiv 1509.01630; enabled per Solver with
// WithReoptimization).
var (
	// FingerprintInstance returns the canonical-form fingerprint of an
	// instance: two instances share it exactly when they agree up to job
	// order, job IDs and a uniform time translation — the metamorphic
	// equivalence classes of the conformance harness.
	FingerprintInstance = reopt.Fingerprint
)

// Online scheduling (beyond-paper extension, after Shalom et al., "Online
// optimization of busy time on parallel machines", and Albers & van der
// Heijden, arXiv:2405.08595): jobs arrive over time and are committed to
// machines irrevocably, with busy time accruing as machines open and
// close.
type (
	// OnlineStrategy is an online placement policy fed by ReplayOnline.
	OnlineStrategy = online.Strategy
	// OnlineResult is a replayed run: committed schedule plus statistics.
	OnlineResult = online.Result
	// OnlineReport measures a strategy against the offline baselines.
	OnlineReport = online.Report
	// OnlineMachine is one open machine's state, visible to strategies.
	OnlineMachine = online.Machine
	// OnlineBudgetSetter is implemented by admission-control strategies
	// that accept a busy-time budget before the first arrival.
	OnlineBudgetSetter = online.BudgetSetter
	// OnlineSession is an incremental online run fed one arrival at a
	// time — the state behind busyd's POST /v1/stream endpoint.
	OnlineSession = online.Session
	// OnlineEvent is one streamed arrival's placement with live telemetry.
	OnlineEvent = online.Event
	// OnlineSummary is a session's closing competitive-ratio report.
	OnlineSummary = online.Summary
	// OnlineRatioTracker maintains cost, Observation 2.1 bound and their
	// ratio incrementally per admitted arrival.
	OnlineRatioTracker = online.RatioTracker
	// FlexJob is a flexible job scheduled anywhere inside its window.
	FlexJob = online.FlexJob
	// StartPolicy commits a flexible job's start time at its release.
	StartPolicy = online.StartPolicy
)

var (
	// OnlineNaive opens one machine per arrival (g-competitive baseline).
	OnlineNaive = online.Naive
	// OnlineFirstFit places each arrival on the first open machine it fits.
	OnlineFirstFit = online.FirstFit
	// OnlineBuckets runs FirstFit within doubling length classes.
	OnlineBuckets = online.Buckets
	// OnlineBestFit places each arrival where it adds the least busy time.
	OnlineBestFit = online.BestFit
	// OnlineBudgeted wraps BestFit with weighted budget admission control.
	OnlineBudgeted = online.Budgeted
	// NewOnlineSession starts an incremental session for a strategy.
	NewOnlineSession = online.NewSession
	// NewOnlineRatioTracker starts an incremental ratio tracker.
	NewOnlineRatioTracker = online.NewRatioTracker
	// ReplayOnline feeds an instance through a strategy in arrival order.
	ReplayOnline = online.Replay
	// ReplayFlexible replays flexible jobs under a start policy.
	ReplayFlexible = online.FlexReplay
	// NewFlexJob builds a flexible job with a [release, deadline) window.
	NewFlexJob = online.NewFlexJob
	// StartASAP commits every flexible job at its release time.
	StartASAP = online.StartASAP
	// StartAligned delays a flexible job into an open busy period.
	StartAligned = online.StartAligned
)

// CompareOnline replays the instance through each strategy and reports
// each run's cost against the offline schedule of NewSolver's auto
// dispatch, the Observation 2.1 lower bound, and — when the instance is
// small enough for the subset-DP oracle (n ≤ 18) — the exact optimum.
// It is the harness behind the competitive-ratio experiments and
// cmd/onlinesim.
func CompareOnline(in Instance, strategies ...OnlineStrategy) ([]OnlineReport, error) {
	offline, err := NewSolver().Solve(context.TODO(), Request{Instance: in})
	if err != nil {
		return nil, err
	}
	var exactCost int64
	hasExact := false
	if len(in.Jobs) <= exact.MaxN {
		s, err := exact.MinBusy(in)
		if err != nil {
			return nil, err
		}
		exactCost, hasExact = s.Cost(), true
	}
	reports := make([]OnlineReport, 0, len(strategies))
	for _, st := range strategies {
		res, err := online.Replay(in, st)
		if err != nil {
			return nil, err
		}
		reports = append(reports, OnlineReport{
			Strategy:    res.Strategy,
			Cost:        res.Cost,
			Machines:    res.MachinesOpened,
			PeakOpen:    res.PeakOpen,
			Rejected:    res.Rejected,
			OfflineCost: offline.Cost,
			OfflineAlg:  offline.Algorithm,
			ExactCost:   exactCost,
			HasExact:    hasExact,
			LowerBound:  in.LowerBound(),
		})
	}
	return reports, nil
}

// Workload generation, re-exported for examples and downstream benchmarks.
type WorkloadConfig = workload.Config

var (
	// GenerateGeneral returns an unconstrained random instance.
	GenerateGeneral = workload.General
	// GenerateClique returns a random clique instance.
	GenerateClique = workload.Clique
	// GenerateProper returns a random proper instance.
	GenerateProper = workload.Proper
	// GenerateProperClique returns a random proper clique instance.
	GenerateProperClique = workload.ProperClique
	// GenerateOneSided returns a one-sided clique instance.
	GenerateOneSided = workload.OneSided
	// GenerateCloud returns a cloud-task workload with weights.
	GenerateCloud = workload.Cloud
	// GenerateLightpaths returns an optical-network workload.
	GenerateLightpaths = workload.Lightpaths
	// GenerateBoundedGammaRects returns a 2-D workload with bounded γ₁.
	GenerateBoundedGammaRects = workload.BoundedGammaRects
	// GenerateFigure3 builds the adversarial family of Figure 3.
	GenerateFigure3 = workload.Figure3
	// GenerateArrivals returns a general instance in arrival order.
	GenerateArrivals = workload.Arrivals
	// GenerateWeightedArrivals returns an arrival stream whose jobs carry
	// throughput weights — the input of the budgeted admission strategy.
	GenerateWeightedArrivals = workload.WeightedArrivals
	// GenerateBurstyArrivals returns an arrival stream with simultaneous
	// release bursts.
	GenerateBurstyArrivals = workload.BurstyArrivals
	// GenerateAdversarialOnline builds the Ω(g) lower-bound stream for
	// online FirstFit.
	GenerateAdversarialOnline = workload.AdversarialFirstFit
)

package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// shortPlan is one small round per run: enough to exercise every path
// and every check, in seconds.
func shortPlan() plan {
	return plan{
		minRounds: 1, maxRounds: 1,
		mixWarmup: 16, mixRound: 32,
		deltaPrime: 64, deltaSteps: 40,
		streamPre: 2, streamSessions: 2,
		replayRequests: 8, replaySessions: 1,
	}
}

var workloads = []string{"solve-mix", "solve-delta", "stream-journal"}

func runShort(t *testing.T, workload string, seed int64, traced bool) (*report, *result) {
	t.Helper()
	rep, res, err := bench(workload, seed, shortPlan(), traced)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d: %d of %d failed: %v", workload, seed, res.Failed, res.Attempted, rep.Failures)
	}
	return rep, res
}

// TestSeedDeterminesInputsAndQuality: one seed gives one input digest
// and one set of quality figures (cost ratio, reopt outcome shares,
// admitted fraction); another seed gives other inputs.
func TestSeedDeterminesInputsAndQuality(t *testing.T) {
	for _, w := range workloads {
		a, _ := runShort(t, w, 7, false)
		b, _ := runShort(t, w, 7, false)
		if a.Digest != b.Digest {
			t.Errorf("%s: seed 7 gave digests %s and %s", w, a.Digest, b.Digest)
		}
		if !reflect.DeepEqual(a.Quality, b.Quality) {
			t.Errorf("%s: seed 7 gave quality %v and %v", w, a.Quality, b.Quality)
		}
		if a.Quality["cost_ratio"].(float64) < 1 {
			t.Errorf("%s: cost ratio %v below the lower bound", w, a.Quality["cost_ratio"])
		}
		c, _ := runShort(t, w, 8, false)
		if c.Digest == a.Digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w, a.Digest)
		}
	}
}

// TestSolveMixNeverHitsTheCache: warm-up and timed requests come from
// disjoint seeds and every timed request is distinct, so the reopt
// cache only ever pays its miss path.
func TestSolveMixNeverHitsTheCache(t *testing.T) {
	rep, res := runShort(t, "solve-mix", 3, true)
	for _, m := range []string{"reopt.hit_frac", "reopt.repair_frac"} {
		if v := res.Metrics[m].Value; v != 0 {
			t.Errorf("%s = %v, want 0", m, v)
		}
	}
	if v := res.Metrics["reopt.miss_frac"].Value; v != 1 {
		t.Errorf("reopt.miss_frac = %v, want 1", v)
	}
	if rep.Quality["hit_frac"].(float64) != 0 || rep.Quality["repair_frac"].(float64) != 0 {
		t.Errorf("quality %v, want no hits or repairs", rep.Quality)
	}
}

// TestPhaseNamesMatchMetrics: on the solve workloads the phase names in
// the echoed span trees are exactly the phase labels of
// busyd_solve_phase_seconds after the same run, and each has its
// phase.<name>_ms metric.
func TestPhaseNamesMatchMetrics(t *testing.T) {
	for _, w := range []string{"solve-mix", "solve-delta"} {
		rep, res := runShort(t, w, 5, true)
		if len(rep.Phases) == 0 || !reflect.DeepEqual(rep.Phases, rep.Labels) {
			t.Errorf("%s: traced phases %v, /metrics phase labels %v", w, rep.Phases, rep.Labels)
		}
		for _, p := range rep.Phases {
			if _, ok := res.Metrics["phase."+p+"_ms"]; !ok {
				t.Errorf("%s: phase %s has no phase.%s_ms metric", w, p, p)
			}
		}
	}
}

// TestMetricsMatchBenchmarkJSON: every workload prints exactly the
// metrics BENCHMARK.json declares, with the declared units, in each mode.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	units := func(ds []decl) map[string]string {
		m := map[string]string{}
		for _, d := range ds {
			m[d.Name] = d.Unit
		}
		return m
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := units(spec.EndToEnd)
			if traced {
				want = units(spec.PerLayer)
			}
			_, res := runShort(t, w, 11, traced)
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json declares %v", w, traced, sorted(got), sorted(want))
			}
		}
	}
}

func sorted(m map[string]string) []string {
	var out []string
	for k, v := range m {
		out = append(out, k+" "+v)
	}
	sort.Strings(out)
	return out
}

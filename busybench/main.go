// Command busybench is the repository's benchmark: it runs busyd's
// server in-process on a loopback listener with cmd/busyd's flag
// defaults, drives it from closed-loop clients in the same process, and
// checks every output it gets back.
//
//	busybench --workload solve-mix --seed 1 --seconds 10 --trace 0
//
// Workloads are solve-mix, solve-delta and stream-journal (see
// README.md). With --trace 0 the last output line carries the
// end-to-end metrics of an untraced run; with --trace 1 it carries the
// per-layer metrics of a traced run of the same seed and inputs. The
// line before it is the full report: environment, input digest, every
// metric and the first failures. The exit status is non-zero if any
// output failed its check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last output line, the one the benchmark's consumers
// parse.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before it: everything a reader needs to compare
// two runs.
type report struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Digest    string            `json:"input_digest"`
	Env       environment       `json:"env"`
	Rounds    int               `json:"rounds"`
	Samples   int               `json:"latency_samples"`
	Groups    int               `json:"latency_groups"`
	TimedS    float64           `json:"timed_s"`
	Setups    []float64         `json:"setup_s_per_round"`
	Rates     []float64         `json:"jobs_per_s_per_round"`
	StealFrac float64           `json:"steal_frac"`
	Quality   map[string]any    `json:"quality"`
	Phases    []string          `json:"phases,omitempty"`
	Labels    []string          `json:"metric_phase_labels,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Failures  []string          `json:"failures,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("busybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "solve-mix, solve-delta or stream-journal")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "timed window per run, summed over rounds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "busybench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	rep, res, err := bench(*workload, *seed, fullPlan(*seconds), *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(stderr, "busybench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": rep}); err != nil {
		fmt.Fprintln(stderr, "busybench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "busybench:", err)
		return 1
	}
	if !res.Correct {
		for _, f := range rep.Failures {
			fmt.Fprintln(stderr, "busybench: FAIL", f)
		}
		return 1
	}
	return 0
}

// bench generates the inputs, measures, and assembles both output
// documents.
func bench(workload string, seed int64, p plan, traced bool) (*report, *result, error) {
	in, err := newInputs(workload, seed, p)
	if err != nil {
		return nil, nil, err
	}
	t, replay, err := measure(in, p, traced)
	if err != nil {
		return nil, nil, err
	}
	rep := &report{
		Workload: workload, Traced: traced, Digest: in.sum(), Env: currentEnvironment(seed),
		Rounds: len(t.setups), Samples: len(t.lat), Groups: len(t.groups), TimedS: t.timed.Seconds(),
		Setups: t.setups, Rates: t.rates, StealFrac: ratio(float64(t.steal.steal), float64(t.steal.total)),
		Quality: t.quality(), Failures: t.failures, Attempted: t.attempted, Failed: t.failed,
	}
	e2e := t.endToEnd()
	if !traced {
		rep.Metrics = e2e
	} else {
		if rep.Metrics, err = t.perLayer(in, replay, e2e); err != nil {
			return nil, nil, err
		}
		rep.Phases = t.observedPhases()
		for l := range t.phaseLabels {
			rep.Labels = append(rep.Labels, l)
		}
		sort.Strings(rep.Labels)
	}
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for name, m := range rep.Metrics {
		if !reportOnly[name] {
			res.Metrics[name] = m
		}
	}
	return rep, res, nil
}

// quality is the seed-determined part of a run: taken over the quality
// rounds, so repeat runs of one seed must agree exactly.
func (t *tally) quality() map[string]any {
	q := map[string]any{"cost_ratio": ratio(float64(t.cost), float64(t.bound))}
	total := 0
	for _, n := range t.outcomes {
		total += n
	}
	for _, o := range []string{"hit", "repair", "miss"} {
		q[o+"_frac"] = ratio(float64(t.outcomes[o]), float64(total))
	}
	q["admitted_frac"] = ratio(float64(t.admitted), float64(t.arrivals))
	return q
}

// reportOnly are end-to-end figures the report line prints but the last
// line, which BENCHMARK.json gates, leaves out. fail_frac is zero on a
// correct run, and the last line's attempted and failed counts carry
// it. req_p99_ms spread 13-23% between same-commit runs on the 2-core
// VM the bounds were measured on: queueing amplifies the host's speed
// drift in the tail, so it is reported, not gated.
var reportOnly = map[string]bool{"fail_frac": true, "req_p99_ms": true}

// endToEnd computes the metrics a user of busyd sees.
func (t *tally) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":          {median(t.setups), "s"},
		"jobs_per_s":       {median(t.rates), "1/s"},
		"req_p50_ms":       {t.latency(0.50), "ms"},
		"req_p99_ms":       {t.latency(0.99), "ms"},
		"cost_ratio":       {ratio(float64(t.cost), float64(t.bound)), "ratio"},
		"fail_frac":        {ratio(float64(t.failed), float64(t.attempted)), "ratio"},
		"alloc_kb_per_job": {ratio(float64(t.alloc)/1024, float64(t.jobs)), "KiB"},
		"peak_rss_mb":      {peakRSSMiB(), "MiB"},
	}
}

// perLayer assembles the traced run's per-layer metrics: span self time
// from the echoed trees, counts from the responses and /metrics, and the
// in-process replays of the same inputs. A layer the workload does not
// reach reports 0.
func (t *tally) perLayer(in *inputs, replay [][]solveInput, e2e map[string]metric) (map[string]metric, error) {
	m := map[string]metric{}
	inMS := func(name string, v float64) { m[name] = metric{v, "ms"} }
	inUS := func(name string, v float64) { m[name] = metric{v, "us"} }
	count := func(name string, v float64) { m[name] = metric{v, "count"} }
	frac := func(name string, v float64) { m[name] = metric{v, "ratio"} }

	m["traced.jobs_per_s"] = e2e["jobs_per_s"]
	for _, phase := range []string{"dispatch", "placement", "bound", "certify",
		"reopt.fingerprint", "reopt.nearest", "reopt.repair"} {
		inMS("phase."+phase+"_ms", per(time.Duration(t.phaseNS[phase]), t.tracedRequests, 1e6))
	}
	for _, stage := range []string{"stage.queue", "stage.flush", "stage.solve"} {
		inMS("phase."+stage+"_ms", per(time.Duration(t.phaseNS[stage]), t.tracedArrivals, 1e6))
	}
	q := t.quality()
	for _, o := range []string{"hit", "repair", "miss"} {
		frac("reopt."+o+"_frac", q[o+"_frac"].(float64))
	}
	count("reopt.transition_jobs", ratio(float64(t.transitions), float64(t.repairs)))
	count("server.flush_arrivals", ratio(t.flushSum, t.flushCount))
	inMS("server.queue_ms_p50", percentile(t.queueMS, 0.5))
	inMS("server.flush_ms_p50", percentile(t.flushMS, 0.5))
	count("runtime.gc_cycles_per_1k_jobs", ratio(float64(t.gcs)*1000, float64(t.jobs)))
	inMS("runtime.gc_pause_ms", ratio(float64(t.pause)/1e6, float64(t.gcs)))

	lt := &layerTimes{}
	var err error
	if in.workload == "stream-journal" {
		flush := int(ratio(t.flushSum, t.flushCount) + 0.5)
		lt, err = replayStream(in, max(flush, 1))
	} else {
		lt, err = replaySolve(replay)
	}
	if err != nil {
		return nil, fmt.Errorf("layer replay: %v", err)
	}
	units := lt.requests + lt.arrivals // per request on solve, per arrival on streams
	inMS("server.decode_ms", per(lt.decode, units, 1e6))
	inMS("server.wire_result_ms", per(lt.wireResult, lt.requests, 1e6))
	inMS("server.encode_ms", per(lt.encode, units, 1e6))
	inMS("igraph.split_ms", per(lt.split, lt.requests, 1e6))
	inMS("igraph.classify_ms", per(lt.classify, lt.requests, 1e6))
	count("igraph.components", ratio(float64(lt.components), float64(lt.requests)))
	inMS("core.place_ms", per(lt.place, lt.requests, 1e6))
	count("core.chain_declines", ratio(float64(lt.declines), float64(lt.components)))
	inMS("core.cost_ms", per(lt.cost, lt.requests, 1e6))
	inMS("reopt.canonical_ms", per(lt.canonical, lt.requests, 1e6))
	inUS("online.offer_us", per(lt.offer, lt.arrivals, 1e3))
	inUS("journal.stage_us", per(lt.stage, lt.arrivals, 1e3))
	inUS("journal.commit_us", per(lt.commit, lt.commits, 1e3))
	m["journal.bytes_per_arrival"] = metric{ratio(float64(lt.bytes), float64(lt.arrivals)), "B"}
	m["journal.recover_s"] = metric{median(lt.recoverSm), "s"}
	return m, nil
}
